import io
import json
import pathlib
import random
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from lineplace.cli import main, parse_instance
from lineplace.errors import SchemaError

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def canonical(text):
    doc = json.loads(text)
    if doc.get("ok"):
        doc["result"].pop("wall_time_ms", None)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestGolden:
    def _cases(self):
        return json.loads((GOLDEN / "manifest.json").read_text())["cases"]

    @pytest.mark.parametrize("idx", range(10))
    def test_case_matches_expected(self, idx):
        case = self._cases()[idx]
        code, out = run_cli(["solve", "--in", str(GOLDEN / case["instance"])]
                            + case["flags"])
        assert code == 0
        expected = (GOLDEN / case["expected"]).read_text()
        assert canonical(out) == expected

    def test_rerun_is_deterministic(self):
        case = self._cases()[4]
        argv = ["solve", "--in", str(GOLDEN / case["instance"])] + case["flags"]
        _, out1 = run_cli(argv)
        _, out2 = run_cli(argv)
        assert canonical(out1) == canonical(out2)

    def test_verify_deltas_within_tolerance(self):
        for case in self._cases():
            if "--verify" not in case["flags"]:
                continue
            doc = json.loads((GOLDEN / case["expected"]).read_text())
            verify = doc["result"]["verify"]
            assert verify["ok"] is True
            assert verify["delta"] <= verify["tolerance"]


class TestSchemaErrors:
    def test_unknown_problem(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": "bogus"}')
        code, _ = run_cli(["solve", "--in", str(path)])
        assert code == 2
        assert "problem" in capsys.readouterr().err

    def test_missing_segments_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "problem": "obnoxious-center", "p": 2.0,
            "constraint": [0, 0, 1, 0]}))
        code, _ = run_cli(["solve", "--in", str(path)])
        assert code == 2
        assert "segments" in capsys.readouterr().err

    def test_bad_point_coordinate(self):
        with pytest.raises(SchemaError) as err:
            parse_instance({
                "problem": "k-cover", "p": 2.0,
                "constraint": [0, 0, 1, 0],
                "points": [[0, "x"]]})
        assert "points[0]" in str(err.value)

    def test_degenerate_constraint(self):
        with pytest.raises(SchemaError) as err:
            parse_instance({
                "problem": "obnoxious-center", "p": 2.0,
                "constraint": [1, 1, 1, 1],
                "segments": [[0, 1, 1, 1]]})
        assert "constraint" in str(err.value)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _ = run_cli(["solve", "--in", str(path)])
        assert code == 2


class TestTableErrors:
    """A bad cell or row of a long table is named as the per-cell
    validator names it, in whichever row it is."""

    # JSON text of the bad cell, and the message; the cell in error is
    # the third of a segment row and the second of a point row
    CELLS = {"true": "must be a number", '"1.5"': "must be a number",
             "null": "must be a number", "[1]": "must be a number",
             "1" + "0" * 400: "must be finite"}
    # a 3-value row, and rows that are no list (one with four characters)
    ROWS = ["[1, 2, 3]", '"wxyz"', "7"]
    SHAPES = {"segments": "must be [x1, y1, x2, y2]", "points": "must be a pair [x, y]"}

    @pytest.mark.parametrize("table", ["segments", "points"])
    @pytest.mark.parametrize("row", [0, 30])
    @pytest.mark.parametrize("text", list(CELLS) + ROWS)
    def test_first_bad_field_is_named(self, tmp_path, capsys, table, row, text):
        width, col = (4, 2) if table == "segments" else (2, 1)
        rows = [[json.dumps(float(i + j)) for j in range(width)] for i in range(40)]
        if text in self.CELLS:
            rows[row][col] = text
            want = f"{table}[{row}][{col}]: {self.CELLS[text]}"
        else:
            want = f"{table}[{row}]: {self.SHAPES[table]}"
        body = ", ".join(text if i == row and text in self.ROWS else "[" + ", ".join(r) + "]"
                         for i, r in enumerate(rows))
        problem = "one-center" if table == "segments" else "k-cover"
        path = tmp_path / "inst.json"
        path.write_text(f'{{"problem": "{problem}", "p": 2.0, '
                        f'"constraint": [0, 0, 10, 0], "{table}": [{body}]}}')
        code, out = run_cli(["solve", "--in", str(path)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"instance error: {want}\n"


class TestUnreadableInput:
    def _expect_instance_error(self, argv, capsys, field=None):
        code, out = run_cli(argv)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("instance error: ")
        assert "Traceback" not in err
        if field is not None:
            assert f"{field}:" in err

    def test_missing_file(self, tmp_path, capsys):
        self._expect_instance_error(["solve", "--in", str(tmp_path / "nope.json")], capsys)

    def test_directory(self, tmp_path, capsys):
        self._expect_instance_error(["solve", "--in", str(tmp_path)], capsys)

    def test_non_utf8_bytes(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_bytes(b'{"problem": "one-center", "p": 2.0\xff\xfe}')
        self._expect_instance_error(["solve", "--in", str(path)], capsys)

    def test_non_utf8_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"),
                                                           encoding="utf-8"))
        self._expect_instance_error(["solve", "--in", "-"], capsys)

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text('{"problem": "obnoxious-center", "p": 2, '
                        '"constraint": [' + "9" * 400 + ', 0, 1, 0], '
                        '"segments": [[0, 1, 1, 1]]}')
        self._expect_instance_error(["solve", "--in", str(path)], capsys,
                                    field="constraint[0]")

    def test_deeply_nested_document(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text("[" * 100000 + "]" * 100000)
        self._expect_instance_error(["solve", "--in", str(path)], capsys)


class TestUnwritableOut:
    def test_result(self, tmp_path, capsys):
        bad = tmp_path / "no_such_dir" / "res.json"
        code, out = run_cli(["solve", "--in", str(GOLDEN / "inst_01.json"),
                             "--out", str(bad)])
        err = capsys.readouterr().err
        assert code == 4 and out == ""
        assert err.startswith("output error: ")

    def test_error_document(self, tmp_path, capsys):
        # the solver fails (exit 3), and its error JSON cannot be written
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({
            "problem": "obnoxious-center", "p": 3.0,
            "constraint": [0, 0, 3, 4],
            "segments": [[0, 1, 1, 1]]}))
        bad = tmp_path / "no_such_dir" / "res.json"
        code, _ = run_cli(["solve", "--in", str(inst), "--out", str(bad)])
        assert code == 4
        assert capsys.readouterr().err.startswith("output error: ")

    def test_gen(self, tmp_path):
        bad = tmp_path / "no_such_dir" / "inst.json"
        code, _ = run_cli(["gen", "--problem", "k-cover", "--out", str(bad)])
        assert code == 4


class TestSolverErrors:
    def test_oblique_constraint_under_p3(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "problem": "obnoxious-center", "p": 3.0,
            "constraint": [0, 0, 3, 4],
            "segments": [[0, 1, 1, 1]]}))
        code, out = run_cli(["solve", "--in", str(path)])
        assert code == 3
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["error"]["name"] == "NonIsometricRotation"


class TestToleranceFlags:
    @pytest.mark.parametrize("flags,name", [
        (["--eps", "0"], "--eps"),
        (["--eps", "nan"], "--eps"),
        (["--eps", "-0.5"], "--eps"),
        (["--eps", "inf"], "--eps"),
        (["--max-iters", "0"], "--max-iters"),
    ])
    def test_rejected_with_exit_2(self, flags, name, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", "--in", str(GOLDEN / "inst_01.json")] + flags)
        assert exc.value.code == 2
        assert f"argument {name}:" in capsys.readouterr().err


class TestRobustness:
    def test_near_equal_abscissas_k_cover(self, tmp_path):
        # abscissas 1e-6 apart give a pair circle of radius about 1e9;
        # with an absolute coverage slack it missed its own point
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "problem": "k-cover", "p": 2.0, "constraint": [0, 0, 10, 0],
            "points": [[0.447712, 96.415328], [0.447713, 54.104628]], "k": None}))
        objectives = []
        for lists in ("naive", "sweep"):
            code, out = run_cli(["solve", "--in", str(path), "--lists", lists,
                                 "--verify"])
            assert code == 0
            result = json.loads(out)["result"]
            assert result["verify"]["ok"] is True
            objectives.append(result["objective"])
        assert abs(objectives[0] - objectives[1]) <= 1e-6

    @pytest.mark.parametrize("split", ["halves", "one-off"])
    def test_envelope_at_p400(self, tmp_path, split):
        # |ey|^(p-1) overflowed in the envelope's regime boundaries
        path = tmp_path / "inst.json"
        run_cli(["gen", "--problem", "obnoxious-center", "--p", "400",
                 "--out", str(path)])
        code, out = run_cli(["solve", "--in", str(path), "--method", "envelope",
                             "--split", split, "--verify"])
        assert code == 0
        verify = json.loads(out)["result"]["verify"]
        assert verify["kind"] == "binsearch"
        assert verify["ok"] is True
        assert verify["delta"] <= 2 * 1e-9

    def test_pair_circle_far_from_the_line_solves(self, tmp_path):
        # |x - xi|^p overflowed while a pair circle's bracket widened;
        # each pair now runs on its own power-of-two scale, so the solve
        # answers, silently, with the point far from the line pinned
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "problem": "k-cover", "p": 5.998, "constraint": [0, 0, 2.96, 0],
            "points": [[-10, 0], [-16, 0], [1.2e-246, -16], [-16, -3.73e16], [-6, -94.8]],
            "k": 1, "agg": "sum", "q": 1}))
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with redirect_stderr(err):
                code, out = run_cli(["solve", "--in", str(path), "--verify"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["verify"]["ok"] is True
        assert result["objective"] == 3.73e16
        assert err.getvalue() == ""

    def test_k_cover_at_p300(self, tmp_path):
        # |yj|^p - |yi|^p of the pair circles overflowed once |y| > 10.6
        path = tmp_path / "inst.json"
        run_cli(["gen", "--problem", "k-cover", "--p", "300", "--n", "8", "--seed", "1",
                 "--k", "2", "--out", str(path)])
        code, out = run_cli(["solve", "--in", str(path), "--verify"])
        assert code == 0
        assert json.loads(out)["result"]["verify"]["ok"] is True

    def test_non_finite_pair_circle(self, tmp_path):
        # the pair circle of these points has a NaN center: with two
        # runs both builders solve, with one no cover is finite
        path = tmp_path / "inst.json"
        inst = {"problem": "k-cover", "p": 2.0, "constraint": [0, 0, 1, 0],
                "points": [[1e200, 1], [2e200, 1]], "k": 2, "agg": "sum", "q": 1}
        path.write_text(json.dumps(inst))
        for lists in ("naive", "sweep"):
            code, out = run_cli(["solve", "--in", str(path), "--lists", lists, "--verify"])
            assert code == 0
            result = json.loads(out)["result"]
            assert result["objective"] == 2.0
            assert result["verify"]["ok"] is True
        path.write_text(json.dumps(dict(inst, k=1)))
        code, out = run_cli(["solve", "--in", str(path)])
        assert code == 3
        assert json.loads(out)["error"]["name"] == "OverflowError"

    @pytest.mark.parametrize("method", ["binsearch", "envelope"])
    def test_segments_shorter_than_the_squared_length_range(self, tmp_path, method):
        # at coordinate scale 1e-170 the p = 2 projection's squared
        # segment length underflows to 0; it raised ZeroDivisionError
        sc = 1e-170
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "problem": "obnoxious-center", "p": 2.0, "constraint": [0, 0, 10 * sc, 0],
            "segments": [[1 * sc, 2 * sc, 1.5 * sc, 3 * sc], [7 * sc, -1 * sc, 8 * sc, -2 * sc],
                         [4 * sc, 5 * sc, 4 * sc, 6 * sc]]}))
        code, out = run_cli(["solve", "--in", str(path), "--method", method])
        assert code == 0
        result = json.loads(out)["result"]
        assert 0.0 < result["radius"] < 1e-168

    @pytest.mark.parametrize("problem", ["one-center", "obnoxious-center"])
    def test_array_route_near_the_float_range(self, tmp_path, problem):
        # differences of these coordinates overflow; the array route must
        # take them to inf silently, as the scalar route's Python floats
        # do, and not warn (the test settings make a RuntimeWarning an error)
        rng = random.Random(7)
        segs = [[rng.choice([-1.0, 1.0]) * rng.random() * 1.7e308 for _ in range(4)]
                for _ in range(30)]
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"problem": problem, "p": 2.0,
                                    "constraint": [0, 0, 1, 0], "segments": segs}))
        code, out = run_cli(["solve", "--in", str(path)])
        assert code == 3
        assert json.loads(out)["ok"] is False

    def test_verify_beyond_grid_limit(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "problem": "one-center", "p": 2.0, "constraint": [0, 0, 1e300, 0],
            "segments": [[1, 1, 2, 3], [5, -1, 6, 2]]}))
        code, out = run_cli(["solve", "--in", str(path), "--verify"])
        assert code == 0
        verify = json.loads(out)["result"]["verify"]
        assert verify["ok"] is None
        assert verify["kind"] == "grid"
        assert "exceeds the limit" in verify["reason"]

    def test_verify_on_a_small_instance_unchanged(self):
        # golden case 2 is a one-center instance solved with --verify
        case = json.loads((GOLDEN / "manifest.json").read_text())["cases"][1]
        assert case["flags"] == ["--verify"]
        code, out = run_cli(["solve", "--in", str(GOLDEN / case["instance"]), "--verify"])
        assert code == 0
        want = json.loads((GOLDEN / case["expected"]).read_text())["result"]["verify"]
        assert json.loads(out)["result"]["verify"] == want

    @pytest.mark.parametrize("n,k", [(12, None), (6, 5)])
    def test_verify_beyond_oracle_limits(self, tmp_path, n, k):
        path = tmp_path / "inst.json"
        argv = ["gen", "--problem", "k-cover", "--p", "1.5", "--n", str(n),
                "--seed", "4", "--out", str(path)]
        if k is not None:
            argv += ["--k", str(k)]
        run_cli(argv)
        code, out = run_cli(["solve", "--in", str(path), "--verify"])
        assert code == 0
        verify = json.loads(out)["result"]["verify"]
        assert verify["ok"] is None
        assert verify["kind"] == "set-partition"
        assert "oracle limited" in verify["reason"]


class TestKCoverCenters:
    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_center_may_leave_the_constraint_stretch(self, tmp_path, p):
        # k-cover centers range over the whole line through the
        # constraint, not over the stretch [0, L] itself
        points = [[-9.0, 1.0], [-7.5, -0.5], [-6.0, 2.0]]
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "problem": "k-cover", "p": p, "constraint": [0, 0, 10, 0],
            "points": points, "k": 1}))
        code, out = run_cli(["solve", "--in", str(path)])
        assert code == 0
        (circle,) = json.loads(out)["result"]["circles"]
        cx, r = circle["center_x"], circle["radius"]
        assert cx < 0.0
        for x, y in points:
            assert (abs(x - cx) ** p + abs(y) ** p) ** (1.0 / p) <= r + 1e-9


class TestPlot:
    def test_unwritable_plot_path(self, tmp_path):
        inst = GOLDEN / "inst_04.json"
        bad = tmp_path / "no_such_dir" / "plot.svg"
        code, _ = run_cli(["solve", "--in", str(inst), "--plot", str(bad)])
        assert code == 4

    @pytest.mark.parametrize("inst,want", [
        ("inst_04.json", "circle"),
        ("inst_07.json", "polygon"),
        ("inst_08.json", "circle"),
        ("inst_10.json", "polygon"),
    ])
    def test_svg_structure(self, tmp_path, inst, want):
        out_svg = tmp_path / "plot.svg"
        code, _ = run_cli(["solve", "--in", str(GOLDEN / inst),
                           "--plot", str(out_svg)])
        assert code == 0
        root = ET.fromstring(out_svg.read_text())
        assert root.tag.endswith("svg")
        assert root.get("viewBox")
        tags = [child.tag.split("}")[-1] for child in root.iter()]
        assert "line" in tags
        assert want in tags


class TestGen:
    @pytest.mark.parametrize("problem", ["one-center", "obnoxious-center", "k-cover"])
    def test_generated_instances_parse(self, problem, tmp_path):
        path = tmp_path / "inst.json"
        code, _ = run_cli(["gen", "--problem", problem, "--n", "4",
                           "--seed", "12", "--out", str(path)])
        assert code == 0
        inst = parse_instance(json.loads(path.read_text()))
        assert inst.problem == problem

    def test_gen_then_solve(self, tmp_path):
        path = tmp_path / "inst.json"
        run_cli(["gen", "--problem", "k-cover", "--n", "6", "--seed", "3",
                 "--k", "2", "--out", str(path)])
        code, out = run_cli(["solve", "--in", str(path)])
        assert code == 0
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize("flag,value", [
        ("--n", "0"), ("--n", "-3"), ("--n", "two"),
        ("--k", "0"),
        ("--length", "0"), ("--length", "-1"), ("--length", "inf"), ("--length", "nan"),
        ("--p", "0.5"), ("--p", "nan"), ("--p", "inf"),
        ("--q", "0.99"), ("--q", "nan"),
    ])
    def test_bad_flag_rejected(self, flag, value, tmp_path, capsys):
        path = tmp_path / "inst.json"
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen", "--problem", "k-cover", flag, value, "--out", str(path)])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not path.exists()

    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["gen", "--problem", "obnoxious-center", "--seed", "5", "--out", str(a)])
        run_cli(["gen", "--problem", "obnoxious-center", "--seed", "5", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestOutFile:
    def test_result_written_to_file(self, tmp_path):
        out = tmp_path / "res.json"
        code, printed = run_cli(["solve", "--in", str(GOLDEN / "inst_01.json"),
                                 "--out", str(out)])
        assert code == 0
        assert printed == ""
        assert json.loads(out.read_text())["ok"] is True


class TestRepeatedCalls:
    def test_no_state_leaks_between_calls(self, capsys):
        # one parser serves every call of main in a process; what one
        # call was given must not reach the next
        argv = ["solve", "--in", str(GOLDEN / "inst_02.json")]
        code, out = run_cli(argv + ["--verify"])
        assert code == 0
        assert "verify" in json.loads(out)["result"]
        code, plain = run_cli(argv)
        assert code == 0
        assert "verify" not in json.loads(plain)["result"]
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--eps", "0"])
        assert exc.value.code == 2
        assert "argument --eps:" in capsys.readouterr().err
        code, again = run_cli(argv)
        assert code == 0
        assert canonical(again) == canonical(plain)


# -- fuzz guard: every input gets one of the documented exit codes ------

_scalars = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4),
    st.integers(-50, 50), st.integers(min_value=10**300, max_value=10**400),
    st.floats(), st.floats(-100.0, 100.0))
_json = st.recursive(
    _scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=8), kids,
                                                             max_size=4),
    max_leaves=12)
_coord = st.one_of(st.integers(-20, 20), st.floats(-100.0, 100.0),
                   st.floats(allow_nan=False, allow_infinity=False))
_FIELDS = ("problem", "p", "constraint", "segments", "points", "k", "q", "agg")


@st.composite
def _instances(draw):
    """A small valid instance, sometimes with one field replaced by junk."""
    problem = draw(st.sampled_from(["one-center", "obnoxious-center", "k-cover"]))
    doc = {"problem": problem,
           "p": draw(st.one_of(st.sampled_from([1, 1.0, 2.0, 3.0]), st.floats(1.0, 8.0))),
           "constraint": draw(st.one_of(
               st.lists(_coord, min_size=4, max_size=4),
               st.floats(0.5, 50.0).map(lambda L: [0, 0, L, 0])))}
    # 24 rows and more take the array routes, the column parse and the pruning
    n = draw(st.one_of(st.integers(1, 6), st.integers(24, 64)))
    if problem == "k-cover":
        doc["points"] = draw(st.lists(st.lists(_coord, min_size=2, max_size=2),
                                      min_size=n, max_size=n))
        doc["k"] = draw(st.one_of(st.none(), st.integers(1, 7)))
        doc["q"] = draw(st.floats(1.0, 4.0))
        doc["agg"] = draw(st.sampled_from(["sum", "max"]))
    else:
        doc["segments"] = draw(st.lists(st.lists(_coord, min_size=4, max_size=4),
                                        min_size=n, max_size=n))
    if draw(st.booleans()):
        doc[draw(st.sampled_from(_FIELDS))] = draw(_json)
    return doc


_flag_text = st.one_of(st.sampled_from(["0", "-1", "nan", "inf", "1e-300", "1e-9",
                                        "0.5", "3", "200", "x", ""]),
                       st.text(max_size=5))
_flags = st.lists(st.one_of(
    st.tuples(st.just("--eps"), _flag_text),
    st.tuples(st.just("--max-iters"), st.one_of(_flag_text, st.integers(-5, 300).map(str))),
    st.tuples(st.just("--method"), st.sampled_from(["binsearch", "envelope", "grid"])),
    st.tuples(st.just("--split"), st.sampled_from(["halves", "one-off", "thirds"])),
    st.tuples(st.just("--lists"), st.sampled_from(["naive", "sweep", "dense"]))),
    max_size=4)


@given(doc=st.one_of(_instances(), _json), flags=_flags)
@settings(max_examples=200, deadline=None)
def test_fuzz_solve_exits_with_a_documented_code(doc, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "inst.json"
        path.write_text(json.dumps(doc))
        argv = ["solve", "--in", str(path)] + [tok for pair in flags for tok in pair]
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
    assert code in (0, 2, 3, 4)
