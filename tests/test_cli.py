import io
import json
import pathlib
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout

import pytest

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
