"""The kill matrix of named mutants of the package under the tier-1 suite.

    python3 tools/mutants.py LIST.json [pytest args]

LIST.json is a JSON list of mutants, each an object {"name", "file",
"old", "new"}: the mutant replaces the one occurrence of the string old
in file (a path from the repository root) by new. The lists of past
audits are under tools/mutants/.

Every mutant runs in its own copy of the tree: src/, tests/, bench/,
tools/, BENCHMARK.json and pyproject.toml go to a temporary directory,
which is deleted afterwards, so the checkout itself is never mutated.
The suite runs there as tier-1 runs it,

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors [pytest args]

with LINEPLACE_MUTANT set to the mutant's name (unset for the
unmutated copy), which tests/test_tools.py reads to expect that mutant
applied; a mutant's killing tests are those that fail or error. First
the unmutated copy runs the same command; the script exits 2, before
that run, when some mutant's old string does not occur exactly once in
its file, and after it when the unmutated copy does not pass. Then
os.cpu_count() mutants run at a time. A mutant whose run outlasts
max(600 s, 5 times the unmutated run) is stopped, and its killing test
is the id "<timeout>".

It prints one JSON line per mutant, in the order of the list: its name,
file and the sorted ids of its killing tests. The last line is one JSON
record of the run: the commit of the checkout (null outside a git
checkout), the Python and numpy versions, the pytest args, the number
of tests the unmutated copy passed, and the names of the mutants no
test kills (the survivors). It exits 0 once every mutant has run.
"""

from __future__ import annotations

import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREE = ("src", "tests", "bench", "tools", "BENCHMARK.json", "pyproject.toml")
IGNORE = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", ".bench_out",
                                "svg")
TIMEOUT = "<timeout>"


def copy_tree(dest: Path) -> None:
    for part in TREE:
        src = ROOT / part
        if src.is_dir():
            shutil.copytree(src, dest / part, ignore=IGNORE)
        else:
            shutil.copy(src, dest / part)


def run_suite(root: Path, args: list, timeout: float | None, mutant: str | None = None):
    """(failing ids, passed count, seconds) of the suite in root with the
    named mutant applied; the ids are [TIMEOUT] when it outlasts
    timeout."""
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("LINEPLACE_MUTANT", None)
    if mutant is not None:
        env["LINEPLACE_MUTANT"] = mutant
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                             *args, "-rfE"],
                            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # the suite starts subprocesses of its own: stop the whole group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return [TIMEOUT], 0, time.monotonic() - start
    seconds = time.monotonic() - start
    failed = set()
    for line in out.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            failed.add(line.split(" ", 1)[1].split(" - ", 1)[0])
    if proc.returncode not in (0, 1) and not failed:
        # a suite that stops with no failing test, as on a usage error
        failed.add(f"<exit {proc.returncode}>")
    passed = re.search(r"(\d+) passed", out.splitlines()[-1] if out.strip() else "")
    return sorted(failed), int(passed.group(1)) if passed else 0, seconds


def run_mutant(mutant: dict, args: list, timeout: float) -> dict:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        copy_tree(root)
        path = root / mutant["file"]
        path.write_text(path.read_text().replace(mutant["old"], mutant["new"], 1))
        killed = run_suite(root, args, timeout, mutant["name"])[0]
    return {"name": mutant["name"], "file": mutant["file"], "killed": killed}


def commit() -> str | None:
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 and (ROOT / ".git").exists() else None


def main(argv: list) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 2
    mutants = json.loads(Path(argv[0]).read_text())
    args = argv[1:]
    for m in mutants:
        found = (ROOT / m["file"]).read_text().count(m["old"])
        if found != 1:
            print(f"mutant {m['name']}: its old string occurs {found} times in {m['file']}",
                  file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="unmutated-") as tmp:
        copy_tree(Path(tmp))
        failed, passed, seconds = run_suite(Path(tmp), args, None)
    if failed:
        print("the unmutated copy fails: " + ", ".join(failed), file=sys.stderr)
        return 2
    timeout = max(600.0, 5.0 * seconds)
    survivors = []
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for row in pool.map(lambda m: run_mutant(m, args, timeout), mutants):
            print(json.dumps(row), flush=True)
            if not row["killed"]:
                survivors.append(row["name"])
    print(json.dumps({"commit": commit(), "python": platform.python_version(),
                      "numpy": metadata.version("numpy"), "pytest_args": args, "passed": passed,
                      "survivors": survivors}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
