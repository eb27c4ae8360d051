"""CLI artifacts stay byte-identical to the committed goldens.

Each case runs ``fairshift.cli.main`` in-process into a fresh directory
and compares every file it writes, its exit code and its stdout (with the
output directory replaced by ``<out>``) against ``tests/golden/<case>/``.
Spec paths are given relative to the repository root, which is where the
cases run, so the reports do not depend on where the checkout lives.

After an intended output change, regenerate the goldens with

    PYTHONPATH=src python tests/test_golden.py --regen
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import pathlib
import re
import sys
import tempfile

import pytest

from fairshift import cli, recurrence
from fairshift.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
ROOT = GOLDEN.parent.parent
REDUCIBLE = "tests/golden/specs/split.json"
STDOUT = "stdout.txt"

CASES: dict[str, list[str]] = {}
for _name in ("unbiased-walk", "biased-walk", "origin-broadcast",
              "factorial-chain", "five-three"):
    CASES[f"analyze-{_name}"] = ["analyze", _name]
    CASES[f"verify-{_name}"] = ["verify", _name]
    CASES[f"classify-{_name}"] = ["classify", _name, "--trials", "2000"]
for _name in ("origin-broadcast", "factorial-chain", "unbiased-walk"):
    CASES[f"simulate-{_name}"] = ["simulate", _name, "--length", "2000",
                                  "--paths", "2"]
# the stepping sampler on a domain unbounded both ways: origin-broadcast
# and the factorial chain live on half-lines, the unbiased walk takes the
# one-pass draw
CASES["simulate-five-three"] = ["simulate", "five-three", "--length", "20000",
                                "--seed", "3"]
# 10000 rows cross the CSV writer's row-chunk boundaries
CASES["simulate-factorial-chain-long"] = ["simulate", "factorial-chain",
                                          "--length", "10000", "--paths", "2",
                                          "--depth", "2"]
# a running geometric mean that is exactly 2.0 over three row chunks
CASES["simulate-origin-broadcast-long"] = ["simulate", "origin-broadcast",
                                           "--length", "10000", "--paths", "1"]
CASES["fairmodel-tent"] = ["fairmodel", "--map-family", "tent"]
CASES["fairmodel-staircase"] = ["fairmodel", "--map-family", "staircase",
                                "--depth", "1"]
CASES["fairmodel-staircase-depth-2"] = ["fairmodel", "--map-family",
                                        "staircase"]
CASES["fairmodel-staircase-depth-3"] = ["fairmodel", "--map-family",
                                        "staircase", "--depth", "3"]
CASES["graph-dendrite-4"] = ["graph", "--family", "dendrite", "--window", "4"]
CASES["graph-dendrite-8"] = ["graph", "--family", "dendrite", "--window", "8"]
CASES["analyze-reducible"] = ["analyze", REDUCIBLE]
CASES["verify-reducible"] = ["verify", REDUCIBLE]


def run_case(argv: list[str], out: pathlib.Path) -> dict[str, bytes]:
    """Every artifact of one run, plus its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    stdout = buf.getvalue().replace(str(out), "<out>")
    files[STDOUT] = f"exit {code}\n{stdout}".encode()
    return files


def read_golden(case: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((GOLDEN / case).iterdir())}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    got = run_case(CASES[case], tmp_path)
    want = read_golden(case)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"{case}/{name} differs"


def test_each_golden_exit_code_is_the_code_of_its_verdict():
    # reads the committed reports only: the report a command writes is
    # <command>.json, and simulate's has no verdict
    for case in sorted(CASES):
        report = json.loads((GOLDEN / case / f"{CASES[case][0]}.json")
                            .read_text())
        code = (GOLDEN / case / STDOUT).read_text().splitlines()[0]
        assert f"exit {cli.EXIT[report.get('verdict')]}" == code, case


def test_every_classify_verdict_has_an_exit_code():
    returned = re.findall(r'verdict = "([^"]+)"',
                          inspect.getsource(recurrence.classify))
    assert sorted(returned) == ["null-recurrent", "positive-recurrent",
                                "transient", "unknown"]
    assert set(returned) <= set(cli.EXIT)


def regenerate() -> None:
    os.chdir(ROOT)
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(argv, pathlib.Path(tmp))
        target = GOLDEN / case
        target.mkdir(parents=True, exist_ok=True)
        for old in target.iterdir():
            old.unlink()
        for name, data in files.items():
            (target / name).write_bytes(data)
        print(case)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_golden.py --regen")
    regenerate()
