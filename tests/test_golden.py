"""Byte-for-byte regression against stored CLI outputs.

``tests/data/golden/cases.json`` lists each command (``{data}`` stands for the
data directory), its exit code and the file holding its expected output.  The
outputs were produced by an earlier exkit, so a refactor that changes any
certificate, class listing or size report byte shows up here.
"""

import json
from pathlib import Path

import pytest

from exkit.cli import main

DATA = Path(__file__).parent / "data" / "golden"
CASES = json.loads((DATA / "cases.json").read_text())
CERTIFICATES = [c["output"] for c in CASES if c["argv"][0] in ("certify", "conditional")]


@pytest.mark.parametrize("case", CASES, ids=[c["output"] for c in CASES])
def test_output_bytes_unchanged(case, tmp_path, capsys):
    out = tmp_path / case["output"]
    argv = [a.replace("{data}", str(DATA)) for a in case["argv"]]
    assert main(argv + ["--output", str(out)]) == case["exit"]
    assert out.read_bytes() == (DATA / case["output"]).read_bytes()


@pytest.mark.parametrize("name", CERTIFICATES)
def test_stored_certificate_verifies(name, capsys):
    assert main(["certify", str(DATA / name), "--verify"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True
