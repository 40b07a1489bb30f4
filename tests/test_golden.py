"""Byte-for-byte CLI snapshots: stdout and exit code of 70 commands.

The golden file pins the behaviour contract across refactors. Regenerate it
only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from superext import cli
from superext.engine import catalog_specs

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_outputs.json"


def golden_commands() -> list[list[str]]:
    commands = []
    for spec in catalog_specs():
        commands.append(["analyze", spec, "--json"])
        commands.append(["analyze", spec])
    commands += [["table"], ["table", "--json"]]
    commands += [["analyze", spec, "--brute", "--json"] for spec in ("C4", "C2xC2", "D6")]
    commands.append(["mls-count", "C5"])
    return commands


def run(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def test_cli_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [g["argv"] for g in golden] == golden_commands()
    for want in golden:
        assert run(want["argv"]) == want, " ".join(want["argv"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    records = [run(argv) for argv in golden_commands()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}")
