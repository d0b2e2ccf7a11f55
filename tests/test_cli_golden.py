"""Exact replay of the command line against recorded output.

tests/data/golden_cli.jsonl holds one JSON object per command, in the
order `commands()` yields them:

    args    the command line after `sepstore`; `-` reads the script from
            `input`
    input   the script text fed on stdin, for a one-node script
    exit    the exit code
    lines   the `--json` result lines, each without its `millis` field

The commands are `check --json` of each file in `proofs/`, `check --json`
of each name of the negative registry (logic.REJECTED) as the one-node
script `(rule NAME (conclude "true"))`, and `counterexamples --json` on the
default config.  So any change of a verdict, exit code, goal text, failure
message, per-rule count or witness shows.

Regenerate (only when a change of the recorded output is intended):

    PYTHONPATH=src:tests python tests/test_cli_golden.py --record
"""

import json
import sys
from pathlib import Path

from click.testing import CliRunner

from sepstore.cli import main
from sepstore.logic import REJECTED

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "golden_cli.jsonl"


def commands():
    for path in sorted((ROOT / "proofs").glob("*.proof")):
        yield ["check", "--json", f"proofs/{path.name}"], None
    for name in sorted(REJECTED):
        yield ["check", "--json", "-"], f'(rule {name} (conclude "true"))'
    yield ["counterexamples", "--json"], None


def record(args, text):
    # a path is named relative to the root of the checkout
    argv = [str(ROOT / a) if a.startswith("proofs/") else a for a in args]
    result = CliRunner().invoke(main, argv, input=text)
    lines = [json.loads(line) for line in result.stdout.splitlines() if line]
    for line in lines:
        del line["millis"]
    return {"args": args, "input": text, "exit": result.exit_code,
            "lines": lines}


def test_cli_matches_recorded_output():
    recorded = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    replayed = [record(*command) for command in commands()]
    assert len(replayed) == len(recorded) == 3 + len(REJECTED) + 1
    for old, new in zip(recorded, replayed):
        assert new == old, " ".join(old["args"])


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    with open(CORPUS, "w") as fh:
        for command in commands():
            fh.write(json.dumps(record(*command)) + "\n")
