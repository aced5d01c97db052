"""Reports of a few fast queries, byte for byte, apart from `timings`.

Each file under tests/golden is the `--json` report of the query in its
own `command` field, with `timings` removed.  A refactor that changes
any other byte of these reports changes behaviour.
"""

import io
import json
import pathlib

import pytest

from hopfgal.cli import main

GOLDEN = sorted((pathlib.Path(__file__).parent / "golden").glob("*.json"))


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_report_matches_golden(capsys, path):
    want = path.read_text()
    argv = json.loads(want)["command"]
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == (0 if report["ok"] else 1)
    del report["timings"]
    got = io.StringIO()
    json.dump(report, got, indent=2, sort_keys=True)
    got.write("\n")
    assert got.getvalue() == want
