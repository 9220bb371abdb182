"""The whole-domain verdict map against its ledger.

scripts/domain_ledger.csv lists every cell of scripts/domain_map.py that
exits 1 on correct physics, with the checks it fails and the ROADMAP item
that owns it.  A failing cell that the ledger does not list fails this test,
and so does a listed cell that passes or fails other checks: a fix deletes
its ledger line in the same change.
"""

import contextlib
import csv
import io
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _read(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_domain_map_matches_its_ledger(tmp_path, monkeypatch):
    out = tmp_path / "map.csv"
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / "domain_map.py"), "--out", str(out)])
    with contextlib.redirect_stderr(io.StringIO()):
        runpy.run_path(str(SCRIPTS / "domain_map.py"), run_name="__main__")
    cells = _read(out)
    assert len(cells) == 208 and {c["exit_status"] for c in cells} <= {"0", "1"}
    failing = {(c["command"], c["arguments"]): c["failed_checks"]
               for c in cells if c["exit_status"] != "0"}
    assert all(failing.values())
    ledger = _read(SCRIPTS / "domain_ledger.csv")
    assert all(row["roadmap_item"] for row in ledger)
    listed = {(row["command"], row["arguments"]): row["failed_checks"] for row in ledger}
    assert len(listed) == len(ledger)
    unlisted = sorted(set(failing.items()) - set(listed.items()))
    not_failing = sorted(set(listed.items()) - set(failing.items()))
    assert not unlisted, f"failing cells the ledger does not list: {unlisted}"
    assert not not_failing, f"ledger cells that pass or fail other checks: {not_failing}"
