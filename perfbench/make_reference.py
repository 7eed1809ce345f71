"""Regenerate perfbench/reference.json: the values the benchmark checks against.

    python3 perfbench/make_reference.py

Run it only at a commit whose numbers are trusted: the ``trace`` workload
fails any trace whose total cost drifts more than 1e-6 from this table.
It runs ``diskinspect trace`` at every point of the trace start-value grid
(about a minute on two cores).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from diskinspect import cli  # noqa: E402

import workloads  # noqa: E402

#: Published headline values (acceptance criteria 1 and 2).
PUBLISHED = {
    "cost": 3.5492595860809693,
    "cost_7_digits": 3.5492596,
    "tau0": 1.6469768608776936,
    "xi": 0.8119098734258519,
    "clearance": 0.0302318,
}


def main() -> int:
    totals = []
    with tempfile.TemporaryDirectory() as tmp:
        for tau0 in workloads.trace_pool():
            argv = ["--out", tmp, "trace", "--tau0", repr(float(tau0))]
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            if rc != 0:
                print(f"trace failed at tau0={tau0!r} (exit {rc})",
                      file=sys.stderr)
                return 1
            with open(Path(tmp) / "cost.json", encoding="utf-8") as fh:
                totals.append(json.load(fh)["total"])
    reference = {"published": PUBLISHED, "trace_total": totals}
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_FILE} ({len(totals)} trace totals)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
