#!/usr/bin/env python3
"""Capture the reference outputs the benchmark's checks compare against:

    python3 perfbench/capture_reference.py

writes perfbench/reference/study_reference.csv (the study table of
``workloads.REFERENCE_DESIGN``) and perfbench/reference/fit_reference.json
(ML estimates of a fixed set of draws).  Run it only at a commit whose output
is the accepted reference; the files in the repository were captured at the
commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    if not run.import_package():
        return 2
    import workloads
    from fungible import simstudy

    workloads.REFERENCE.mkdir(exist_ok=True)
    table = simstudy.run_design(workloads.design_from_doc(workloads.REFERENCE_DESIGN), threads=1)
    (workloads.REFERENCE / "study_reference.csv").write_text(simstudy.emit_table(table))
    seed = 0
    fits = [workloads.fit_reference_record(seed, coord) for coord in workloads.fit_reference_coords()]
    doc = {"seed": seed, "fits": fits}
    (workloads.REFERENCE / "fit_reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(fits)} reference fits and the reference study table")
    return 0


if __name__ == "__main__":
    sys.exit(main())
