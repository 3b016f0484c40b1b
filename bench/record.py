#!/usr/bin/env python3
"""Record the reference reports that ``run.py`` compares jobs with.

    python3 bench/record.py

Every run of ``run.py`` leaves the content digests of the reports that
passed their checks in ``bench/.work/digests/``.  This script merges them
into ``bench/reference.json``, keyed by workload, seed and job.  Two runs
that disagree on a job's report stop it with an error, since the program
is deterministic for fixed inputs.  Run it only after runs of a commit
whose outputs are known to be right.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS, REFERENCE


def main() -> int:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    added = 0
    for path in sorted(DIGESTS.glob("*.json")):
        workload, seed, _pid, _ = path.name.split(".")
        recorded = reference.setdefault(workload, {}).setdefault(seed, {})
        for key, digest in json.loads(path.read_text()).items():
            if recorded.setdefault(key, digest) != digest:
                print(f"error: {workload} seed {seed} {key}: reports differ", file=sys.stderr)
                return 1
            added += 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"merged {added} digests into {REFERENCE.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
