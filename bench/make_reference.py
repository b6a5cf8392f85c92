"""Write bench/reference.json: the answer digest of every op any seed can run.

Run from the repository root, only when an answer is meant to change:

    python3 bench/make_reference.py

Table workloads are keyed by the ideal's roots, over every table a pass can
hold (the suite plus every capped two-Borel pair), so any seed is covered.
"""

from __future__ import annotations

import json
import sys

import run


def universe_tables(bf) -> list:
    """Every table any seed can put into a pass: the suite and all capped pairs."""
    inst = bf["instances"]
    tables = {run.table_key(t): t for t in inst.suite_tables(cap=run.SUITE_CAP)}
    for n in (3, 4):
        for d in range(2, 6):
            for M, N in inst.borel_incomparable_pairs(n, d):
                t = bf["borel"].build_two_borel(M, N)
                if len(t.generators) <= run.MAX_RANDOM_GENERATORS:
                    tables.setdefault(run.table_key(t), t)
    return list(tables.values())


def main() -> int:
    reference = {}
    for workload, (_, op, answer, _) in run.WORKLOADS.items():
        digests = {}
        bf = run.fresh_import()
        if workload == "scale":
            items = list({" ".join(argv): argv for argv in run.SCALE_ARGVS}.values())
        else:
            items = universe_tables(bf)
        for item in items:
            if workload == "scale":
                bf = run.fresh_import()
            key, ans, problems = answer(bf, item, op(bf, item))
            if problems:
                print(f"{workload} {key}: {problems}", file=sys.stderr)
                return 1
            digests[key] = run.digest(ans)
        reference[workload] = dict(sorted(digests.items()))
        print(f"{workload}: {len(digests)} answers", flush=True)
    run.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
