#!/usr/bin/env python3
"""Compares the per-instance records of two benchmark outputs.

    python3 perfbench/compare.py before.txt after.txt

Each file is the standard output of one ``run.py`` run.  For every instance
seed both runs completed, the report digest, the witness class and (for
traced runs) the exact work counts must be identical; any difference is
printed and the exit code is 1.  Runs with the same workload and ``--seed``
see the same instances, so two runs of one commit must agree, and a change
that claims less work shows here as a count difference.
"""
import json
import sys


def records(path):
    for line in open(path):
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
            by_seed = {}
            for rec in detail["instances"]:
                by_seed.setdefault(rec["seed"], []).append(rec)
            return detail["workload"], by_seed
    raise SystemExit(f"{path}: no detail line")


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    (wa, a), (wb, b) = records(argv[0]), records(argv[1])
    if wa != wb:
        raise SystemExit(f"different workloads: {wa} and {wb}")
    differences = 0
    common = sorted(set(a) & set(b))
    for seed in common:
        for field in ("digest", "witness", "counts"):
            seen = {json.dumps(r[field], sort_keys=True)
                    for r in a[seed] + b[seed] if r.get(field) is not None}
            if len(seen) > 1:
                differences += 1
                print(f"seed {seed}: {field} differs: {sorted(seen)}")
    print(f"{wa}: {len(common)} common instances, {differences} differences")
    return 1 if differences or not common else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
