"""Compare two benchmark records metric by metric.

Usage: python3 perfbench/compare.py BEFORE.json AFTER.json

Records are the files run.py writes to perfbench/results/. Records made
on different kernel paths (numba against numpy), workloads or trace modes
measure different programs, so they are refused with exit code 2.
"""

import json
import sys

MUST_MATCH = ("using_numba", "workload", "trace", "smoke")


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path) as fh:
            records.append(json.load(fh))
    before, after = records
    for key in MUST_MATCH:
        if before["stamp"][key] != after["stamp"][key]:
            print(
                f"refusing to compare: {key} is {before['stamp'][key]!r} "
                f"against {after['stamp'][key]!r}",
                file=sys.stderr,
            )
            return 2
    print(f"before {before['stamp']['commit']} seed {before['stamp']['seed']}")
    print(f"after  {after['stamp']['commit']} seed {after['stamp']['seed']}")
    for name, b in before["metrics"].items():
        a = after["metrics"].get(name)
        if a is None:
            print(f"{name:40s} {b['value']:12.6g} {'(gone)':>12s} {b['unit']}")
            continue
        change = f"{a['value'] / b['value'] - 1:+.1%}" if b["value"] else "n/a"
        print(f"{name:40s} {b['value']:12.6g} {a['value']:12.6g} {b['unit']:8s} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
