#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

Each input file holds the stdout of one ``bench/run.py`` run: the record
line (environment and samples) followed by the result line.

    python3 bench/compare.py base/*.out --against change/*.out

For every workload and end-to-end metric this prints both sides' medians and
quartiles, the change of the median as a share of the base median, the bound
from BENCHMARK.json and a verdict: ``worse`` when the median moved the wrong
way by more than the bound, ``unresolved`` when the base runs' own spread
exceeds the bound, ``ok`` otherwise.  Runs whose ``somgmm.BACKEND`` differ
are not comparable: the script refuses them and exits 2.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_run(path):
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: expected a record line and a result line")
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def group(paths):
    """workload -> metric -> values, plus the set of backends seen."""
    by_workload = defaultdict(lambda: defaultdict(list))
    failed = defaultdict(list)
    backends = set()
    for path in paths:
        record, result = load_run(path)
        backends.add(record["env"]["somgmm.BACKEND"])
        failed[record["workload"]].append(result["failed"])
        for name, metric in result["metrics"].items():
            by_workload[record["workload"]][name].append(metric["value"])
    return by_workload, failed, backends


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("base", nargs="+")
    p.add_argument("--against", nargs="+", required=True)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base, base_failed, base_backends = group(args.base)
    new, new_failed, new_backends = group(args.against)
    backends = base_backends | new_backends
    if len(backends) != 1:
        print(f"refusing to compare runs of different backends: {sorted(backends)}",
              file=sys.stderr)
        return 2

    print(f"backend {backends.pop()}")
    for workload in sorted(set(base) & set(new)):
        print(f"\n{workload}  failed: base {base_failed[workload]} "
              f"change {new_failed[workload]}")
        for name, m in metrics.items():
            if name not in base[workload] or name not in new[workload]:
                continue
            b1, bmed, b3 = quartiles(base[workload][name])
            n1, nmed, n3 = quartiles(new[workload][name])
            change = (nmed - bmed) / bmed
            worse = -change if m["better"] == "higher" else change
            spread = (b3 - b1) / bmed
            verdict = ("worse" if worse > m["bound"]
                       else "unresolved" if spread > m["bound"] else "ok")
            print(f"  {name:20s} base {bmed:.5g} [{b1:.5g}, {b3:.5g}]  "
                  f"change {nmed:.5g} [{n1:.5g}, {n3:.5g}]  {change:+.1%}  "
                  f"bound {m['bound']:.0%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
