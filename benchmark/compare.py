#!/usr/bin/env python3
"""A/B comparison of two sets of benchmark results (parent vs change).

    python3 benchmark/compare.py RESULTS/parent RESULTS/change

Each directory holds one file per untraced run: the stdout of
`python3 benchmark/run.py ... --trace 0`. A file's workload and seed come
from its `workload <name> seed <n> ...` line and its metrics from its last
line. Runs pair up by (workload, seed), so run both sides on the same
seeds, alternating which side runs first. Traced runs are skipped.

For every (end-to-end metric, workload) the verdict is:

  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  unresolved  fewer than 10 pairs, or the parent's own spread (IQR / median)
              exceeds the metric's bound and the change does not beat every
              parent run with every one of its runs;
  worse       the change's median is worse than the parent's by more than
              the metric's bound (BENCHMARK.json);
  unchanged   otherwise.

It also prints each side's failure share and whether the simulated work
(combined digests) was identical pair by pair. The exit code is 1 when
any verdict is `worse`, else 0.
"""

import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_side(directory):
    """Maps (workload, seed) to (digest, result) for every untraced run."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [l.rstrip("\n") for l in f if l.strip()]
        header = next((l.split() for l in lines if l.startswith("workload ")), None)
        if header is None:
            continue  # not a benchmark run's output
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(f"skipping {path}: last line is not a result", file=sys.stderr)
            continue
        if any(l.startswith("traced_combined_digest") for l in lines):
            continue
        fields = dict(zip(header[0::2], header[1::2]))
        runs[(fields["workload"], int(fields["seed"]))] = (fields.get("combined_digest"), result)
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def verdict(parent, change, bound, lower_is_better):
    n = len(parent)
    if n < MIN_PAIRS:
        return "unresolved", 0
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    if wins >= WIN_SHARE * n and sign * (pm - cm) > iqr:
        return "improved", wins
    spread = iqr / abs(pm) if pm else 0.0
    dominates = all(sign * (p - c) > 0 for p in parent for c in change)
    if spread > bound and not dominates:
        return "unresolved", wins
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    if worse_by > bound:
        return "worse", wins
    return "unchanged", wins


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    sides = [load_side(d) for d in sys.argv[1:]]
    workloads = [w["name"] for w in spec["workloads"]]
    any_worse = False
    for w in workloads:
        seeds = sorted(s for (wl, s) in sides[0] if wl == w and (wl, s) in sides[1])
        if not seeds:
            continue
        pairs = [(sides[0][(w, s)], sides[1][(w, s)]) for s in seeds]
        same = sum(1 for (pd, _), (cd, _) in pairs if pd == cd)
        print(f"== {w}: {len(seeds)} pairs, combined digests identical in {same}")
        for label, i in (("parent", 0), ("change", 1)):
            att = sum(p[i][1]["attempted"] for p in pairs)
            bad = sum(p[i][1]["failed"] for p in pairs)
            incorrect = sum(1 for p in pairs if not p[i][1]["correct"])
            print(f"   {label}: failed {bad}/{att} jobs ({bad / max(att, 1):.4%}), "
                  f"{incorrect} run(s) not correct")
        for m in spec["end_to_end"]:
            name = m["name"]
            parent = [p[0][1]["metrics"][name]["value"] for p in pairs]
            change = [p[1][1]["metrics"][name]["value"] for p in pairs]
            v, wins = verdict(parent, change, m["bound"], m["better"] == "lower")
            any_worse |= v == "worse"
            pq, cq = quartiles(parent), quartiles(change)
            print(f"   {name:<16} parent {statistics.median(parent):.6g} "
                  f"[{pq[0]:.6g}, {pq[1]:.6g}]  change {statistics.median(change):.6g} "
                  f"[{cq[0]:.6g}, {cq[1]:.6g}] {m['unit']}  wins {wins}/{len(pairs)}  "
                  f"bound {m['bound']:.0%}  -> {v}")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
