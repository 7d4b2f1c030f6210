#!/usr/bin/env python3
"""Summarise one set of servebench runs, or compare a parent set with a change set.

Each set is a directory of files, each holding the standard output of one
run (the "# servebench workload=... seed=..." header and the final JSON
line). Traced runs are skipped. Bounds and directions come from
BENCHMARK.json next to this directory.

    python3 servebench/compare.py RUNS_DIR
    python3 servebench/compare.py PARENT_DIR CHANGE_DIR

With one set it prints, per workload and end-to-end metric, the median,
quartiles and spread (interquartile distance over the median) against the
metric's bound. With two sets it prints each side's median and quartiles,
the share of seed-paired runs the change wins (ties count for neither), and
a verdict:

  regression  the change's median is worse than the parent's by more than
              the bound
  unresolved  the parent's own spread is wider than the bound, and not every
              change run beats every parent run
  gain        the change wins at least 9 in 10 of at least ten pairs, and the
              medians differ by more than the parent's interquartile distance;
              with fewer pairs such a result reads unresolved
  same        none of the above
"""
import json
import os
import re
import statistics
import sys

HEADER = re.compile(r"^# servebench workload=(\S+) seed=(-?\d+) .*trace=(\d)")


def load(directory):
    """Return {workload: {seed: metrics}} for the untraced runs in directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        head = next((HEADER.match(l) for l in lines if HEADER.match(l)), None)
        if head is None or head.group(3) != "0":
            continue
        try:
            res = json.loads(lines[-1])
        except (ValueError, IndexError):
            print(f"skipping {path}: no result line", file=sys.stderr)
            continue
        if not res.get("correct") or res.get("failed"):
            print(f"warning: {path}: correct={res.get('correct')} failed={res.get('failed')}", file=sys.stderr)
        metrics = {k: v["value"] for k, v in res["metrics"].items()}
        runs.setdefault(head.group(1), {})[int(head.group(2))] = metrics
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse(a, b, better):
    """How much worse b is than a, as a share of a (negative: b is better)."""
    if a == 0:
        return 0.0
    d = (b - a) / abs(a)
    return d if better == "lower" else -d


def summarise(spec, runs):
    print(f"{'workload':<14} {'metric':<18} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  status")
    for wl in sorted(runs):
        for m in spec:
            vals = [r[m["name"]] for r in runs[wl].values() if m["name"] in r]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            status = "ok" if spread <= m["bound"] else "TOO NOISY"
            if spread < m["bound"] / 3:
                status = "steady"
            print(f"{wl:<14} {m['name']:<18} {len(vals):>3} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>7.3f} {m['bound']:>6.2f}  {status}")


def compare(spec, parent, change):
    print(f"{'workload':<14} {'metric':<18} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} {'worse':>7} {'wins':>9}  verdict")
    for wl in sorted(set(parent) & set(change)):
        # Runs pair by seed; sets run on different seeds pair in seed order.
        common = sorted(set(parent[wl]) & set(change[wl]))
        pairs = [(s, s) for s in common] or list(zip(sorted(parent[wl]), sorted(change[wl])))
        for m in spec:
            name, better, bound = m["name"], m["better"], m["bound"]
            pv = [r[name] for r in parent[wl].values() if name in r]
            cv = [r[name] for r in change[wl].values() if name in r]
            if not pv or not cv:
                continue
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            wins = sum(1 for p, c in pairs if worse(parent[wl][p][name], change[wl][c][name], better) < 0)
            share = wins / len(pairs) if pairs else 0.0
            w = worse(pmed, cmed, better)
            spread = (pq3 - pq1) / pmed if pmed else 0.0
            all_better = all(worse(p, c, better) < 0 for p in pv for c in cv)
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif w > bound:
                verdict = "REGRESSION"
            elif share >= 0.9 and abs(cmed - pmed) > (pq3 - pq1):
                verdict = "gain" if len(pairs) >= 10 else "unresolved"
            else:
                verdict = "same"
            print(f"{wl:<14} {name:<18} {pmed:>12.4f} [{pq1:>10.4f}, {pq3:>10.4f}] {cmed:>12.4f} [{cq1:>10.4f}, {cq3:>10.4f}] {w:>+7.3f} {wins:>3}/{len(pairs):<3}  {verdict}")


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)["end_to_end"]
    sets = [load(d) for d in argv[1:]]
    if len(sets) == 1:
        summarise(spec, sets[0])
    else:
        compare(spec, *sets)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
