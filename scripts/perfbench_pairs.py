#!/usr/bin/env python3
"""Alternating perfbench pairs: a revision against the working tree.

Usage, from anywhere in the repository:

    scripts/perfbench_pairs.py <rev> --workload W --seeds A-B [--seconds S]
                               [--trace 0|1] [--work DIR]

Exports <rev> with `git archive` into a work directory and runs
perfbench/run.py from that export (the parent side) and from the working
tree (the change side), each with its own CARGO_TARGET_DIR, once per seed
in A..B. Which side runs first alternates seed by seed, so a host that
speeds up or slows down over the session favours neither side.

For every metric that BENCHMARK.json lists (its end-to-end metrics, or its
per-layer ones with --trace 1) the script prints each side's median with
its quartiles, the change of the medians in percent, and the pairs the
change won (better by the metric's direction, same seed). An end-to-end
metric whose quartiles, on either side, lie further apart than its
BENCHMARK.json bound times the parent's median is marked `spread`: runs
that scattered that widely cannot show a change of that size. It exits 1
when any run failed or printed `correct` other than true, 2 on a usage or
build error, and 0 otherwise.

--work DIR keeps the export and both build trees in DIR, so a later call
with the same DIR rebuilds incrementally; without it they live in a
temporary directory that is removed at exit. This is a development tool,
not a CI gate.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    first, _, last = text.partition("-")
    first = int(first)
    last = int(last) if last else first
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range {text}")
    return list(range(first, last + 1))


def export(rev, dest):
    """Writes <rev>'s tree into dest (emptied first)."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    return archive.wait() == 0 and untar.returncode == 0


def run(tree, target_dir, workload, seed, seconds, trace):
    """One perfbench run; returns (result dict or None, exit code)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return result, proc.returncode


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    work = args.work or tempfile.mkdtemp(prefix="gpssn-pairs.")
    try:
        base = os.path.join(work, "base")
        if not export(args.rev, base):
            print(f"pairs: cannot export {args.rev}", file=sys.stderr)
            return 2
        sides = {
            "parent": (base, os.path.join(work, "target-base")),
            "change": (ROOT, os.path.join(work, "target-change")),
        }
        values = {side: {m["name"]: [] for m in metrics} for side in sides}
        runs = {side: [] for side in sides}
        ok = True
        for i, seed in enumerate(args.seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change",
                                                             "parent"]
            for side in order:
                tree, target = sides[side]
                result, code = run(tree, target, args.workload, seed,
                                   args.seconds, args.trace)
                if result is None and code == 2:
                    print(f"pairs: {side} build failed", file=sys.stderr)
                    return 2
                correct = result is not None and result.get("correct") is True
                failed = None if result is None else result.get("failed")
                print(f"seed {seed} {side}: exit {code}, correct "
                      f"{'true' if correct else 'false'}, failed {failed}",
                      file=sys.stderr)
                ok = ok and correct and code == 0
                got = {} if result is None else result.get("metrics", {})
                runs[side].append(got)
        for side in sides:
            for got in runs[side]:
                for m in metrics:
                    if m["name"] in got:
                        values[side][m["name"]].append(
                            got[m["name"]]["value"])

        print(f"{args.workload}, {args.rev} -> working tree, seeds "
              f"{args.seeds[0]}-{args.seeds[-1]}, {args.seconds:g} s, "
              f"trace {args.trace}")
        print(f"{'metric':<24} {'parent median [q1-q3]':>27} "
              f"{'change median [q1-q3]':>27} {'change %':>9} {'won':>6}")
        for m in metrics:
            name = m["name"]
            parent = values["parent"][name]
            change = values["change"][name]
            pairs = list(zip(parent, change))
            if not pairs:
                continue
            q1, med, q3 = quartiles(parent)
            c1, new, c3 = quartiles(change)
            pct = 100.0 * (new - med) / med if med else float("nan")
            lower = m.get("better") == "lower"
            won = sum(1 for p, c in pairs if (c < p if lower else c > p))
            parent_text = f"{med:.4g} [{q1:.4g}-{q3:.4g}]"
            change_text = f"{new:.4g} [{c1:.4g}-{c3:.4g}]"
            allowed = m.get("bound", float("inf")) * abs(med)
            wide = max(q3 - q1, c3 - c1) > allowed
            print(f"{name:<24} {parent_text:>27} {change_text:>27} "
                  f"{pct:>+8.1f}% {won:>3}/{len(pairs)}"
                  f"{'  spread' if wide else ''}")
        if not ok:
            print("pairs: a run failed or was not correct", file=sys.stderr)
        return 0 if ok else 1
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
