#!/usr/bin/env python3
"""A/B-compare the working tree against a base revision on perfbench.

Usage (from the repository root):
    python3 tools/perf_ab.py --base REV --workload W [--pairs N] [--seconds S]
    python3 tools/perf_ab.py --self-test

Exports REV with `git archive` under .bench_build/ab/<sha>/, builds it
and the working tree through their own perfbench/run.py, then runs N
interleaved pairs, alternating which side goes first. For every
end-to-end metric that BENCHMARK.json lists it prints the parent's
median and quartiles, the change's median, the change/parent ratio of
the medians, and how many pairs the change won (ties count for
neither side). A metric is marked "gain" when the change wins at least
nine tenths of the pairs and the medians differ, in the better
direction, by more than the parent's quartile spread.

Exits 1 if any run reports "correct": false, 2 if a run fails outright.
"""

import argparse
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------

def quantile(xs, q):
    """Linear-interpolation quantile of @p xs (numpy's default)."""
    s = sorted(xs)
    if not s:
        raise ValueError("quantile of no samples")
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def wins(parent, change, better):
    """Pairs in which the change beats the parent; ties count for neither."""
    sign = 1 if better == "higher" else -1
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def summarize(parent, change, better):
    """The comparison row for one metric over paired runs."""
    q1, med, q3 = (quantile(parent, q) for q in (0.25, 0.5, 0.75))
    c_med = quantile(change, 0.5)
    won = wins(parent, change, better)
    gain_by = (c_med - med) if better == "higher" else (med - c_med)
    return {
        "parent_median": med,
        "parent_q1": q1,
        "parent_q3": q3,
        "change_median": c_med,
        "ratio": c_med / med if med else float("nan"),
        "wins": won,
        "pairs": len(parent),
        "gain": 10 * won >= 9 * len(parent) and gain_by > q3 - q1,
    }


# ---------------------------------------------------------------------
# Running perfbench
# ---------------------------------------------------------------------

def parse_result(stdout):
    """The result JSON: the last line of perfbench's stdout."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    return json.loads(lines[-1])


def export(rev):
    """Unpack @p rev under .bench_build/ab/<sha>/ once; return the dir."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout.strip()
    tree = os.path.join(ROOT, ".bench_build", "ab", sha)
    done = os.path.join(tree, ".exported")
    if not os.path.exists(done):
        data = subprocess.run(["git", "archive", "--format=tar", sha],
                              cwd=ROOT, check=True,
                              capture_output=True).stdout
        os.makedirs(tree, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(data)) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(tree, filter="data")
            else:
                tar.extractall(tree)
        open(done, "w").close()
    return tree


def build(tree):
    """Build @p tree's benchmark with its own perfbench/run.py."""
    path = os.path.join(tree, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod.build()


def run(tree, workload, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0 and not out.stdout.strip():
        sys.stderr.write(out.stderr)
        raise RuntimeError("perfbench failed in %s (exit %d)"
                           % (tree, out.returncode))
    return parse_result(out.stdout)


def end_to_end_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench.get("run_seconds", 10)


def fmt(x):
    return "%.4g" % x


def compare(args):
    metrics, default_seconds = end_to_end_metrics()
    seconds = args.seconds if args.seconds else default_seconds
    base = export(args.base)
    trees = {"parent": base, "change": ROOT}
    for side, tree in trees.items():
        print("building %s (%s)" % (side, tree), file=sys.stderr)
        build(tree)

    values = {side: {m["name"]: [] for m in metrics} for side in trees}
    incorrect = 0
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            res = run(trees[side], args.workload, seconds)
            if res.get("correct") is not True:
                incorrect += 1
                print("pair %d %s: correct = %s"
                      % (i, side, res.get("correct")), file=sys.stderr)
            for m in metrics:
                values[side][m["name"]].append(
                    res["metrics"][m["name"]]["value"])
        print("pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr)

    print("%s: %s (parent) vs working tree, %d pairs of %g s"
          % (args.workload, args.base, args.pairs, seconds))
    print("%-20s %-9s %-36s %-11s %-7s %-6s"
          % ("metric", "unit", "parent median [q1, q3]", "change",
             "ratio", "wins"))
    for m in metrics:
        row = summarize(values["parent"][m["name"]],
                        values["change"][m["name"]], m["better"])
        print("%-20s %-9s %-36s %-11s %-7s %-6s%s" % (
            m["name"], m["unit"],
            "%s [%s, %s]" % (fmt(row["parent_median"]),
                             fmt(row["parent_q1"]),
                             fmt(row["parent_q3"])),
            fmt(row["change_median"]), "%.3f" % row["ratio"],
            "%d/%d" % (row["wins"], row["pairs"]),
            "  gain" if row["gain"] else ""))
    if incorrect:
        print("%d run(s) reported correct: false" % incorrect)
        return 1
    return 0


# ---------------------------------------------------------------------
# Self-test on canned inputs
# ---------------------------------------------------------------------

def self_test():
    # Explicit checks rather than assert, which python3 -O strips.
    def check(ok, what):
        if not ok:
            raise AssertionError("perf_ab self-test failed: " + what)

    def close(a, b):
        check(abs(a - b) <= 1e-12 * max(1.0, abs(b)), "%r != %r" % (a, b))

    close(quantile([3, 1, 2], 0.5), 2)
    close(quantile([1, 2, 3, 4], 0.5), 2.5)
    close(quantile([1, 2, 3, 4, 5], 0.25), 2)
    close(quantile([1, 2, 3, 4, 5], 0.75), 4)
    close(quantile([10, 20], 0.25), 12.5)
    close(quantile([7], 0.75), 7)

    # Ties count for neither side; direction follows "better".
    check(wins([1, 2, 3], [2, 2, 1], "higher") == 1, "wins, higher")
    check(wins([1, 2, 3], [2, 2, 1], "lower") == 1, "wins, lower")

    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]
    clear = [x * 1.5 for x in parent]
    row = summarize(parent, clear, "higher")
    close(row["parent_median"], 12.25)
    close(row["parent_q1"], 11.125)
    close(row["parent_q3"], 13.375)
    close(row["change_median"], 18.375)
    close(row["ratio"], 1.5)
    check(row["wins"] == 10 and row["gain"], "a clear gain")
    # The same numbers are a loss where lower is better.
    row = summarize(parent, clear, "lower")
    check(row["wins"] == 0 and not row["gain"], "a clear loss")
    # 9 of 10 wins, but inside the parent's quartile spread: no gain.
    slight = [x + 0.1 for x in parent[:9]] + [parent[9] - 1.0]
    row = summarize(parent, slight, "higher")
    check(row["wins"] == 9 and not row["gain"], "a gain inside the spread")
    # A wide margin with only 8 of 10 wins: no gain either.
    mixed = [x * 2 for x in parent[:8]] + [0.0, 0.0]
    row = summarize(parent, mixed, "higher")
    check(row["wins"] == 8 and not row["gain"], "8 of 10 wins")

    res = parse_result('build noise\n{"correct": false, "metrics": {}}\n\n')
    check(res["correct"] is False, "the last line is the result")
    print("perf_ab self-test: ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="git revision of the parent side")
    ap.add_argument("--workload", help="perfbench workload name")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--self-test", action="store_true",
                    help="check the statistics on canned inputs and exit")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.workload:
        ap.error("--base and --workload are required")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    try:
        return compare(args)
    except (OSError, RuntimeError, ValueError,
            subprocess.CalledProcessError) as err:
        print("perf_ab: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
