#!/usr/bin/env bash
# Alternating benchmark pairs of a revision and the working tree.
#
#     tools/bench_pairs.sh REV WORKLOAD PAIRS SECONDS [SEED]
#
# Extracts REV with `git archive`, and copies the working tree's files
# (tracked and untracked, not ignored), into a temporary directory. Then runs
# each side's own `python3 perfbench/run.py --workload WORKLOAD --seed SEED
# --seconds SECONDS --trace 0` PAIRS times, REV first in even pairs and the
# working tree first in odd ones. For every end-to-end metric that
# BENCHMARK.json declares, prints each side's median and quartiles, the pairs
# the working tree won (ties count for neither side) and every run's value,
# and marks OVER BOUND a metric whose working-tree median is worse than the
# REV median by more than the metric's relative bound; the last line holds
# the same as JSON, the mark as "over_bound". SEED defaults to 1. Exits 0, 1 when
# some run reports an incorrect output, or 2 when a step fails. The temporary
# directory is removed on exit; nothing is written to the working tree.
set -u -o pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 REV WORKLOAD PAIRS SECONDS [SEED]" >&2
    exit 64
fi
rev=$1 workload=$2 pairs=$3 seconds=$4 seed=${5:-1}
cd "$(dirname "$0")/.." || exit 2
commit=$(git rev-parse --verify "$rev^{commit}") || exit 2
tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/rev" "$tmp/tree" "$tmp/runs" || exit 2
git archive "$commit" | tar -x -C "$tmp/rev" || exit 2
git ls-files -z -c -o --exclude-standard \
    | tar --null --ignore-failed-read -T - -cf - 2> /dev/null \
    | tar -x -C "$tmp/tree" || exit 2

run() {
    local side=$1 pair=$2
    if ! (cd "$tmp/$side" && python3 perfbench/run.py --workload "$workload" \
            --seed "$seed" --seconds "$seconds" --trace 0) \
            > "$tmp/runs/$side-$pair.out" 2> "$tmp/runs/$side-$pair.err"; then
        cat "$tmp/runs/$side-$pair.err" >&2
        echo "$side run of pair $pair failed" >&2
        exit 2
    fi
}

for ((pair = 0; pair < pairs; pair++)); do
    if ((pair % 2 == 0)); then
        run rev "$pair"
        run tree "$pair"
    else
        run tree "$pair"
        run rev "$pair"
    fi
done

python3 - "$tmp/runs" "$pairs" BENCHMARK.json "$rev" "$commit" "$workload" "$seed" \
    "$seconds" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

runs, pairs, spec, rev, commit, workload, seed, seconds = sys.argv[1:]
pairs = int(pairs)


def result(side, pair):
    lines = (Path(runs) / f"{side}-{pair}.out").read_text().splitlines()
    return json.loads(lines[-1])


results = {side: [result(side, p) for p in range(pairs)] for side in ("rev", "tree")}


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


summary = {
    "rev": rev, "rev_commit": commit, "workload": workload, "seed": int(seed),
    "seconds": float(seconds), "pairs": pairs,
    "all_correct": all(r["correct"] for side in results.values() for r in side),
    "failed": {side: sum(r["failed"] for r in rs) for side, rs in results.items()},
    "metrics": {},
}
print(f"{workload}: {pairs} pairs, seed {seed}, {seconds} s runs; "
      f"rev {rev} ({commit[:12]}) against the working tree")
print(f"all correct: {summary['all_correct']}, failed runs: {summary['failed']}")
for metric in json.loads(Path(spec).read_text())["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    old = [r["metrics"][name]["value"] for r in results["rev"]]
    new = [r["metrics"][name]["value"] for r in results["tree"]]
    wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
    entry = {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "rev_median": statistics.median(old), "tree_median": statistics.median(new),
        "rev_q1_q3": quartiles(old), "tree_q1_q3": quartiles(new),
        "tree_wins": wins, "rev_runs": old, "tree_runs": new,
    }
    change = entry["tree_median"] / entry["rev_median"] - 1.0
    entry["over_bound"] = (change if lower else -change) > metric["bound"]
    summary["metrics"][name] = entry
    print(f"{name:12s} rev median {entry['rev_median']:.6g} "
          f"(q1-q3 {entry['rev_q1_q3'][0]:.6g}-{entry['rev_q1_q3'][1]:.6g})  "
          f"tree median {entry['tree_median']:.6g} "
          f"(q1-q3 {entry['tree_q1_q3'][0]:.6g}-{entry['tree_q1_q3'][1]:.6g})  "
          f"{change:+.1%}  tree wins {wins}/{pairs} {metric['unit']}"
          f"{'  OVER BOUND' if entry['over_bound'] else ''}")
print(json.dumps(summary))
sys.exit(0 if summary["all_correct"] else 1)
EOF
