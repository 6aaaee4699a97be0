#!/bin/sh
# A/B wall-clock comparison of this checkout against its base, on one host.
#
# Usage: bin/perf_pairs.sh WORKLOAD SECONDS N
#   WORKLOAD   a perfbench workload (gui_async, serve_churn, ...)
#   SECONDS    --seconds of every run (the same on both sides)
#   N          pairs to run; pair i uses seed i and runs the base first
#              when i is odd, this checkout first when i is even
#   BASE       (environment) the side to compare against is the merge-base
#              of HEAD and $BASE; default HEAD, i.e. this checkout's
#              uncommitted changes against their parent commit. After
#              committing, BASE=HEAD~1 (or the branch point, BASE=main).
#
# The base is extracted with `git archive` into a temporary directory
# (removed on exit, also on failure or interrupt), so the repository's
# .git is never written. Both sides build perfbench/main.exe as
# perfbench/run.py does (release profile, dune cache off, build directory
# .bench_build) and every run starts from its own checkout's root, with
# --trace 0. perfbench itself is only read. At the end, for every
# end-to-end metric named in BENCHMARK.json, it prints each side's median
# and inter-quartile range, the change's median against the base's, and in
# how many pairs the change read better (ties count for neither side).
# Each run's JSON line is kept in the temporary directory until exit and
# echoed as it arrives.
set -eu

if [ $# -ne 3 ]; then
    echo "usage: $0 WORKLOAD SECONDS N" >&2
    exit 2
fi
workload=$1
seconds=$2
pairs=$3
here=$(cd "$(dirname "$0")/.." && pwd)
base=$(git -C "$here" merge-base HEAD "${BASE:-HEAD}")

tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

build() {
    (cd "$1" && DUNE_CACHE=disabled dune build --root . --build-dir .bench_build \
        --cache=disabled --profile release ./perfbench/main.exe)
}

mkdir "$tmp/base" "$tmp/out_base" "$tmp/out_change"
git -C "$here" archive "$base" | tar -x -C "$tmp/base"
echo "base $(git -C "$here" rev-parse --short "$base"); change: $here (working tree)"
build "$tmp/base"
build "$here"

# run SIDE DIR SEED: one untraced run, its last stdout line appended to
# $tmp/SIDE.jsonl.
run() {
    out=$(cd "$2" && ./.bench_build/default/perfbench/main.exe \
        --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 \
        --out "$tmp/out_$1" | tail -n 1)
    case $out in
    '{'*) ;;
    *) echo "perf_pairs.sh: $1 run (seed $3) printed no result" >&2; exit 1 ;;
    esac
    echo "$out" >> "$tmp/$1.jsonl"
    echo "pair seed=$3 $1: $out"
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$tmp/base" "$i"
        run change "$here" "$i"
    else
        run change "$here" "$i"
        run base "$tmp/base" "$i"
    fi
    i=$((i + 1))
done

python3 - "$here/BENCHMARK.json" "$tmp/base.jsonl" "$tmp/change.jsonl" <<'EOF'
import json, sys

spec = json.load(open(sys.argv[1]))
sides = [[json.loads(l) for l in open(p)] for p in sys.argv[2:4]]

def quantile(xs, q):
    xs = sorted(xs)
    k = (len(xs) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)

for name, side in zip(("base", "change"), sides):
    bad = [r for r in side if not r["correct"] or r["failed"] != 0]
    print("%s: %d runs, %d with a failed oracle or failed operations"
          % (name, len(side), len(bad)))
print("%-16s %-8s | %12s %10s | %12s %10s | %8s %6s"
      % ("metric", "unit", "base med", "base IQR", "change med", "chg IQR",
         "change", "wins"))
for m in spec["end_to_end"]:
    vals = [[r["metrics"][m["name"]]["value"] for r in side] for side in sides]
    med = [quantile(v, 0.5) for v in vals]
    iqr = [quantile(v, 0.75) - quantile(v, 0.25) for v in vals]
    sign = 1 if m["better"] == "higher" else -1
    wins = sum(1 for b, c in zip(*vals) if sign * (c - b) > 0)
    rel = (med[1] / med[0] - 1) * 100 if med[0] else float("nan")
    print("%-16s %-8s | %12.4g %10.3g | %12.4g %10.3g | %+7.1f%% %3d/%d"
          % (m["name"], m["unit"], med[0], iqr[0], med[1], iqr[1], rel,
             wins, len(vals[0])))
EOF
