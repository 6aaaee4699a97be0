#!/bin/sh
# Tier-1 gate: build + full test suite + bench smoke (B11 A/B check).
#
# Usage: bin/ci.sh [--quick]
#   --quick   build + runtest only (skip the bench smoke run)
#
# The bench smoke run is part of the gate on purpose: bench/main.exe
# exits non-zero if cone dispatch ever produces a change trace that
# differs from the flooding baseline, or if tracing perturbs the
# messages/event account by more than 10%, so a semantics regression in
# the dispatcher or tracer fails CI even if no unit test covers it.
# B12 gates the paper's Section 5 property on the compiled backend: its
# async case (a 2 s virtual-cost branch behind async, Mouse.x every
# 0.1 s) must show the same latency summary and display times as the
# pipelined runtime.
# The same smoke run gates the fusion pass via B13: fused and unfused
# deep-chain runs must produce identical change traces, fusion must
# never increase messages/event, depth >= 8 chains must show at least a
# 2x message reduction under both dispatch strategies, and the node
# accounting (live + fused_away = original) must balance.
# B14 gates the fault-tolerance layer: zero-fault runs under
# Isolate/Restart supervision must keep change traces identical to
# Propagate with < 10% msg/ev drift, injected fault counts must match
# Stats.node_failures exactly, and the seeded flaky-Http retry session
# must be bit-identical across two invocations.
# B15 gates the schedule-exploration harness (lib/check): the clean
# B11/B13/B14 graph matrix must show zero violations across the seeded
# random/PCT schedules, and all three planted runtime mutations
# (dropped No_change, skipped epoch stamp, reordered mailbox admit)
# must be caught by the interleaving checker. --quick still runs the
# explorer in smoke proportions (8 fixed-seed schedules per cell) via
# bench/main.exe --explore-smoke, so a scheduler or dispatcher
# interleaving regression fails even the fast gate.
# B16 gates the compiled backend: across the K-chain matrix the
# compiled runtime's change trace must be bit-identical to the
# pipelined one's (fusion off and on, Pipelined and Sequential modes),
# and — both backends unfused — compiled must win at least 10x on both
# sequential switches/event and messages/event. Its allocation gate
# measures minor words/event on the compiled runtime (unfused) over a
# non-fusible chain of K lift2 nodes: the K=64 row must stay within 8
# words/event of the K=1 row, i.e. a changed op allocates nothing.
# B17 gates the serving layer (lib/serve): opening a session against
# the warm plan cache must be >= 10x cheaper than a cold plan compile,
# every one of the 10k live sessions must produce a change trace
# bit-identical to a dedicated single-session compiled runtime (the
# isolation oracle), clones must continue exactly as their parents,
# serving must actually hit the plan cache, and Session.footprint_words
# must lie within 10% of the live heap words a session really adds
# (Gc.compact delta over the live sessions), which at K=1 must also stay
# under an absolute ceiling of 239 words (228.0 measured plus 5%; the
# unit suite's footprint probe in test/test_serve.ml has its own ceiling
# of 85 words, 81.0 measured plus 5%).
# B18 gates domain-parallel serving (lib/serve/pool.ml): draining the
# 10k-session B17 workload over a work-stealing domain pool must keep
# every per-session change trace bit-identical to the sequential
# dispatcher at 1/2/4 domains, per-domain Stats rows must merge back
# to the session totals, and the events/sec speedup bar scales with
# the runner (2x at 4 domains only where >= 4 cores exist, 1.2x at 2
# domains on 2-3 core boxes, report-only on 1 core); like B19's, it is
# the median ratio over 7 interleaved repetitions after a warm-up round.
# B19 gates one runtime's waves split across domains (Runtime.start
# ~domains, each wave's active regions as one flat pool batch):
# on the async fan-out/fan-in workload each event's wave must expose
# > 2 regions to the pool (pool tasks / events, a counter ratio),
# change traces must be bit-identical to the 1-domain run at every
# width, per-domain region-step attribution must merge back to the
# runtime totals, and dispatch counts must agree across widths. Its
# wall-clock bar is the median k-domain / 1-domain ratio over 7
# interleaved repetitions after a warm-up round (1.1x at 2 domains on
# 2-3 cores, 1.4x at 4 where >= 4 cores exist, report-only on 1 core).
# B20 gates live graph upgrade (lib/core/upgrade): hot-swapping 10k
# live sessions onto a freshly rebuilt identical plan mid-stream must
# diff as an identity patch, drop zero events (one event per session
# is queued across the seam on purpose), and leave every per-session
# change trace bit-identical to a never-upgraded dispatcher fed the
# same events; post-upgrade throughput vs cold start is wall-clock
# and report-only, printed beside the never-upgraded run's own ratio
# and the quotient of the two.
# The smoke run checks every B18-B20 counter and identity gate before
# either wall-clock bar; a bar miss is printed with its value and fails
# the run once, after BENCH_core.json is written.
# After the smoke gates, bench_diff compares the gated counter ratios
# (B11/B13/B16/B17/B19) against the committed bench/baseline.json and
# fails on > 20% regression — see bin/bench_diff.sh for how to accept
# an intended perf change by regenerating the baseline.
# The end-to-end benchmark's own test then runs: perfbench/run.py --smoke
# builds perfbench/main.exe and runs every BENCHMARK.json workload for a
# few seconds, untraced and traced, checking each declared metric is
# printed and that the output oracle (the reference model plus the
# pipelined replay) passed. Its output directory is created first, since
# run.py does not create it on a fresh checkout.
# bin/loc.py then reports the engine's code size (lib/core + lib/serve,
# comments and blank lines stripped), its exported vals and the optional
# (?x:) parameters those vals take — tracked next to the numbers, not
# gated.
# The full run also writes BENCH_core.json (latency percentiles, trace
# summaries, B13 fusion ratios, B14 fault-injection matrix, B15
# exploration cells, B16 backend matrix, B17 serving metrics) for CI
# artifact upload.
set -eu
cd "$(dirname "$0")/.."

if ! command -v dune >/dev/null 2>&1; then
    echo "ci.sh: error: 'dune' not found in PATH." >&2
    echo "ci.sh: install an OCaml toolchain (opam install dune) or run inside 'opam exec --'." >&2
    exit 127
fi

quick=0
for arg in "$@"; do
    case "$arg" in
    --quick) quick=1 ;;
    *)
        echo "ci.sh: error: unknown argument '$arg' (expected --quick)" >&2
        exit 2
        ;;
    esac
done

dune build
dune runtest
python3 bin/loc.py

if [ "$quick" -eq 1 ]; then
    echo "ci.sh: --quick: bench smoke skipped; running explore smoke only"
    dune exec bench/main.exe -- --explore-smoke
    exit 0
fi

dune exec bench/main.exe -- --smoke --json
dune exec bench/diff.exe -- bench/baseline.json BENCH_core.json
mkdir -p .perfbench_out/smoke && python3 perfbench/run.py --smoke
