#!/usr/bin/env bash
# Local mirror of the CI pipeline: build, test, format, lint.
# The workspace is hermetic (no external crates), so everything runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace --all-targets
cargo test -q --workspace
cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings

# Machine-readable smoke artifacts: the validation report and one telemetry
# dump (exercises the --json path and the stats binary end to end).
cargo run --release -q -p omega-bench --bin validate -- --json \
  > target/validate-report.json
cargo run --release -q -p omega-bench --bin stats -- \
  dump --dataset sd --algo pagerank --machine omega --scale tiny \
  --out target/telemetry-sample.json
echo "ci: wrote target/validate-report.json and target/telemetry-sample.json"

# Model-audit gate: conservation probes, the ten-machine sweep under the
# invariant checker (including the PIM-rank and specialized-cache rivals),
# and seeded differential config fuzzing. A fixed seed
# keeps the fuzz stream reproducible; the JSON report is a CI artifact.
cargo run --release -q -p omega-bench --bin audit -- \
  --quick --seed 658711 --out target/audit-report.json
echo "ci: wrote target/audit-report.json"

# Performance snapshot (omega-bench-report/v1): microbench distributions
# plus the cold figures-all sweep wall-clock at jobs=1 and jobs=4 — the
# parallel-sweep speedup and the host's CPU count are recorded in the same
# file. The full diff against the committed snapshot prints the perf
# trajectory (informational); the enforced pass re-checks only the
# end-to-end sweep wall-clocks and fails the build past a generous 50%
# regression — wide enough for shared-runner noise, tight enough to catch
# a prefetch pool that stopped running experiments side by side.
./target/release/bench --out target/BENCH_sim.json
./target/release/stats bench-diff BENCH_sim.json target/BENCH_sim.json || true
./target/release/stats bench-diff BENCH_sim.json target/BENCH_sim.json \
  --fail-on-regress 50
echo "ci: wrote target/BENCH_sim.json"

# Observability gate, part 1: a small traced workload. The trace must be
# valid Chrome Trace Event JSON (Perfetto-loadable, every span closed,
# host spans AND simulated DRAM/NoC/core intervals present). A single
# dump keeps the artifact small; the full figures sweep would trace
# hundreds of thousands of intervals.
./target/release/stats dump --dataset sd --algo pagerank --machine omega \
  --scale tiny --trace target/trace-sample.json > /dev/null
./target/release/stats trace-check target/trace-sample.json
echo "ci: wrote target/trace-sample.json"

# Warm-store determinism gate: a second figure sweep against the same store
# must be byte-identical on stdout and perform zero functional traces and
# zero timing replays (everything served from the content-addressed cache).
# --jobs 4 runs the cold sweep through the parallel prefetch pool, so the
# gate also proves concurrent replays feed the store bit-identically.
store_dir=$(mktemp -d)
serve_pid=""
trap '[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null; rm -rf "$store_dir"' EXIT
# The cold run doubles as observability gate part 2: it writes the
# self-profile report (a CI artifact) while the warm run stays obs-off —
# the stdout cmp then also proves profiling never leaks into results.
./target/release/figures all --tiny --jobs 4 --store "$store_dir/store" \
  --profile-out target/profile-report.json \
  > target/figures-cold.txt 2> target/figures-cold.err
./target/release/figures all --tiny --jobs 4 --store "$store_dir/store" \
  > target/figures-warm.txt 2> target/figures-warm.err
cmp target/figures-cold.txt target/figures-warm.txt
# Cross-commit golden: simulated results must match the committed tiny
# sweep byte for byte (stdout carries no host times and is the same for
# every --jobs), so a speed-only change that shifts a figure fails here.
cmp target/figures-cold.txt results/figures_all_tiny.txt
# Small-scale golden: the same sweep at the default (small) scale, where
# pin budgets and cold-vertex PIM traffic are larger than at tiny scale.
# Store-less, so every figure is simulated afresh.
./target/release/figures all --jobs 4 \
  > target/figures-small.txt 2> target/figures-small.err
cmp target/figures-small.txt results/figures_all_small.txt
warm_line=$(grep '^\[store\]' target/figures-warm.err)
echo "ci: warm sweep $warm_line"
case "$warm_line" in
  *"traces=0"*"replays=0"*) ;;
  *) echo "ci: warm sweep re-simulated (expected traces=0 replays=0)" >&2
     exit 1 ;;
esac
./target/release/stats store verify "$store_dir/store" \
  > target/store-verify.json
# Every session run a figure reads comes from the up-front prefetch: a
# `[run]` line is a serial on-demand simulation that some experiment's
# work list in figures.rs missed.
if grep -q '\[run\]' target/figures-cold.err; then
  echo "ci: cold sweep simulated outside the prefetch:" >&2
  grep '\[run\]' target/figures-cold.err >&2
  exit 1
fi
# The cold run's `writes=` counts every store handle it used, so it must
# equal the number of intact entries the store now holds.
cold_writes=$(grep '^\[store\]' target/figures-cold.err \
  | grep -o 'writes=[0-9]*' | cut -d= -f2)
stored=$(grep -o '"ok": [0-9]*' target/store-verify.json | grep -o '[0-9]*$')
echo "ci: cold sweep writes=$cold_writes, store holds $stored entries"
[ "$cold_writes" -eq "$stored" ] \
  || { echo "ci: [store] summary missed some store writes" >&2; exit 1; }
echo "ci: wrote target/figures-{cold,warm,small}.txt, target/profile-report.json,"
echo "ci:   and target/store-verify.json"

# Service smoke: boot omega-serve (--jobs 4, memo capped at 2 entries so
# the 4-spec batch *must* evict) against the store the figure sweep just
# warmed, then drive the same batch through all three wire shapes —
# pipelined v2 frames twice, then one server-side grouped batch — and
# require (a) all three outputs byte-identical (flight-, memo-, store-
# and eviction-reloaded responses all match), (b) zero shed, a non-zero
# hit count, and a non-zero `evictions` counter in the v2 stats payload,
# and (c) a clean drain on shutdown. The server self-profiles for the
# whole lifetime; the profile and v2 stats reports are CI artifacts.
rm -f target/serve-port
./target/release/omega-serve --addr 127.0.0.1:0 --port-file target/serve-port \
  --store "$store_dir/store" --jobs 4 --queue-depth 8 --memo-entries 2 \
  --profile-out target/serve-profile.json &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -s target/serve-port ] && break
  sleep 0.1
done
serve_addr=$(cat target/serve-port)
batch="sd:pagerank:baseline sd:pagerank:omega sd:bfs:omega sd:bfs:baseline"
./target/release/omega-client ping --addr "$serve_addr"
# shellcheck disable=SC2086
./target/release/omega-client batch --pipeline --addr "$serve_addr" \
  --scale tiny $batch > target/serve-batch-cold.txt
# shellcheck disable=SC2086
./target/release/omega-client batch --pipeline --addr "$serve_addr" \
  --scale tiny $batch > target/serve-batch-warm.txt
# shellcheck disable=SC2086
./target/release/omega-client batch --grouped --addr "$serve_addr" \
  --scale tiny $batch > target/serve-batch-grouped.txt
cmp target/serve-batch-cold.txt target/serve-batch-warm.txt
cmp target/serve-batch-cold.txt target/serve-batch-grouped.txt
./target/release/omega-client stats --addr "$serve_addr" \
  > target/serve-stats.json
grep -q '"schema": "omega-serve-stats/v2"' target/serve-stats.json \
  || { echo "ci: stats payload is not omega-serve-stats/v2" >&2; exit 1; }
hits=$(grep -o '"hits": [0-9]*' target/serve-stats.json | head -1 \
  | grep -o '[0-9]*$')
shed=$(grep -o '"shed": [0-9]*' target/serve-stats.json | head -1 \
  | grep -o '[0-9]*$')
evictions=$(grep -o '"evictions": [0-9]*' target/serve-stats.json | head -1 \
  | grep -o '[0-9]*$')
echo "ci: serve smoke hits=$hits shed=$shed evictions=$evictions"
[ "$shed" -eq 0 ] || { echo "ci: serve shed requests under the pipelined batch" >&2; exit 1; }
[ "$hits" -gt 0 ] || { echo "ci: warm batch produced no cache hits" >&2; exit 1; }
[ -n "$evictions" ] || { echo "ci: stats payload lacks the evictions counter" >&2; exit 1; }
[ "$evictions" -gt 0 ] || { echo "ci: 4 specs through a 2-entry memo must evict" >&2; exit 1; }
./target/release/omega-client shutdown --addr "$serve_addr"
wait "$serve_pid"
serve_pid=""
[ -s target/serve-profile.json ] || { echo "ci: missing serve profile artifact" >&2; exit 1; }
echo "ci: wrote target/serve-batch-{cold,warm,grouped}.txt,"
echo "ci:   target/serve-stats.json, and target/serve-profile.json"

echo "ci: all checks passed"
