#!/usr/bin/env bash
# The CI pipeline (.github/workflows/ci.yml runs this script): build, test,
# format, lint, then the model, golden, sweep wall-clock, store and serve
# gates. The workspace is hermetic (no external crates), so everything runs
# offline.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --workspace --all-targets
cargo test -q --workspace
cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Examples gate: the build above compiles every example, and each must also
# run to exit 0, so an example that panics fails CI.
for src in examples/*.rs; do
  example=$(basename "$src" .rs)
  ./target/release/examples/"$example" > "target/example-$example.txt"
  echo "ci: example $example ran"
done

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

# Sweep wall-clock gate: a cold, store-less `figures fig14` at small
# scale (it reads exactly the paper sweep) at --jobs 1 and --jobs 4. The
# two outputs must match byte for byte, and each run fails past 1.5x its
# reference in results/fig14_wall_ms.txt (medians on the host named
# there) — wide enough for shared-runner noise, tight enough to catch a
# prefetch pool that stopped running experiments side by side.
for jobs in 1 4; do
  ref_ms=$(awk -v j="$jobs" '$1 == j { print $2 }' results/fig14_wall_ms.txt)
  [ -n "$ref_ms" ] \
    || { echo "ci: no --jobs $jobs reference in results/fig14_wall_ms.txt" >&2; exit 1; }
  limit_ms=$(( ref_ms * 3 / 2 ))
  start_ns=$(date +%s%N)
  ./target/release/figures fig14 --jobs "$jobs" \
    > "target/fig14-jobs$jobs.txt" 2> "target/fig14-jobs$jobs.err"
  ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
  echo "ci: figures fig14 --jobs $jobs: $ms ms (reference $ref_ms ms, limit $limit_ms ms)"
  [ "$ms" -le "$limit_ms" ] \
    || { echo "ci: fig14 sweep at --jobs $jobs is past 1.5x its reference" >&2; exit 1; }
done
cmp target/fig14-jobs1.txt target/fig14-jobs4.txt

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
# `abl-atomics` is not in `all`, so it has its own tiny golden.
./target/release/figures abl-atomics --tiny \
  > target/figures-abl-atomics.txt 2> target/figures-abl-atomics.err
cmp target/figures-abl-atomics.txt results/figures_abl_atomics_tiny.txt
# Trace-sharing gate: the cold sweep traces 68 trace groups (50 standard
# (dataset, algo) groups with the telemetry figure's runs, 7 traced only
# for their trace summary, and 11 whose variant changes the graph or the
# trace). Its 147 distinct runs take 142 replays: a run whose machine
# replays its group's trace exactly as an earlier member's did shares
# that replay (`runner::ReplayKey`). A second session, or a run or
# summary that lost its group, raises `traces=`; a lost replay key raises
# `replays=`.
cold_line=$(grep '^\[store\]' target/figures-cold.err)
echo "ci: cold sweep $cold_line"
case "$cold_line" in
  *"traces=68 replays=142"*) ;;
  *) echo "ci: cold sweep lost trace sharing (expected traces=68 replays=142)" >&2
     exit 1 ;;
esac
# The `[replay]` progress log names real replays only: a member that
# shares its group's replay prints no line.
cold_replays=$(echo "$cold_line" | grep -o 'replays=[0-9]*' | cut -d= -f2)
replay_lines=$(grep -c '\[replay\]' target/figures-cold.err)
[ "$replay_lines" -eq "$cold_replays" ] \
  || { echo "ci: $replay_lines [replay] lines vs replays=$cold_replays" >&2; exit 1; }
warm_line=$(grep '^\[store\]' target/figures-warm.err)
echo "ci: warm sweep $warm_line"
case "$warm_line" in
  *"traces=0"*"replays=0"*) ;;
  *) echo "ci: warm sweep re-simulated (expected traces=0 replays=0)" >&2
     exit 1 ;;
esac
./target/release/stats store verify "$store_dir/store" \
  > target/store-verify.json
# Every session run and trace summary a figure reads comes from the
# up-front prefetch: a `[run]` line is a serial on-demand simulation that
# some experiment's work list in figures.rs missed. The stored tiny sweep,
# the store-less small sweep and `abl-atomics` are checked.
for err in target/figures-cold.err target/figures-small.err \
  target/figures-abl-atomics.err; do
  if grep -q '\[run\]' "$err"; then
    echo "ci: $err simulated outside the prefetch:" >&2
    grep '\[run\]' "$err" >&2
    exit 1
  fi
done
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

# Store contract gate: a corrupt entry is a counted miss, never a crash.
# In a copy of the warmed store (the serve smoke below reads the
# original), one entry becomes 100,000 `[` bytes, nested far past the
# JSON parser's bound. `verify` must finish, exit 1 (its status for a
# corrupt store) and list exactly that file; `gc` must remove it; a
# second `verify` must come back clean.
cp -r "$store_dir/store" "$store_dir/deep"
# `sed -n 1p` reads all its input: `head -1` could exit while `sort` is
# still writing, and the SIGPIPE then fails the script under pipefail.
deep_entry=$(find "$store_dir/deep" -type f -name '*.json' | sort | sed -n 1p)
head -c 100000 /dev/zero | tr '\0' '[' > "$deep_entry"
deep_status=0
./target/release/stats store verify "$store_dir/deep" \
  > target/store-verify-deep.json || deep_status=$?
[ "$deep_status" -eq 1 ] \
  || { echo "ci: verify of a store with one deep entry exited $deep_status, expected 1" >&2; exit 1; }
grep -q "\"ok\": $(( stored - 1 ))," target/store-verify-deep.json \
  && grep -qF "\"$deep_entry\"" target/store-verify-deep.json \
  || { echo "ci: verify did not list exactly the deep entry as corrupt" >&2; exit 1; }
gc_out=$(./target/release/stats store gc "$store_dir/deep" 2>/dev/null)
[ "$gc_out" = "kept $(( stored - 1 )) entries, removed 1 files" ] && [ ! -e "$deep_entry" ] \
  || { echo "ci: gc did not remove exactly the deep entry: $gc_out" >&2; exit 1; }
./target/release/stats store verify "$store_dir/deep" > /dev/null \
  || { echo "ci: the store is still corrupt after gc" >&2; exit 1; }
echo "ci: store gate: a 100,000-deep entry was verified corrupt and collected"

# Service smoke: boot omega-serve (--jobs 4, memo capped at 2 entries so
# the 4-spec batch *must* evict) against the store the figure sweep just
# warmed, then drive the same batch through all four wire shapes —
# pipelined frames twice, one server-side grouped batch, then sequential
# calls one at a time — and require (a) all four outputs byte-identical
# (flight-, memo-, store- and eviction-reloaded responses all match),
# (b) zero shed, a non-zero hit count, and a non-zero `evictions`
# counter in the v2 stats payload, and (c) a clean drain on shutdown.
# The server self-profiles for the whole lifetime; the profile and v2
# stats reports are CI artifacts.
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
# shellcheck disable=SC2086
./target/release/omega-client batch --addr "$serve_addr" \
  --scale tiny $batch > target/serve-batch-seq.txt
cmp target/serve-batch-cold.txt target/serve-batch-warm.txt
cmp target/serve-batch-cold.txt target/serve-batch-grouped.txt
cmp target/serve-batch-cold.txt target/serve-batch-seq.txt
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
echo "ci: wrote target/serve-batch-{cold,warm,grouped,seq}.txt,"
echo "ci:   target/serve-stats.json, and target/serve-profile.json"

# Serve compute smoke: the smoke above reads the store the figure sweep
# warmed, so it never reaches the server's own trace-and-replay path. A
# second server on an empty store computes the same pipelined batch: its
# output must match the first server's byte for byte, and the store it
# filled must hold exactly the batch's 4 intact entries.
rm -f target/serve-port
./target/release/omega-serve --addr 127.0.0.1:0 --port-file target/serve-port \
  --store "$store_dir/served" --jobs 4 &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -s target/serve-port ] && break
  sleep 0.1
done
serve_addr=$(cat target/serve-port)
# shellcheck disable=SC2086
./target/release/omega-client batch --pipeline --addr "$serve_addr" \
  --scale tiny $batch > target/serve-batch-computed.txt
./target/release/omega-client shutdown --addr "$serve_addr"
wait "$serve_pid"
serve_pid=""
cmp target/serve-batch-cold.txt target/serve-batch-computed.txt
./target/release/stats store verify "$store_dir/served" \
  > target/serve-store-verify.json
grep -q '"ok": 4,' target/serve-store-verify.json \
  || { echo "ci: the computing server did not store exactly 4 entries" >&2; exit 1; }
echo "ci: wrote target/serve-batch-computed.txt and target/serve-store-verify.json"

echo "ci: all checks passed"
