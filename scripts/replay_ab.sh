#!/usr/bin/env bash
# Replay A/B: times the replays of the `sweep-natural` benchmark workload
# with the crates of git revision <rev> (A) and of this working tree (B),
# alternating A and B replay by replay inside one process, so that host
# noise lands on both sides alike.
#
#   scripts/replay_ab.sh <rev> [rounds]
#
# <rev> is checked out into a temporary directory (git archive) and that
# copy's workspace version is set to 0.0.0, so both sets of crates link
# into one throwaway harness. For each of the nine trace groups ({lj, rMat,
# sd} at small scale x {PageRank, SSSP, BFS}) each side traces once
# (untimed) and prepares its trace for replay (timed: lowering into a tape,
# where the revision has one); then every one of the ten machine kinds is
# replayed on both sides, the side that goes first alternating. Every pair
# of `RunReport`s must be equal (compared through their `Debug` text), or
# the harness exits 1. It prints thread-CPU seconds per machine kind and
# per round, with the B/A ratio; below 1 means the working tree is faster.
#
# The harness understands the two replay APIs the repository has had:
# `replay(algo, checksum, &raw, &meta, ..)` and, since the op tape,
# `replay(algo, checksum, &tape, ..)`; it picks one per side by looking
# for `pub struct Tape` in that side's `crates/core/src/lower.rs`.
# Temporary files go under $TMPDIR (default /tmp) and are removed on exit.
set -euo pipefail

rev=${1:?usage: scripts/replay_ab.sh <rev> [rounds]}
rounds=${2:-2}
here=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/replay-ab.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir "$work/a"
git -C "$here" archive "$rev" | tar -x -C "$work/a"
sed -i 's/^version = "[^"]*"/version = "0.0.0"/' "$work/a/Cargo.toml"

mkdir -p "$work/harness/src"
cat > "$work/harness/Cargo.toml" <<EOF
[package]
name = "replay-ab"
version = "0.0.0"
edition = "2021"
publish = false

[workspace]

[dependencies]
a_graph = { package = "omega-graph", path = "$work/a/crates/graph" }
a_ligra = { package = "omega-ligra", path = "$work/a/crates/ligra" }
a_core = { package = "omega-core", path = "$work/a/crates/core" }
a_bench = { package = "omega-bench", path = "$work/a/crates/bench" }
b_graph = { package = "omega-graph", path = "$here/crates/graph" }
b_ligra = { package = "omega-ligra", path = "$here/crates/ligra" }
b_core = { package = "omega-core", path = "$here/crates/core" }
b_bench = { package = "omega-bench", path = "$here/crates/bench" }
EOF

# One side of the harness, for the replay API of the tree at $2, with its
# crates renamed to the prefix $1.
side() {
    local p=$1 tree=$2 trace prepare args
    if grep -q "pub struct Tape" "$tree/crates/core/src/lower.rs"; then
        trace="${p}_core::lower::Tape"
        prepare="${p}_core::lower::Tape::from_raw(raw, meta)"
        args="&g.trace"
    else
        trace="(${p}_ligra::trace::RawTrace, ${p}_ligra::trace::TraceMeta)"
        prepare="(raw, meta)"
        args="&g.trace.0, &g.trace.1"
    fi
    cat <<EOF
pub mod $p {
    use ${p}_bench::session::{AlgoKey, MachineKind};
    use ${p}_core::runner::{exec_for, replay, trace_algorithm};
    use ${p}_graph::datasets::{Dataset, DatasetScale};

    pub struct Group {
        name: &'static str,
        checksum: f64,
        trace: $trace,
        /// Thread-CPU seconds spent preparing the trace for replay.
        pub prepare_s: f64,
    }

    pub fn group(dataset: usize, algo: &str) -> Group {
        let d = [Dataset::Lj, Dataset::Rmat, Dataset::Sd][dataset];
        let g = d.build(DatasetScale::Small).expect("dataset parameters are valid");
        let algo = AlgoKey::from_name(algo).expect("a known algorithm").algo(&g);
        let exec = exec_for(&MachineKind::Baseline.system());
        let (checksum, raw, meta) = trace_algorithm(&g, algo, &exec);
        let t = crate::thread_cpu();
        let trace = $prepare;
        Group { name: algo.name(), checksum, trace, prepare_s: crate::thread_cpu() - t }
    }

    /// Replays \`g\` on \`machine\`; the report's Debug text.
    pub fn replay_on(g: &Group, machine: &str) -> String {
        let sys = MachineKind::from_name(machine).expect("a known machine").system();
        format!("{:?}", replay(g.name, g.checksum, $args, &sys, None))
    }
}
EOF
}

{
    side a "$work/a"
    side b "$here"
    cat <<'EOF'

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds this thread has used.
fn thread_cpu() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

const MACHINES: [&str; 10] = [
    "baseline",
    "omega",
    "omega-nopisc",
    "omega-nosvb",
    "omega-chunkmis",
    "omega-offchip",
    "locked-cache",
    "pim-rank",
    "specialized-cache",
    "omega-sp500",
];

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|r| r.parse().ok())
        .unwrap_or(2);
    let mut replays = 0u64;
    for round in 1..=rounds {
        let mut per_kind = [(0.0f64, 0.0f64); MACHINES.len()];
        let (mut prep_a, mut prep_b) = (0.0, 0.0);
        for dataset in 0..3 {
            for algo in ["pagerank", "sssp", "bfs"] {
                let ga = a::group(dataset, algo);
                let gb = b::group(dataset, algo);
                prep_a += ga.prepare_s;
                prep_b += gb.prepare_s;
                for (k, machine) in MACHINES.iter().enumerate() {
                    let time_a = || {
                        let t = thread_cpu();
                        let r = a::replay_on(&ga, machine);
                        (r, thread_cpu() - t)
                    };
                    let time_b = || {
                        let t = thread_cpu();
                        let r = b::replay_on(&gb, machine);
                        (r, thread_cpu() - t)
                    };
                    let ((ra, ta), (rb, tb)) = if replays % 2 == 0 {
                        let a = time_a();
                        (a, time_b())
                    } else {
                        let b = time_b();
                        (time_a(), b)
                    };
                    replays += 1;
                    if ra != rb {
                        eprintln!("report differs: {algo} on dataset #{dataset}, {machine}");
                        eprintln!("A: {ra}\nB: {rb}");
                        std::process::exit(1);
                    }
                    per_kind[k].0 += ta;
                    per_kind[k].1 += tb;
                }
            }
        }
        println!("round {round}: thread-CPU seconds over 9 groups (A = rev, B = working tree)");
        println!("  {:<18} {:>9} {:>9} {:>7}", "machine", "A s", "B s", "B/A");
        for (machine, (a, b)) in MACHINES.iter().zip(per_kind) {
            println!("  {machine:<18} {a:>9.3} {b:>9.3} {:>7.3}", b / a);
        }
        println!("  {:<18} {prep_a:>9.3} {prep_b:>9.3}", "prepare");
        let total_a = per_kind.iter().map(|p| p.0).sum::<f64>() + prep_a;
        let total_b = per_kind.iter().map(|p| p.1).sum::<f64>() + prep_b;
        println!(
            "  {:<18} {total_a:>9.3} {total_b:>9.3} {:>7.3}",
            "total",
            total_b / total_a
        );
    }
    println!("all {replays} report pairs equal");
}
EOF
} > "$work/harness/src/main.rs"

cargo build --quiet --release --offline --manifest-path "$work/harness/Cargo.toml"
"$work/harness/target/release/replay-ab" "$rounds"
