//! The `stats` command line: with no subcommand it exits 2 and prints a
//! usage text whose `machines:` line names every machine `--machine`
//! accepts, and `dump` refuses a telemetry window below its floor before
//! it simulates anything.

use omega_bench::session::MachineKind;
use std::process::Command;

#[test]
fn usage_lists_every_named_machine() {
    let out = Command::new(env!("CARGO_BIN_EXE_stats"))
        .output()
        .expect("stats runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    let listed: Vec<&str> = err
        .lines()
        .find_map(|l| l.strip_prefix("machines: "))
        .unwrap_or_else(|| panic!("no machines: line in usage:\n{err}"))
        .split(", ")
        .collect();
    for m in MachineKind::NAMED {
        assert!(
            listed.contains(&m.label().as_str()),
            "usage omits {}: {listed:?}",
            m.label()
        );
    }
}

/// Every window keeps a full `MemStats` delta, so `--window 1` would
/// keep one per simulated cycle: refused with exit 2 and nothing on
/// stdout. The floor itself still runs.
#[test]
fn dump_refuses_a_window_below_the_floor() {
    let dump = |window: &str| {
        Command::new(env!("CARGO_BIN_EXE_stats"))
            .args(["dump", "--scale", "tiny", "--window", window])
            .output()
            .expect("stats runs")
    };
    let out = dump("1");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("1024"), "{err}");
    let out = dump("1024");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty());
}
