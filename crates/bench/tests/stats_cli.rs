//! The `stats` command line: with no subcommand it exits 2 and prints a
//! usage text whose `machines:` line names every machine `--machine`
//! accepts. Needs no simulation.

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
