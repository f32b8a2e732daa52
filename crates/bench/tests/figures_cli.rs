//! The `figures` command line: unknown experiment ids are refused before
//! any work starts, and known ids render in the order given. Both cases
//! need no simulation.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures runs")
}

#[test]
fn unknown_id_exits_2_before_any_output() {
    let out = figures(&["table3", "nosuch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "table3 must not render first");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`nosuch`"), "{err}");
    assert!(
        err.contains("table1") && err.contains("telemetry"),
        "lists the valid ids: {err}"
    );

    let out = figures(&["nosuch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn known_ids_render_in_the_order_given() {
    let out = figures(&["table3", "table4"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let t3 = stdout.find("==== table3:").expect("table3 banner");
    let t4 = stdout.find("==== table4:").expect("table4 banner");
    assert!(t3 < t4, "{stdout}");
}

#[test]
fn unknown_flag_exits_2_before_any_output() {
    // `--scale medium` is the one spelling of the medium scale.
    let out = figures(&["table3", "--medium"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag \"--medium\""), "{err}");
}
