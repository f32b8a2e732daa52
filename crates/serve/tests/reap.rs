//! Ended threads give their stacks back while the server runs: many
//! short connections in a row, and many requests in a row on connections
//! that stay open, leave the server's address space flat.
//!
//! This file contains exactly one test: VmSize is process-wide, and
//! `serve` runs inside the test process.

#![cfg(target_os = "linux")]

use omega_serve::{serve, Client, ServeConfig};
use std::process::Command;

/// Connections held open at once in the second phase.
const HELD: usize = 8;
/// Sequential v2 pings on each held connection: more than
/// `MAX_IN_FLIGHT`, so ended handlers that were kept would fill the bound.
const PINGS_EACH: usize = 40;

/// The process's virtual size in KiB, from `/proc/self/status`.
fn vm_size_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmSize:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmSize line")
}

#[test]
fn ended_threads_do_not_grow_the_address_space() {
    // glibc hands a thread that allocates while every arena is in use an
    // arena of its own, 64 MiB of address space, at moments that depend
    // on scheduling. With a single arena only thread stacks move VmSize.
    // glibc reads the setting at process start, so the check reruns this
    // test in a child process that has it.
    if std::env::var_os("MALLOC_ARENA_MAX").is_none() {
        let exe = std::env::current_exe().expect("test binary path");
        let child = Command::new(exe)
            .args(["--exact", "ended_threads_do_not_grow_the_address_space"])
            .env("MALLOC_ARENA_MAX", "1")
            .output()
            .expect("rerun the test binary");
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(
            child.status.success() && stdout.contains("1 passed"),
            "the check failed in its child process:\n{stdout}{}",
            String::from_utf8_lossy(&child.stderr)
        );
        return;
    }
    let handle = serve(ServeConfig::default()).expect("server binds");
    let addr = handle.addr();
    let ping = || {
        Client::connect(addr)
            .expect("connect")
            .ping()
            .expect("ping")
    };
    let held_pings = |pings: usize| {
        let mut clients: Vec<Client> = (0..HELD)
            .map(|_| Client::connect(addr).expect("connect"))
            .collect();
        for client in &mut clients {
            for _ in 0..pings {
                client.ping().expect("ping");
            }
        }
        clients
    };
    // Warm up the allocator's per-thread state before each baseline: a
    // short run of the same shape, so only threads kept past their end
    // can grow the address space afterwards.
    for _ in 0..8 {
        ping();
    }
    let before = vm_size_kib();
    for _ in 0..200 {
        ping();
    }
    let grown_mib = vm_size_kib().saturating_sub(before) / 1024;
    assert!(
        grown_mib < 128,
        "200 sequential connections grew VmSize by {grown_mib} MiB"
    );

    drop(held_pings(1));
    let before = vm_size_kib();
    let clients = held_pings(PINGS_EACH);
    let grown_mib = vm_size_kib().saturating_sub(before) / 1024;
    assert!(
        grown_mib < 128,
        "{HELD} open connections of {PINGS_EACH} sequential pings each grew VmSize by {grown_mib} MiB"
    );
    drop(clients);

    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown ack");
    handle.wait();
}
