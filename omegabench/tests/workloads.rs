//! Every workload runs clean at tiny scale. One test function, so the
//! process-global replay counter serve-warm checks sees no other test.

use omega_graph::datasets::DatasetScale;
use omegabench::spans::Span;
use omegabench::workload::{Outcome, Params, Workload};
use omegabench::{serving, sweep};

fn params(workload: Workload, seconds: f64) -> Params {
    Params {
        workload,
        seed: 3,
        seconds,
        scale: DatasetScale::Tiny,
        jobs: 2,
    }
}

fn assert_clean(name: &str, o: &Outcome) {
    assert!(o.attempted > 0, "{name}: nothing attempted");
    assert_eq!(o.failed, 0, "{name}: {:?}", o.problems);
    assert!(o.problems.is_empty(), "{name}: {:?}", o.problems);
    assert!(!o.setup_s.is_empty() && o.raw_wall_s > 0.0, "{name}");
    assert!(
        o.latencies_ms
            .iter()
            .all(|l| l.clock.is_finite() && l.clock > 0.0 && l.factor > 0.0),
        "{name}"
    );
}

#[test]
fn every_workload_verifies_at_tiny_scale() {
    let root = Span::root("test");
    let w = Workload::SweepNatural;
    let o = sweep::run(&params(w, 0.01), &root);
    assert_clean(w.name(), &o);
    assert_eq!(o.attempted as usize, sweep::specs(w, 3).len());
    let warm = serving::run_warm(&params(Workload::ServeWarm, 0.3), &root);
    assert_clean("serve-warm", &warm);
    let layer = |o: &Outcome, k: &str| o.layer.iter().find(|(n, _)| n == k).map(|e| e.1);
    assert_eq!(
        layer(&warm, "serve.computed"),
        Some(0.0),
        "warm requests never compute"
    );
    let cold = serving::run_cold(&params(Workload::ServeCold, 0.2), &root);
    assert_clean("serve-cold", &cold);
    assert!(layer(&cold, "serve.computed").unwrap() > 0.0);
}
