//! Property-style tests of the area/power/energy models: monotonicity,
//! scaling behaviour, and cross-machine consistency.

use omega_core::config::SystemConfig;
use omega_core::runner::{RunReport, Runner};
use omega_energy::{area, energy_breakdown, node_table};
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_ligra::algorithms::Algo;

fn sample_reports() -> [RunReport; 2] {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    Runner::new(SystemConfig::mini_baseline())
        .also(SystemConfig::mini_omega())
        .run_many(&g, Algo::PageRank { iters: 1 })
        .try_into()
        .unwrap()
}

#[test]
fn cache_area_and_power_grow_with_capacity() {
    let mut prev = area::cache_slice(16 * 1024);
    for kb in [32u64, 64, 256, 1024, 2048, 4096] {
        let cur = area::cache_slice(kb * 1024);
        assert!(cur.area_mm2 > prev.area_mm2);
        assert!(cur.power_w > prev.power_w);
        prev = cur;
    }
}

#[test]
fn scratchpad_beats_cache_at_every_size() {
    for kb in [8u64, 64, 512, 1024, 4096] {
        let sp = area::scratchpad(kb * 1024);
        let cache = area::cache_slice(kb * 1024);
        assert!(sp.area_mm2 < cache.area_mm2, "{kb} KB");
        assert!(sp.power_w < cache.power_w, "{kb} KB");
    }
}

#[test]
fn mini_scale_node_is_much_smaller_than_paper_scale() {
    let mini = node_table(&SystemConfig::mini_omega()).total();
    let paper = node_table(&SystemConfig::paper_omega()).total();
    assert!(mini.area_mm2 < paper.area_mm2);
    assert!(mini.power_w < paper.power_w);
}

#[test]
fn energy_grows_with_iteration_count() {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    let cfg = SystemConfig::mini_baseline();
    let one = Runner::new(cfg).run(&g, Algo::PageRank { iters: 1 });
    let three = Runner::new(cfg).run(&g, Algo::PageRank { iters: 3 });
    let e1 = energy_breakdown(&one, &cfg).total_mj();
    let e3 = energy_breakdown(&three, &cfg).total_mj();
    assert!(
        e3 > 2.0 * e1,
        "3 iterations must cost ~3x the energy: {e1} vs {e3}"
    );
}

#[test]
fn dram_energy_tracks_dram_traffic() {
    let [base, omega] = sample_reports();
    let eb = energy_breakdown(&base, &SystemConfig::mini_baseline());
    let eo = energy_breakdown(&omega, &SystemConfig::mini_omega());
    if omega.mem.dram.bytes < base.mem.dram.bytes {
        assert!(eo.dram_mj < eb.dram_mj);
    }
}

#[test]
fn every_component_is_non_negative() {
    let [base, omega] = sample_reports();
    for (r, cfg) in [
        (&base, SystemConfig::mini_baseline()),
        (&omega, SystemConfig::mini_omega()),
    ] {
        let e = energy_breakdown(r, &cfg);
        for (name, v) in [
            ("l1", e.l1_mj),
            ("l2", e.l2_mj),
            ("scratchpad", e.scratchpad_mj),
            ("pisc", e.pisc_mj),
            ("noc", e.noc_mj),
            ("dram", e.dram_mj),
            ("leakage", e.leakage_mj),
            ("dram background", e.dram_background_mj),
        ] {
            assert!(v >= 0.0, "{name} negative: {v}");
            assert!(v.is_finite(), "{name} not finite");
        }
    }
}

#[test]
fn leakage_scales_with_runtime() {
    let [base, omega] = sample_reports();
    let eb = energy_breakdown(&base, &SystemConfig::mini_baseline());
    let eo = energy_breakdown(&omega, &SystemConfig::mini_omega());
    // The baseline runs longer, so (at comparable on-chip peak power) its
    // leakage energy must be higher.
    assert!(base.total_cycles > omega.total_cycles);
    assert!(eb.leakage_mj > eo.leakage_mj);
}
