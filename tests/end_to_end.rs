//! End-to-end integration tests: the full pipeline (dataset → framework →
//! trace → lowering → timing simulation → report) across crates.

use omega_repro::core::config::{OmegaConfig, SystemConfig};
use omega_repro::core::runner::{run, run_pair, RunConfig};
use omega_repro::graph::datasets::{Dataset, DatasetScale};
use omega_repro::ligra::algorithms::Algo;
use omega_repro::sim::MachineConfig;

fn mini_pair() -> (SystemConfig, SystemConfig) {
    (SystemConfig::mini_baseline(), SystemConfig::mini_omega())
}

#[test]
fn every_algorithm_runs_end_to_end_on_both_machines() {
    let g = Dataset::Ap.build(DatasetScale::Tiny).unwrap(); // symmetric: all algos run
    let (base_cfg, omega_cfg) = mini_pair();
    for algo in omega_repro::ligra::algorithms::ALL_ALGOS {
        let algo = algo.with_default_root(&g);
        let (base, omega) = run_pair(&g, algo, &base_cfg, &omega_cfg);
        assert_eq!(
            base.checksum,
            omega.checksum,
            "{}: results must match",
            algo.name()
        );
        assert!(base.total_cycles > 0, "{}", algo.name());
        assert!(omega.total_cycles > 0, "{}", algo.name());
        assert_eq!(base.mem.scratchpad.accesses(), 0, "{}", algo.name());
    }
}

#[test]
fn natural_graphs_speed_up_more_than_road_networks() {
    let (base_cfg, omega_cfg) = mini_pair();
    let algo = Algo::PageRank { iters: 1 };
    let lj = Dataset::Lj.build(DatasetScale::Tiny).unwrap();
    let usa = Dataset::Usa.build(DatasetScale::Tiny).unwrap();
    let (lb, lo) = run_pair(&lj, algo, &base_cfg, &omega_cfg);
    let (ub, uo) = run_pair(&usa, algo, &base_cfg, &omega_cfg);
    assert!(
        lo.speedup_over(&lb) > 1.0,
        "OMEGA must win on a power-law graph, got {:.2}",
        lo.speedup_over(&lb)
    );
    assert!(
        uo.speedup_over(&ub) > 1.0,
        "OMEGA must win on a road network too, got {:.2}",
        uo.speedup_over(&ub)
    );
    // At tiny scale both graphs fit the standard scratchpads whole, so the
    // paper's Fig. 18 crossover only shows under capacity pressure: with
    // the scratchpads squeezed to ~6% the power-law graph keeps far more
    // of its win than the road network.
    let sp = omega_cfg.omega().unwrap().sp_bytes_per_core;
    let constrained = omega_cfg.with_scratchpad_bytes(sp * 63 / 1000);
    let (clb, clo) = run_pair(&lj, algo, &base_cfg, &constrained);
    let (cub, cuo) = run_pair(&usa, algo, &base_cfg, &constrained);
    let lj_constrained = clo.speedup_over(&clb);
    let usa_constrained = cuo.speedup_over(&cub);
    assert!(
        lj_constrained > usa_constrained,
        "capacity-constrained power-law speedup {lj_constrained:.2} must \
         beat road {usa_constrained:.2}"
    );
}

#[test]
fn omega_cuts_onchip_traffic_and_raises_hit_rate() {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    let (base_cfg, omega_cfg) = mini_pair();
    let (base, omega) = run_pair(&g, Algo::PageRank { iters: 1 }, &base_cfg, &omega_cfg);
    assert!(
        omega.mem.noc.bytes < base.mem.noc.bytes,
        "word packets beat line transfers"
    );
    assert!(
        omega.mem.last_level_hit_rate() > base.mem.last_level_hit_rate(),
        "scratchpads must lift the last-level hit rate"
    );
    assert!(omega.mem.scratchpad.pisc_ops > 0);
}

#[test]
fn scratchpad_sweep_is_monotone_in_residency() {
    let g = Dataset::Lj.build(DatasetScale::Tiny).unwrap();
    let mut prev_hot = u32::MAX;
    for bytes in [8 * 1024, 4 * 1024, 1024, 256] {
        let cfg = RunConfig::new(SystemConfig::mini_omega().with_scratchpad_bytes(bytes));
        let r = run(&g, Algo::PageRank { iters: 1 }, &cfg);
        assert!(
            r.hot_count <= prev_hot,
            "smaller scratchpads hold fewer vertices"
        );
        prev_hot = r.hot_count;
    }
}

#[test]
fn pisc_ablation_loses_part_of_the_speedup() {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    let algo = Algo::PageRank { iters: 1 };
    let base = run(&g, algo, &RunConfig::new(SystemConfig::mini_baseline()));
    let full = run(&g, algo, &RunConfig::new(SystemConfig::mini_omega()));
    let nopisc_cfg = SystemConfig::omega_from_baseline(
        MachineConfig::mini_baseline(),
        OmegaConfig {
            pisc_enabled: false,
            ..OmegaConfig::default()
        },
    );
    let nopisc = run(&g, algo, &RunConfig::new(nopisc_cfg));
    assert!(
        full.total_cycles < nopisc.total_cycles,
        "PISCs must add benefit over scratchpads alone: {} vs {}",
        full.total_cycles,
        nopisc.total_cycles
    );
    assert!(full.speedup_over(&base) > 1.0);
    assert_eq!(nopisc.mem.scratchpad.pisc_ops, 0);
    assert!(full.mem.scratchpad.pisc_ops > 0);
}

#[test]
fn energy_model_consumes_run_reports() {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    let (base_cfg, omega_cfg) = mini_pair();
    let (base, omega) = run_pair(&g, Algo::PageRank { iters: 1 }, &base_cfg, &omega_cfg);
    let eb = omega_repro::energy::energy_breakdown(&base, &base_cfg);
    let eo = omega_repro::energy::energy_breakdown(&omega, &omega_cfg);
    assert!(eb.total_mj() > 0.0);
    assert!(eo.total_mj() > 0.0);
    assert!(eo.scratchpad_mj > 0.0);
    assert_eq!(eb.scratchpad_mj, 0.0);
}

#[test]
fn run_reports_are_debuggable_and_complete() {
    let g = Dataset::Sd.build(DatasetScale::Tiny).unwrap();
    let r = run(
        &g,
        Algo::Bfs { root: 0 }.with_default_root(&g),
        &RunConfig::new(SystemConfig::mini_omega()),
    );
    let dump = format!("{r:?}");
    for field in ["total_cycles", "scratchpad", "dram", "hot_count"] {
        assert!(
            dump.contains(field),
            "report Debug output must include {field}"
        );
    }
    assert_eq!(r.n_vertices, g.num_vertices() as u64);
    assert_eq!(r.n_arcs, g.num_arcs());
}
