//! Persistent-store integration tests: report round-trips across every
//! machine kind (with and without telemetry), corruption injection
//! (including nesting past the JSON parser's bound), and cross-process
//! determinism through the `stats` binary.

use omega_bench::json::{Json, MAX_DEPTH};
use omega_bench::session::{
    AlgoKey, ExperimentSpec, MachineKind, Session, Slicing, TraceSummary, Variant,
};
use omega_bench::store::{summary_fingerprint, STORE_ENTRY_SCHEMA, STORE_FORMAT_VERSION};
use omega_bench::ExperimentStore;
use omega_core::runner::Runner;
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_graph::reorder::Reordering;
use omega_ligra::ExecConfig;
use omega_sim::fingerprint::Fnv64;
use omega_sim::telemetry::TelemetryConfig;
use std::path::PathBuf;

/// A unique, initially absent store root under the system temp dir.
fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("omega-store-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const ALL_MACHINES: [MachineKind; 10] = [
    MachineKind::Baseline,
    MachineKind::Omega,
    MachineKind::OmegaScaledSp { permille: 500 },
    MachineKind::OmegaNoPisc,
    MachineKind::OmegaNoSvb,
    MachineKind::OmegaChunkMismatch,
    MachineKind::OmegaOffchip,
    MachineKind::LockedCache,
    MachineKind::PimRank,
    MachineKind::SpecializedCache,
];

#[test]
fn reports_round_trip_across_all_machine_kinds_and_telemetry() {
    let dir = temp_store("roundtrip");
    let store = ExperimentStore::open(&dir).expect("store opens");
    let g = Dataset::Sd
        .build(DatasetScale::Tiny)
        .expect("dataset builds");
    for telemetry in [TelemetryConfig::off(), TelemetryConfig::windowed(2048)] {
        for m in ALL_MACHINES {
            let spec = ExperimentSpec {
                telemetry,
                ..ExperimentSpec::new(Dataset::Sd, AlgoKey::PageRank, m)
            };
            let report = Runner::new(spec.system()).run(&g, spec.algo.algo(&g));
            let fp = spec.fingerprint(DatasetScale::Tiny);
            store
                .store_report(fp, &spec.label(), &report)
                .expect("persist");
            let loaded = store.load_report(fp).expect("load back");
            assert_eq!(loaded, report, "{}", spec.label());
        }
    }
    // 10 machines × 2 telemetry settings → 20 distinct fingerprints, all
    // verifying.
    let outcome = store.verify().expect("verify");
    assert_eq!(outcome.ok, 20);
    assert!(outcome.corrupt.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn prefetch_simulates_machines_with_one_configuration_once() {
    // omega-sp1000 is the standard OMEGA machine under another label: one
    // fingerprint, so one replay and one store entry serve both specs.
    let dir = temp_store("twins");
    let omega = ExperimentSpec::new(Dataset::Sd, AlgoKey::Bfs, MachineKind::Omega);
    let full_sp = ExperimentSpec {
        machine: MachineKind::OmegaScaledSp { permille: 1000 },
        ..omega
    };
    let mut s = Session::new(DatasetScale::Tiny)
        .verbose(false)
        .with_store(&dir)
        .unwrap();
    s.prefetch(&[omega, full_sp]);
    assert_eq!(s.store().unwrap().counters().writes, 1);
    let twin = s.report(full_sp).clone();
    assert_eq!(&twin, s.report(omega));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn old_format_version_entries_are_misses_not_errors() {
    let dir = temp_store("oldversion");
    let spec = ExperimentSpec::new(Dataset::Sd, AlgoKey::Bfs, MachineKind::Baseline);
    let mut s = Session::new(DatasetScale::Tiny)
        .verbose(false)
        .with_store(&dir)
        .expect("store opens");
    s.report(spec);
    let fp = spec.fingerprint(DatasetScale::Tiny);
    let path = s.store().expect("attached").entry_path(fp);
    drop(s);

    // Rewrite the embedded format version to the previous one, as if the
    // entry had been written by an older build whose fingerprint happened
    // to collide. The payload and checksum are untouched, so only the
    // version gate can reject it — and it must reject silently, as a
    // counted miss, never an error.
    let text = std::fs::read_to_string(&path).expect("entry readable");
    let old = format!(
        "\"version\": {}",
        omega_bench::store::STORE_FORMAT_VERSION - 1
    );
    let downgraded = text.replace(
        &format!("\"version\": {}", omega_bench::store::STORE_FORMAT_VERSION),
        &old,
    );
    assert_ne!(text, downgraded, "version field must be present to rewrite");
    std::fs::write(&path, downgraded).expect("rewrite");

    let store = ExperimentStore::open(&dir).expect("reopen");
    assert!(
        store.load_report(fp).is_none(),
        "old-version entry must be a miss"
    );
    let counters = store.counters();
    assert_eq!(counters.misses, 1);
    assert_eq!(counters.corrupt, 1, "the miss is classified, not fatal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entries_are_a_silent_miss_and_heal() {
    let dir = temp_store("corrupt");
    let spec = ExperimentSpec::new(Dataset::Sd, AlgoKey::Bfs, MachineKind::Omega);
    let mut s = Session::new(DatasetScale::Tiny)
        .verbose(false)
        .with_store(&dir)
        .expect("store opens");
    let original = s.report(spec).clone();
    let fp = spec.fingerprint(DatasetScale::Tiny);
    let path = s.store().expect("attached").entry_path(fp);
    assert!(path.is_file(), "entry persisted at {}", path.display());
    let intact = std::fs::read(&path).expect("entry readable");
    drop(s);

    // Truncation → silent miss, counted as corrupt.
    std::fs::write(&path, &intact[..intact.len() / 2]).expect("truncate");
    let store = ExperimentStore::open(&dir).expect("reopen");
    assert!(store.load_report(fp).is_none(), "truncated entry must miss");
    assert_eq!(store.counters().corrupt, 1);

    // A single flipped bit near the end (inside the payload) → the
    // embedded checksum catches it.
    let mut flipped = intact.clone();
    let i = flipped.len() - 20;
    flipped[i] ^= 0x01;
    std::fs::write(&path, &flipped).expect("flip");
    assert!(
        store.load_report(fp).is_none(),
        "bit-flipped entry must miss"
    );
    assert_eq!(store.verify().expect("verify").corrupt, vec![path.clone()]);

    // A fresh session recomputes the identical report and rewrites the
    // entry; gc then finds nothing left to remove.
    let mut healed = Session::new(DatasetScale::Tiny)
        .verbose(false)
        .with_store(&dir)
        .expect("store opens");
    assert_eq!(*healed.report(spec), original);
    let counters = healed.store().expect("attached").counters();
    assert_eq!(counters.corrupt, 1);
    assert_eq!(counters.writes, 1);
    let outcome = ExperimentStore::open(&dir)
        .expect("reopen")
        .gc()
        .expect("gc");
    assert_eq!(outcome.kept, 1);
    assert!(outcome.removed.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Nesting depth of a document: 0 for a scalar, else one more than its
/// deepest member.
fn depth(v: &Json) -> usize {
    match v {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(entries) => 1 + entries.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// Pins the depth of the deepest entry the store writes — a
/// telemetry-carrying run report — that `json::MAX_DEPTH` is derived
/// from. A schema change that nests deeper fails here first.
#[test]
fn deepest_entry_nests_within_the_json_bound() {
    let dir = temp_store("deepest");
    let store = ExperimentStore::open(&dir).expect("store opens");
    let g = Dataset::Sd
        .build(DatasetScale::Tiny)
        .expect("dataset builds");
    let spec = ExperimentSpec {
        telemetry: TelemetryConfig::windowed(2048),
        ..ExperimentSpec::new(Dataset::Sd, AlgoKey::PageRank, MachineKind::Omega)
    };
    let report = Runner::new(spec.system()).run(&g, spec.algo.algo(&g));
    assert!(report.telemetry.is_some());
    let fp = spec.fingerprint(DatasetScale::Tiny);
    store
        .store_report(fp, &spec.label(), &report)
        .expect("persist");
    let text = std::fs::read_to_string(store.entry_path(fp)).expect("entry readable");
    let doc = Json::parse(&text).expect("the entry parses");
    assert_eq!(depth(&doc), 7);
    assert!(depth(&doc) <= MAX_DEPTH);
    assert_eq!(store.load_report(fp), Some(report));
    let _ = std::fs::remove_dir_all(&dir);
}

/// An entry nested far past `json::MAX_DEPTH` is one more corrupt entry:
/// a counted miss on load, listed by `verify`, removed by `gc`. It must
/// never overflow the reader's stack.
#[test]
fn deeply_nested_entry_is_a_corrupt_miss() {
    let dir = temp_store("deep");
    let spec = ExperimentSpec::new(Dataset::Sd, AlgoKey::Bfs, MachineKind::Baseline);
    let mut s = Session::new(DatasetScale::Tiny)
        .verbose(false)
        .with_store(&dir)
        .expect("store opens");
    s.report(spec);
    let fp = spec.fingerprint(DatasetScale::Tiny);
    let path = s.store().expect("attached").entry_path(fp);
    drop(s);
    std::fs::write(&path, "[".repeat(100_000)).expect("overwrite");

    let store = ExperimentStore::open(&dir).expect("reopen");
    assert!(store.load_report(fp).is_none(), "deep entry must miss");
    let counters = store.counters();
    assert_eq!((counters.misses, counters.corrupt), (1, 1));
    let verified = store.verify().expect("verify");
    assert_eq!((verified.ok, verified.corrupt), (0, vec![path.clone()]));
    let collected = store.gc().expect("gc");
    assert_eq!((collected.kept, collected.removed), (0, vec![path.clone()]));
    assert!(!path.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cross_process_dump_is_deterministic_and_warm() {
    let dir = temp_store("xproc");
    let run = || {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_stats"))
            .args([
                "dump",
                "--dataset",
                "sd",
                "--algo",
                "pagerank",
                "--machine",
                "omega",
                "--scale",
                "tiny",
                "--window",
                "2048",
                "--store",
                dir.to_str().expect("utf8 temp path"),
            ])
            .output()
            .expect("stats runs");
        assert!(
            out.status.success(),
            "stats dump failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8 dump")
    };
    let cold = run();
    let warm = run();

    // The documents must be byte-identical apart from the store-counter
    // object, which is exactly what distinguishes a warm run from a cold
    // one.
    let strip = |text: &str| {
        let doc = Json::parse(text).expect("dump parses");
        let store = doc.get("store").expect("store counters present");
        let hits = store.get("hits").and_then(Json::as_u64).expect("hits");
        let misses = store.get("misses").and_then(Json::as_u64).expect("misses");
        let mut rest = Json::obj();
        for (k, v) in doc.as_object().expect("object") {
            if k != "store" {
                rest.set(k.as_str(), v.clone());
            }
        }
        (rest.dump(), hits, misses)
    };
    let (cold_doc, cold_hits, cold_misses) = strip(&cold);
    let (warm_doc, warm_hits, warm_misses) = strip(&warm);
    assert_eq!(cold_doc, warm_doc, "warm dump differs from cold dump");
    assert_eq!(cold_hits, 0);
    assert!(cold_misses >= 1);
    assert!(warm_hits >= 1);
    assert_eq!(warm_misses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pinned store fingerprints of PageRank on sd at tiny scale (telemetry
/// off) for every machine kind. Store format v3 entries are addressed by
/// these values, so stores written by earlier builds keep serving only
/// while `MemoryModel` canonicalises to the v3 byte layout. A change here
/// moves every store entry and needs a `STORE_FORMAT_VERSION` bump.
#[test]
fn store_fingerprints_are_pinned() {
    let pinned: [(MachineKind, u64); 10] = [
        (MachineKind::Baseline, 0xa67a_1880_80e7_6830),
        (MachineKind::Omega, 0xd8fc_c870_d493_11f8),
        (MachineKind::OmegaNoPisc, 0x2bb6_043a_5e2d_14f1),
        (MachineKind::OmegaNoSvb, 0xe705_6e0f_2fbe_ed5f),
        (MachineKind::OmegaChunkMismatch, 0x760a_80fe_a3ae_f8f4),
        (MachineKind::OmegaOffchip, 0x7d9d_64b1_5c0e_34d3),
        (MachineKind::LockedCache, 0x8ca0_b5ad_7e62_8cc7),
        (MachineKind::PimRank, 0x4266_d253_5f8c_7cf5),
        (MachineKind::SpecializedCache, 0x2028_7d93_74d6_997f),
        (
            MachineKind::OmegaScaledSp { permille: 250 },
            0x935e_43ab_d0a9_1c00,
        ),
    ];
    for (m, want) in pinned {
        let spec = ExperimentSpec::new(Dataset::Sd, AlgoKey::PageRank, m);
        let fp = spec.fingerprint(DatasetScale::Tiny);
        assert_eq!(fp, want, "{}: got {fp:#018x}", spec.label());
    }
}

/// Pinned store fingerprints at tiny scale of one trace summary (PageRank
/// on sd, default execution parameters) and of one run per non-standard
/// [`Variant`] case. Like the run keys above, a change here moves every
/// stored entry of that kind.
#[test]
fn variant_and_summary_fingerprints_are_pinned() {
    let summary = summary_fingerprint(
        Dataset::Sd.code(),
        DatasetScale::Tiny.code(),
        AlgoKey::PageRank.name(),
        &ExecConfig::default(),
    );
    assert_eq!(
        summary, 0x6c4d_b60a_54a5_6d99,
        "summary: got {summary:#018x}"
    );
    let pinned: [(Variant, MachineKind, u64); 6] = [
        (
            Variant::DramChannels(2),
            MachineKind::PimRank,
            0x1831_71a3_341e_0397,
        ),
        (
            Variant::PlainAtomics,
            MachineKind::Baseline,
            0xb72c_bb98_d31d_69cc,
        ),
        (Variant::GraphMat, MachineKind::Omega, 0x7ab1_f2d3_05a2_2894),
        (
            Variant::Reordered(Reordering::InDegreeSort),
            MachineKind::Baseline,
            0xfa1d_7bab_92bc_06fb,
        ),
        (
            Variant::Sliced {
                slicing: Slicing::Unsliced,
                index: 0,
            },
            MachineKind::Omega,
            0x774d_69e3_5db1_a9fe,
        ),
        (
            Variant::Sliced {
                slicing: Slicing::HotFits,
                index: 1,
            },
            MachineKind::Omega,
            0x1b77_304a_6dbc_6a96,
        ),
    ];
    for (variant, m, want) in pinned {
        let spec = ExperimentSpec {
            variant,
            ..ExperimentSpec::new(Dataset::Sd, AlgoKey::PageRank, m)
        };
        let fp = spec.fingerprint(DatasetScale::Tiny);
        assert_eq!(fp, want, "{}: got {fp:#018x}", spec.label());
    }
}

/// Four DRAM channels is the mini machines' own count, so that channel
/// case is a fingerprint twin of the standard run and shares its entry.
#[test]
fn the_standard_channel_count_is_a_twin_of_the_standard_run() {
    for m in [
        MachineKind::Baseline,
        MachineKind::Omega,
        MachineKind::PimRank,
    ] {
        let standard = ExperimentSpec::new(Dataset::Lj, AlgoKey::PageRank, m);
        let channels = m.system().machine.dram.channels;
        let twin = ExperimentSpec {
            variant: Variant::DramChannels(channels),
            ..standard
        };
        assert_eq!(channels, 4);
        assert_eq!(
            twin.fingerprint(DatasetScale::Tiny),
            standard.fingerprint(DatasetScale::Tiny)
        );
    }
}

/// An intact entry of a kind this build never reads, as an older build
/// wrote for a figure value: `verify` lists it as stale and `gc` reclaims
/// it, while the entries this build reads stay.
#[test]
fn verify_lists_and_gc_reclaims_entries_of_kinds_no_lookup_reads() {
    let dir = temp_store("stale");
    let store = ExperimentStore::open(&dir).expect("store opens");
    let summary = TraceSummary {
        atomic_fraction: 0.25,
        random_fraction: 0.5,
        monitored_props: 1,
        hot_prop_share: 0.75,
    };
    store
        .store_summary(1, "summary", &summary)
        .expect("persist");
    let mut payload = Json::obj();
    payload.set("share", Json::Str(format!("{:016x}", 0.5f64.to_bits())));
    let mut check = Fnv64::new();
    check.write_raw(payload.dump().as_bytes());
    let mut doc = Json::obj();
    doc.set("schema", Json::Str(STORE_ENTRY_SCHEMA.into()));
    doc.set("version", Json::Num(STORE_FORMAT_VERSION as f64));
    doc.set("fingerprint", Json::Str(format!("{:016x}", 2)));
    doc.set("kind", Json::Str("value".into()));
    doc.set("label", Json::Str("prop-share-PageRank-sd".into()));
    doc.set("check", Json::Str(format!("{:016x}", check.finish())));
    doc.set("payload", payload);
    let stale = store.entry_path(2);
    std::fs::create_dir_all(stale.parent().expect("shard dir")).expect("mkdir");
    std::fs::write(&stale, doc.dump()).expect("write");

    let outcome = store.verify().expect("verify");
    assert_eq!(outcome.ok, 1);
    assert!(outcome.corrupt.is_empty());
    assert_eq!(outcome.stale, std::slice::from_ref(&stale));
    let gc = store.gc().expect("gc");
    assert_eq!((gc.kept, gc.removed), (1, vec![stale.clone()]));
    assert!(!stale.exists());
    assert!(store.verify().expect("verify").stale.is_empty());
    assert_eq!(store.load_summary(1), Some(summary));
    let _ = std::fs::remove_dir_all(&dir);
}
