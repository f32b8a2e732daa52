//! Persistent, content-addressed experiment store.
//!
//! The store holds two kinds of entry, each keyed by a stable 64-bit
//! fingerprint of everything that determines it, mixed with the store
//! format version:
//!
//! * a simulated [`RunReport`]: dataset + scale, algorithm (each tagged
//!   with the run's variant, if any), the complete [`SystemConfig`] and
//!   [`ExecConfig`] (see [`crate::session::ExperimentSpec::fingerprint`]
//!   and the canonicalisation machinery in `omega_sim::fingerprint`);
//! * a [`TraceSummary`] of one functional trace: dataset + scale,
//!   algorithm and [`ExecConfig`].
//!
//! An intact entry of any other kind (the `value` entries of older
//! builds) is stale: no lookup reads it, `verify` lists it and `gc`
//! removes it. Entries live under the store root sharded by fingerprint
//! prefix:
//!
//! ```text
//! <root>/<hi 2 hex digits>/<16 hex digits>.json
//! ```
//!
//! Concurrency and corruption discipline (see DESIGN.md "Result store
//! discipline"):
//!
//! * **Writes are atomic.** An entry is serialised to a unique temp file in
//!   the same shard directory and `rename`d into place, so readers — other
//!   threads of `Session::prefetch`'s pool or entirely separate processes —
//!   only ever observe absent or complete files. Losing a same-key race is
//!   harmless: both writers hold the identical deterministic payload.
//! * **Reads trust nothing.** Each entry embeds its schema, format
//!   version, fingerprint, and an FNV-1a checksum over the canonical dump
//!   of its payload. Any parse failure, field mismatch, checksum mismatch,
//!   or decode error makes the load a silent miss (counted as corrupt);
//!   the caller recomputes and rewrites. Corruption is never a panic and
//!   never yields wrong data.

use crate::json::Json;
use crate::session::TraceSummary;
use omega_core::config::SystemConfig;
use omega_core::runner::RunReport;
use omega_core::OmegaError;
use omega_ligra::ExecConfig;
use omega_sim::fingerprint::{Canonicalize, Fnv64};
use omega_sim::obs;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

pub mod codec;

/// Store format version, mixed into every fingerprint and embedded in
/// every entry. Bump when the payload encoding or the fingerprinted field
/// set changes — old entries then become unreachable (and `gc`-able)
/// instead of being misread.
///
/// v3: `MemStats` grew `dram.open_page_accesses` (the row-outcome
/// partition denominator) and `SystemConfig` grew the `pim_rank` /
/// `specialized_cache` machine coordinates. Those per-rival fields later
/// folded into one `MemoryModel` enum that canonicalises to the same
/// bytes, so v3 still holds.
pub const STORE_FORMAT_VERSION: u32 = 3;

/// Schema identifier embedded in every store entry file.
pub const STORE_ENTRY_SCHEMA: &str = "omega-store-entry/v1";

/// Entry kind for full run reports.
const KIND_RUN_REPORT: &str = "run-report";
/// Entry kind for trace summaries.
const KIND_TRACE_SUMMARY: &str = "trace-summary";
/// Every entry kind this build reads.
const KINDS: [&str; 2] = [KIND_RUN_REPORT, KIND_TRACE_SUMMARY];

/// FNV-1a digest of a payload's canonical dump, as stored in the `check`
/// field.
fn payload_checksum(payload: &Json) -> u64 {
    let mut h = Fnv64::new();
    h.write_raw(payload.dump().as_bytes());
    h.finish()
}

/// Fingerprint of a full run: experiment identity plus the complete system
/// and execution configuration.
pub fn run_fingerprint(
    dataset_code: &str,
    scale_code: &str,
    algo_name: &str,
    system: &SystemConfig,
    exec: &ExecConfig,
) -> u64 {
    let mut h = workload_hash(KIND_RUN_REPORT, [dataset_code, scale_code, algo_name]);
    system.canonicalize(&mut h);
    exec.canonicalize(&mut h);
    h.finish()
}

/// Fingerprint of a trace summary: the traced workload and the execution
/// configuration it was traced with.
pub fn summary_fingerprint(
    dataset_code: &str,
    scale_code: &str,
    algo_name: &str,
    exec: &ExecConfig,
) -> u64 {
    let mut h = workload_hash(KIND_TRACE_SUMMARY, [dataset_code, scale_code, algo_name]);
    exec.canonicalize(&mut h);
    h.finish()
}

/// A hasher over the format version, the entry kind and the workload's
/// dataset, scale and algorithm.
fn workload_hash(kind: &str, workload: [&str; 3]) -> Fnv64 {
    let mut h = Fnv64::new();
    h.write_u32(STORE_FORMAT_VERSION);
    for s in std::iter::once(kind).chain(workload) {
        h.write_str(s);
    }
    h
}

/// Hit/miss/corruption counters of one store handle (this process only).
///
/// Counters tick once per *load or persist attempt*, so they give exact
/// per-request cache outcomes: every [`ExperimentStore::load_report`] /
/// [`ExperimentStore::load_summary`] call increments exactly one of `hits`
/// or `misses` (plus `corrupt` when the miss was a damaged entry), and
/// every successful persist increments `writes`. Layers with their own
/// accounting, such as the `omega-serve` hit/miss counters, can therefore
/// reconcile against these totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Loads served from disk.
    pub hits: u64,
    /// Loads that found no (usable) entry.
    pub misses: u64,
    /// Subset of misses caused by an unreadable/corrupt entry.
    pub corrupt: u64,
    /// Entries persisted.
    pub writes: u64,
}

/// Metadata of one stored entry, as listed by [`ExperimentStore::entries`].
#[derive(Debug, Clone)]
pub struct EntryInfo {
    /// The entry's 64-bit content fingerprint.
    pub fingerprint: u64,
    /// "run-report" or "trace-summary"; an older build's kind (such as
    /// "value") for a stale entry, and "?" for an unreadable one.
    pub kind: String,
    /// Human-readable experiment label recorded at write time.
    pub label: String,
    /// On-disk size in bytes.
    pub bytes: u64,
    /// Path of the entry file.
    pub path: PathBuf,
}

/// Result of an [`ExperimentStore::verify`] sweep.
#[derive(Debug, Clone, Default)]
pub struct VerifyOutcome {
    /// Entries of a kind this build reads that parsed, matched their
    /// fingerprint, and passed the checksum.
    pub ok: usize,
    /// Files that failed any of those checks.
    pub corrupt: Vec<PathBuf>,
    /// Intact entries of a kind this build never reads.
    pub stale: Vec<PathBuf>,
}

/// Result of an [`ExperimentStore::gc`] sweep.
#[derive(Debug, Clone, Default)]
pub struct GcOutcome {
    /// Entries kept.
    pub kept: usize,
    /// Files removed (corrupt and stale entries, and leftover temp files).
    pub removed: Vec<PathBuf>,
}

/// A handle on one on-disk experiment store. Cheap to open, `Sync` (all
/// I/O goes through `&self`), safe to share across `Session::prefetch`'s
/// worker threads and across processes.
#[derive(Debug)]
pub struct ExperimentStore {
    root: PathBuf,
    counters: [AtomicU64; 4],
}

/// Per-process sequence number making concurrent temp-file names unique
/// even within one process.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl ExperimentStore {
    /// Opens (creating if needed) the store rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> io::Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(ExperimentStore {
            root,
            counters: Default::default(),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// This handle's hit/miss counters.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.counters[0].load(Ordering::Relaxed),
            misses: self.counters[1].load(Ordering::Relaxed),
            corrupt: self.counters[2].load(Ordering::Relaxed),
            writes: self.counters[3].load(Ordering::Relaxed),
        }
    }

    fn shard_dir(&self, fingerprint: u64) -> PathBuf {
        self.root.join(format!("{:02x}", fingerprint >> 56))
    }

    /// The path an entry with this fingerprint lives at.
    pub fn entry_path(&self, fingerprint: u64) -> PathBuf {
        self.shard_dir(fingerprint)
            .join(format!("{fingerprint:016x}.json"))
    }

    /// Decodes and validates one entry file's text against the expected
    /// fingerprint. Returns `(kind, payload)`; every failure mode is an
    /// [`OmegaError::Corrupt`].
    fn decode_entry(text: &str, fingerprint: u64) -> Result<(String, Json), OmegaError> {
        let corrupt = |msg: String| OmegaError::Corrupt(msg);
        let doc = Json::parse(text).map_err(|e| corrupt(format!("parse: {e:?}")))?;
        let get_str = |key: &str| -> Result<&str, OmegaError> {
            doc.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| corrupt(format!("missing `{key}`")))
        };
        if get_str("schema")? != STORE_ENTRY_SCHEMA {
            return Err(corrupt("schema mismatch".into()));
        }
        if doc.get("version").and_then(Json::as_u64) != Some(STORE_FORMAT_VERSION as u64) {
            return Err(corrupt("version mismatch".into()));
        }
        if get_str("fingerprint")? != format!("{fingerprint:016x}") {
            return Err(corrupt("fingerprint mismatch".into()));
        }
        let payload = doc
            .get("payload")
            .ok_or_else(|| corrupt("missing `payload`".into()))?;
        let check = get_str("check")?;
        if check != format!("{:016x}", payload_checksum(payload)) {
            return Err(corrupt("checksum mismatch".into()));
        }
        Ok((get_str("kind")?.to_string(), payload.clone()))
    }

    /// Loads and validates the payload stored under `fingerprint`, if any.
    /// Every failure mode — absent file, truncation, bit-flips, schema or
    /// kind mismatch — returns `None`.
    fn load_entry(&self, fingerprint: u64, kind: &str) -> Option<Json> {
        let _span = obs::span("store.read");
        let text = match fs::read_to_string(self.entry_path(fingerprint)) {
            Ok(t) => t,
            Err(_) => {
                self.counters[1].fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match Self::decode_entry(&text, fingerprint) {
            Ok((k, payload)) if k == kind => {
                self.counters[0].fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            _ => {
                self.counters[1].fetch_add(1, Ordering::Relaxed);
                self.counters[2].fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persists `payload` under `fingerprint` via temp file + atomic
    /// rename.
    fn store_entry(
        &self,
        fingerprint: u64,
        kind: &str,
        label: &str,
        payload: Json,
    ) -> io::Result<()> {
        let _span = obs::span("store.write");
        let mut doc = Json::obj();
        doc.set("schema", Json::Str(STORE_ENTRY_SCHEMA.into()));
        doc.set("version", Json::Num(STORE_FORMAT_VERSION as f64));
        doc.set("fingerprint", Json::Str(format!("{fingerprint:016x}")));
        doc.set("kind", Json::Str(kind.into()));
        doc.set("label", Json::Str(label.into()));
        doc.set(
            "check",
            Json::Str(format!("{:016x}", payload_checksum(&payload))),
        );
        doc.set("payload", payload);
        let dir = self.shard_dir(fingerprint);
        fs::create_dir_all(&dir)?;
        let tmp = dir.join(format!(
            ".tmp-{fingerprint:016x}-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, doc.dump())?;
        let result = fs::rename(&tmp, self.entry_path(fingerprint));
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result?;
        self.counters[3].fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Loads the `kind` payload stored under `fingerprint` and decodes
    /// it, if present and intact.
    fn load_decoded<T>(
        &self,
        fingerprint: u64,
        kind: &str,
        decode: fn(&Json) -> Result<T, OmegaError>,
    ) -> Option<T> {
        let payload = self.load_entry(fingerprint, kind)?;
        match decode(&payload) {
            Ok(t) => Some(t),
            Err(_) => {
                // Decoded JSON that doesn't form the payload: corrupt
                // despite the checksum matching (e.g. written by a buggy
                // build). Reclassify the hit.
                self.counters[0].fetch_sub(1, Ordering::Relaxed);
                self.counters[1].fetch_add(1, Ordering::Relaxed);
                self.counters[2].fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Loads the run report stored under `fingerprint`, if present and
    /// intact.
    pub fn load_report(&self, fingerprint: u64) -> Option<RunReport> {
        self.load_decoded(fingerprint, KIND_RUN_REPORT, codec::report_from_json)
    }

    /// Persists a run report under `fingerprint`.
    pub fn store_report(&self, fingerprint: u64, label: &str, r: &RunReport) -> io::Result<()> {
        self.store_entry(
            fingerprint,
            KIND_RUN_REPORT,
            label,
            codec::report_to_json(r),
        )
    }

    /// Loads the trace summary stored under `fingerprint`, if present and
    /// intact.
    pub fn load_summary(&self, fingerprint: u64) -> Option<TraceSummary> {
        self.load_decoded(fingerprint, KIND_TRACE_SUMMARY, codec::summary_from_json)
    }

    /// Persists a trace summary under `fingerprint`.
    pub fn store_summary(&self, fingerprint: u64, label: &str, s: &TraceSummary) -> io::Result<()> {
        self.store_entry(
            fingerprint,
            KIND_TRACE_SUMMARY,
            label,
            codec::summary_to_json(s),
        )
    }

    /// All entry files currently on disk, in shard/name order. Temp files
    /// and foreign files are skipped; unreadable entries appear with kind
    /// `"?"`.
    pub fn entries(&self) -> io::Result<Vec<EntryInfo>> {
        let mut out = Vec::new();
        for (path, fingerprint) in self.entry_files()? {
            let bytes = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let text = fs::read_to_string(&path).unwrap_or_default();
            let (kind, label) = match Self::decode_entry(&text, fingerprint) {
                Ok((kind, _)) => {
                    let label = Json::parse(&text)
                        .ok()
                        .and_then(|d| d.get("label").and_then(Json::as_str).map(str::to_string))
                        .unwrap_or_default();
                    (kind, label)
                }
                Err(_) => ("?".to_string(), String::new()),
            };
            out.push(EntryInfo {
                fingerprint,
                kind,
                label,
                bytes,
                path,
            });
        }
        Ok(out)
    }

    /// Checks every entry against its embedded fingerprint and checksum,
    /// and its kind against the kinds this build reads.
    pub fn verify(&self) -> io::Result<VerifyOutcome> {
        let mut outcome = VerifyOutcome::default();
        for (path, fingerprint) in self.entry_files()? {
            match Self::readable(&path, fingerprint) {
                Ok(true) => outcome.ok += 1,
                Ok(false) => outcome.stale.push(path),
                Err(_) => outcome.corrupt.push(path),
            }
        }
        Ok(outcome)
    }

    /// Whether the entry file at `path` is of a kind this build reads;
    /// `Err` when it does not verify at all.
    fn readable(path: &Path, fingerprint: u64) -> Result<bool, OmegaError> {
        let text = fs::read_to_string(path)?;
        let (kind, _) = Self::decode_entry(&text, fingerprint)?;
        Ok(KINDS.contains(&kind.as_str()))
    }

    /// Removes corrupt and stale entries and leftover temp files, keeping
    /// every entry this build can read.
    pub fn gc(&self) -> io::Result<GcOutcome> {
        let mut outcome = GcOutcome::default();
        // Leftover temp files from crashed writers.
        for shard in self.shard_dirs()? {
            for entry in fs::read_dir(&shard)? {
                let path = entry?.path();
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if name.starts_with(".tmp-") && fs::remove_file(&path).is_ok() {
                    outcome.removed.push(path);
                }
            }
        }
        for (path, fingerprint) in self.entry_files()? {
            if Self::readable(&path, fingerprint).unwrap_or(false) {
                outcome.kept += 1;
            } else if fs::remove_file(&path).is_ok() {
                outcome.removed.push(path);
            }
        }
        Ok(outcome)
    }

    fn shard_dirs(&self) -> io::Result<Vec<PathBuf>> {
        let mut dirs: Vec<PathBuf> = fs::read_dir(&self.root)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.is_dir()
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.len() == 2 && u8::from_str_radix(n, 16).is_ok())
            })
            .collect();
        dirs.sort();
        Ok(dirs)
    }

    /// All `<16 hex>.json` entry files with their filename fingerprints.
    fn entry_files(&self) -> io::Result<Vec<(PathBuf, u64)>> {
        let mut files = Vec::new();
        for shard in self.shard_dirs()? {
            for entry in fs::read_dir(&shard)? {
                let path = entry?.path();
                let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                    continue;
                };
                let Some(stem) = name.strip_suffix(".json") else {
                    continue;
                };
                if stem.len() != 16 {
                    continue;
                }
                let Ok(fingerprint) = u64::from_str_radix(stem, 16) else {
                    continue;
                };
                files.push((path, fingerprint));
            }
        }
        files.sort();
        Ok(files)
    }
}
