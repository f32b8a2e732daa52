//! `serve-warm` and `serve-cold`: an in-process `omega-serve` driven by
//! closed-loop clients over TCP, every payload verified against the
//! offline report for its spec.

use crate::host::{cpu_seconds, TempDir};
use crate::hostspeed::Sampler;
use crate::spans::Span;
use crate::stats::median;
use crate::sweep::shuffle;
use crate::verify::offline_payload;
use crate::workload::{machine_kinds, Interval, Outcome, Params, Timed};
use omega_bench::session::{AlgoKey, ExperimentSpec, MachineKind, Session};
use omega_bench::Json;
use omega_core::runner::timing_replay_count;
use omega_core::OmegaError;
use omega_graph::datasets::{Dataset, DatasetScale};
use omega_graph::rng::SmallRng;
use omega_serve::{serve, Client, Response, RunRequest, ServeConfig, ServerHandle};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client connections, one thread each.
pub const CONNECTIONS: usize = 2;
/// `serve-warm`: pipelined v2 `run` frames each connection keeps in flight.
pub const WARM_WINDOW: usize = 4;
/// `serve-warm`: the server's memo capacity, well below the universe.
pub const WARM_MEMO_ENTRIES: usize = 64;
/// `serve-warm`: Zipf exponent of the request stream. An assumption, not a
/// measurement: no recorded `omega-serve` client traffic exists to fit. 1.0
/// is the classic Zipf law, somewhat steeper than the 0.64–0.83 Breslau et
/// al. ("Web Caching and Zipf-like Distributions", INFOCOM 1999) measured
/// on web proxy traces, so it favours the memo over the store.
pub const ZIPF_S: f64 = 1.0;
/// `serve-warm`: set-ups per run (the median is reported).
pub const WARM_SETUPS: usize = 3;
/// `serve-cold`: distinct specs one server instance answers before it is
/// replaced by a fresh one with an empty store. Each epoch touches about
/// 35 of the 48 trace groups, so a functional trace serves ~2 replays.
pub const COLD_EPOCH_SPECS: usize = 64;

/// The algorithms the serve universes draw from (BC and Radii are left
/// out: a tiny Radii replay costs as much as the rest of its dataset).
const SERVE_ALGOS: [AlgoKey; 6] = [
    AlgoKey::PageRank,
    AlgoKey::Bfs,
    AlgoKey::Sssp,
    AlgoKey::Cc,
    AlgoKey::Tc,
    AlgoKey::KCore,
];

/// Whether `algo` runs on `dataset`: CC, TC and k-core need a symmetric
/// graph (Table II), which only the undirected datasets are.
fn supported(dataset: Dataset, algo: AlgoKey) -> bool {
    let needs_undirected = matches!(algo, AlgoKey::Cc | AlgoKey::Tc | AlgoKey::KCore);
    !needs_undirected || !dataset.meta().directed
}

/// dataset × supported algorithm × machine kind, in a fixed order.
pub fn universe() -> Vec<ExperimentSpec> {
    let kinds = machine_kinds();
    let mut out = Vec::new();
    for d in Dataset::ALL {
        for a in SERVE_ALGOS.into_iter().filter(|&a| supported(d, a)) {
            out.extend(kinds.iter().map(|&m| ExperimentSpec::new(d, a, m)));
        }
    }
    out
}

fn server_config(p: &Params, store: &TempDir, memo_entries: usize) -> ServeConfig {
    ServeConfig {
        jobs: p.jobs,
        memo_entries,
        store: Some(store.path().to_path_buf()),
        ..ServeConfig::default()
    }
}

/// Shuts a server down and waits for it to drain.
fn stop(server: ServerHandle) {
    if let Ok(mut c) = Client::connect(server.addr()) {
        let _ = c.shutdown();
    }
    server.wait();
}

/// The `stats` counters the ledger reports as deltas: metric name and
/// path in the `omega-serve-stats` payload.
const COUNTERS: [(&str, &[&str]); 10] = [
    ("serve.memo_hits", &["memo", "hits"]),
    ("serve.store_hits", &["store", "hits"]),
    ("serve.computed", &["misses"]),
    ("serve.grouped", &["grouped"]),
    ("serve.shed", &["shed"]),
    ("serve.evictions", &["evictions"]),
    ("store.hits", &["store", "hits"]),
    ("store.misses", &["store", "misses"]),
    ("store.writes", &["store", "writes"]),
    ("store.corrupt", &["store", "corrupt"]),
];

/// Values of [`COUNTERS`], in order.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounts([f64; COUNTERS.len()]);

impl ServeCounts {
    /// Reads the live counters of the server behind `client`.
    pub fn read(client: &mut Client) -> Result<ServeCounts, OmegaError> {
        let stats = client.stats()?;
        Ok(ServeCounts(COUNTERS.map(|(_, path)| {
            path.iter()
                .try_fold(&stats, |v, key| v.get(key))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        })))
    }

    /// The counter named `name`.
    fn get(&self, name: &str) -> f64 {
        let i = COUNTERS.iter().position(|c| c.0 == name);
        self.0[i.expect("a known counter")]
    }

    /// `self - earlier`, accumulated into `total`.
    fn add_delta(&self, earlier: &ServeCounts, total: &mut ServeCounts) {
        for i in 0..COUNTERS.len() {
            total.0[i] += self.0[i] - earlier.0[i];
        }
    }

    /// The per-layer metrics these counters feed.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = COUNTERS
            .iter()
            .zip(self.0)
            .map(|(c, v)| (c.0.to_string(), v))
            .collect();
        let memo = self.get("serve.memo_hits");
        let served = memo + self.get("serve.store_hits") + self.get("serve.computed");
        let ratio = if served > 0.0 { memo / served } else { 0.0 };
        out.push(("serve.memo_hit_ratio".into(), ratio));
        out
    }
}

/// Whether `resp` carries exactly `expected`.
fn payload_is(resp: &Result<Response, OmegaError>, expected: &str) -> bool {
    matches!(resp, Ok(Response::Ok(payload)) if payload.dump() == expected)
}

fn describe(resp: &Result<Response, OmegaError>) -> String {
    match resp {
        Ok(Response::Ok(_)) => "a payload that differs from the offline report".into(),
        Ok(other) => format!("{other:?}"),
        Err(e) => e.to_string(),
    }
}

/// Requests issued by this process, numbered for the span log.
static REQUEST_IDS: AtomicU64 = AtomicU64::new(1);

/// What one client connection saw.
#[derive(Default)]
struct ConnResult {
    attempted: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
    problems: Vec<String>,
}

impl ConnResult {
    fn record(&mut self, ok: bool, latency: Duration, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if ok {
            self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        } else {
            self.failed += 1;
            self.latencies_ms.push(f64::INFINITY);
            if self.problems.len() < 4 {
                self.problems.push(what());
            }
        }
    }

    /// Adds this connection's requests to `out`, latencies tagged with
    /// the interval's speed factor `f`.
    fn merge_into(self, out: &mut Outcome, f: f64) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.latencies_ms.extend(
            self.latencies_ms
                .into_iter()
                .map(|clock| Timed { clock, factor: f }),
        );
        for p in self.problems {
            out.problem(p);
        }
    }
}

// ---------------------------------------------------------------- warm --

/// Seeded Zipf(`s`) draws over `n` ranks; rank `k` maps to a seeded
/// permutation of the universe, so popularity is not tied to spec order.
struct Zipf {
    cdf: Vec<f64>,
    rng: SmallRng,
}

impl Zipf {
    fn new(n: usize, s: f64, seed: u64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf {
            cdf,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn next(&mut self) -> usize {
        let u = self.rng.gen_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One warm set-up: a fresh store filled through `Session::prefetch`,
/// the offline payloads, a server over the store, and its memo filled.
struct WarmEnv {
    server: ServerHandle,
    expected: Vec<String>,
    prefetch_s: f64,
    parallel_eff: f64,
    _dir: TempDir,
}

fn warm_setup(p: &Params, universe: &[ExperimentSpec], rank: &[usize], parent: &Span) -> WarmEnv {
    let span = parent.child("setup");
    let dir = TempDir::new("serve-warm").expect("creating the store directory");
    let mut session = Session::new(p.scale)
        .verbose(false)
        .jobs(p.jobs)
        .with_store(dir.path())
        .expect("opening the store");
    for &d in &Dataset::ALL {
        let _build = span.child(format!("graph.build:{}", d.code()));
        session.graph(d);
    }
    let fill = span.child("session.prefetch");
    let (c0, t0) = (cpu_seconds(), Instant::now());
    session.prefetch(universe);
    let prefetch_s = t0.elapsed().as_secs_f64();
    let parallel_eff = (cpu_seconds() - c0) / (prefetch_s * p.jobs as f64);
    drop(fill);
    let expected = universe
        .iter()
        .map(|&s| offline_payload(s, session.report(s)))
        .collect();
    let server = {
        let _start = span.child("serve.start");
        serve(server_config(p, &dir, WARM_MEMO_ENTRIES)).expect("starting omega-serve")
    };
    // Fill the memo with the stream's head before timing anything.
    let _warm = span.child("serve.warmup");
    let mut client = Client::connect(server.addr()).expect("connecting to omega-serve");
    let mut zipf = Zipf::new(universe.len(), ZIPF_S, p.seed ^ 0x5eed);
    for _ in 0..4 * WARM_MEMO_ENTRIES {
        let spec = universe[rank[zipf.next()]];
        let _ = client.run(RunRequest {
            spec,
            scale: p.scale,
        });
    }
    WarmEnv {
        server,
        expected,
        prefetch_s,
        parallel_eff,
        _dir: dir,
    }
}

/// What every warm connection shares.
struct WarmCtx<'a> {
    universe: &'a [ExperimentSpec],
    rank: &'a [usize],
    expected: &'a [String],
    scale: DatasetScale,
}

/// One warm connection: its socket and its seeded request stream.
struct WarmConn {
    client: Client,
    zipf: Zipf,
}

/// One slice of a closed-loop connection: keeps [`WARM_WINDOW`] requests
/// in flight until `deadline`, then drains. Latency runs from send until
/// the client takes the response in send order.
fn warm_slice(conn: &mut WarmConn, ctx: &WarmCtx, deadline: Instant, parent: &Span) -> ConnResult {
    let span = parent.child("serve.connection");
    let mut res = ConnResult::default();
    let mut window: VecDeque<(u64, u64, Instant, usize)> = VecDeque::new();
    let send = |conn: &mut WarmConn, window: &mut VecDeque<_>, res: &mut ConnResult| {
        let idx = ctx.rank[conn.zipf.next()];
        let req = omega_serve::Request::Run(RunRequest {
            spec: ctx.universe[idx],
            scale: ctx.scale,
        });
        let sent = Instant::now();
        match conn.client.send(&req) {
            Ok(id) => {
                window.push_back((id, REQUEST_IDS.fetch_add(1, Ordering::Relaxed), sent, idx))
            }
            Err(e) => res.record(false, Duration::ZERO, || format!("send: {e}")),
        }
    };
    for _ in 0..WARM_WINDOW {
        send(conn, &mut window, &mut res);
    }
    while let Some((id, req, sent, idx)) = window.pop_front() {
        let resp = conn.client.recv(id);
        let done = Instant::now();
        span.record_child("serve.request", req, sent, done);
        let ok = payload_is(&resp, &ctx.expected[idx]);
        res.record(ok, done - sent, || {
            format!("{}: {}", ctx.universe[idx].label(), describe(&resp))
        });
        if resp.is_err() {
            break; // the connection is unusable
        }
        if done < deadline {
            send(conn, &mut window, &mut res);
        }
    }
    res
}

/// `serve-warm` measures in slices of this length, each one interval of
/// the host speed index.
const WARM_SLICE_S: f64 = 0.5;

/// Seeds the fixed popularity order of the universe: which specs are hot
/// is part of the workload; `--seed` only draws the request sequence.
const POPULARITY_SEED: u64 = 0x2017_0e6a;

/// `serve-warm`: every request is a memo or store hit, so no replay may
/// run while it is measured.
pub fn run_warm(p: &Params, parent: &Span) -> Outcome {
    let universe = universe();
    let mut rank: Vec<usize> = (0..universe.len()).collect();
    shuffle(&mut rank, &mut SmallRng::seed_from_u64(POPULARITY_SEED));
    let mut out = Outcome::default();
    let sampler = Sampler::start();
    let mut env: Option<WarmEnv> = None;
    let (mut prefetch_s, mut parallel_eff) = (Vec::new(), Vec::new());
    for _ in 0..WARM_SETUPS {
        if let Some(old) = env.take() {
            stop(old.server);
        }
        let t = Instant::now();
        let e = warm_setup(p, &universe, &rank, parent);
        let setup_s = t.elapsed().as_secs_f64();
        let f = sampler.factor(t, Instant::now());
        out.setup_s.push(Timed {
            clock: setup_s,
            factor: f,
        });
        prefetch_s.push(e.prefetch_s / f);
        parallel_eff.push(e.parallel_eff);
        env = Some(e);
    }
    let env = env.expect("at least one set-up");
    let addr = env.server.addr();
    let mut stats_client = Client::connect(addr).expect("connecting to omega-serve");
    let before = ServeCounts::read(&mut stats_client).expect("reading serve stats");
    let mut conns: Vec<WarmConn> = (0..CONNECTIONS as u64)
        .map(|c| WarmConn {
            client: Client::connect(addr).expect("connecting to omega-serve"),
            zipf: Zipf::new(
                universe.len(),
                ZIPF_S,
                p.seed.wrapping_mul(31).wrapping_add(c + 1),
            ),
        })
        .collect();
    let ctx = WarmCtx {
        universe: &universe,
        rank: &rank,
        expected: &env.expected,
        scale: p.scale,
    };

    let measure = parent.child("measure");
    let replays0 = timing_replay_count();
    while out.raw_wall_s < p.seconds {
        let slice = WARM_SLICE_S.min(p.seconds - out.raw_wall_s).max(0.05);
        crate::alloc::reset_peak();
        let (c0, t0) = (cpu_seconds(), Instant::now());
        let deadline = t0 + Duration::from_secs_f64(slice);
        let results: Vec<ConnResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .map(|conn| {
                    let (ctx, measure) = (&ctx, &measure);
                    scope.spawn(move || warm_slice(conn, ctx, deadline, measure))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
        let (wall, cpu) = (t0.elapsed().as_secs_f64(), cpu_seconds() - c0);
        let f = sampler.factor(t0, Instant::now());
        out.speed_factors.push(f);
        out.raw_wall_s += wall;
        let ok: u64 = results.iter().map(|r| r.attempted - r.failed).sum();
        out.intervals.push(Interval::measured(
            ok as f64,
            wall,
            cpu,
            f,
            crate::alloc::peak_bytes(),
        ));
        for r in results {
            r.merge_into(&mut out, f);
        }
    }
    let replays = timing_replay_count() - replays0;
    drop(measure);
    if replays != 0 {
        out.failed += 1;
        out.problem(format!("serve-warm ran {replays} timing replays"));
    }
    let after = ServeCounts::read(&mut stats_client).expect("reading serve stats");
    let mut delta = ServeCounts::default();
    after.add_delta(&before, &mut delta);
    out.layer.extend(delta.metrics());
    out.layer
        .push(("session.prefetch_s".into(), median(&prefetch_s)));
    out.layer
        .push(("session.parallel_eff".into(), median(&parallel_eff)));
    drop(conns);
    drop(stats_client);
    stop(env.server);
    out
}

// ---------------------------------------------------------------- cold --

/// One cold epoch's server: an empty store, graphs built by one warm-up
/// request per dataset.
struct ColdEnv {
    server: ServerHandle,
    warmups: Vec<(ExperimentSpec, Result<Response, OmegaError>)>,
    _dir: TempDir,
}

/// The spec each cold set-up requests per dataset, outside the stream.
fn warmup_spec(d: Dataset) -> ExperimentSpec {
    ExperimentSpec::new(d, AlgoKey::PageRank, MachineKind::Baseline)
}

fn cold_setup(p: &Params, epoch: u64, parent: &Span) -> ColdEnv {
    let span = parent.child("setup");
    let dir = TempDir::new(&format!("serve-cold-{epoch}")).expect("creating the store directory");
    let server = {
        let _start = span.child("serve.start");
        serve(server_config(p, &dir, ServeConfig::default().memo_entries))
            .expect("starting omega-serve")
    };
    let mut client = Client::connect(server.addr()).expect("connecting to omega-serve");
    let warmups = Dataset::ALL
        .iter()
        .map(|&d| {
            let _w = span.child(format!("serve.warmup:{}", d.code()));
            let spec = warmup_spec(d);
            let resp = client.run(RunRequest {
                spec,
                scale: p.scale,
            });
            (spec, resp)
        })
        .collect();
    ColdEnv {
        server,
        warmups,
        _dir: dir,
    }
}

/// Seeds the fixed partition of the cold universe into epochs: which
/// specs share a server, and so a functional trace, is part of the
/// workload; `--seed` orders the epochs and the requests inside each.
const PARTITION_SEED: u64 = 0x2018_c01d;

/// `serve-cold`: each epoch starts a fresh server over an empty store
/// (set-up, untimed), then two connections send one `run` at a time over
/// the epoch's specs (measured). A run measures whole passes over the
/// universe; each pass is one interval.
pub fn run_cold(p: &Params, parent: &Span) -> Outcome {
    let warm_specs: Vec<ExperimentSpec> = Dataset::ALL.iter().map(|&d| warmup_spec(d)).collect();
    let mut stream: Vec<ExperimentSpec> = universe()
        .into_iter()
        .filter(|s| !warm_specs.contains(s))
        .collect();
    shuffle(&mut stream, &mut SmallRng::seed_from_u64(PARTITION_SEED));
    let epochs: Vec<&[ExperimentSpec]> = stream.chunks(COLD_EPOCH_SPECS).collect();
    let mut rng = SmallRng::seed_from_u64(p.seed);
    let mut out = Outcome::default();
    let mut served: Vec<(ExperimentSpec, Result<String, String>)> = Vec::new();
    let mut counts = ServeCounts::default();
    let sampler = Sampler::start();
    let measure = parent.child("measure");
    let mut epoch = 0u64;
    while out.raw_wall_s < p.seconds {
        let mut pass = Interval::default();
        crate::alloc::reset_peak();
        let mut order: Vec<usize> = (0..epochs.len()).collect();
        shuffle(&mut order, &mut rng);
        for e in order {
            let mut slice = epochs[e].to_vec();
            shuffle(&mut slice, &mut rng);
            let t = Instant::now();
            let env = cold_setup(p, epoch, &measure);
            let setup_s = t.elapsed().as_secs_f64();
            out.setup_s.push(Timed {
                clock: setup_s,
                factor: sampler.factor(t, Instant::now()),
            });
            for (spec, resp) in env.warmups {
                served.push((spec, into_payload(resp)));
            }
            let addr = env.server.addr();
            let mut stats_client = Client::connect(addr).expect("connecting to omega-serve");
            let before = ServeCounts::read(&mut stats_client).expect("reading serve stats");
            let next = AtomicUsize::new(0);
            let got: Mutex<Vec<(ExperimentSpec, Result<String, String>)>> = Mutex::new(Vec::new());
            let epoch_span = measure.request("serve.epoch", epoch + 1);
            let (c0, t0) = (cpu_seconds(), Instant::now());
            let conns: Vec<ConnResult> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CONNECTIONS)
                    .map(|_| {
                        let (slice, next, got, epoch_span) = (&slice, &next, &got, &epoch_span);
                        scope.spawn(move || {
                            cold_connection(addr, slice, next, got, p.scale, epoch_span)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a client thread panicked"))
                    .collect()
            });
            let (wall, cpu) = (t0.elapsed().as_secs_f64(), cpu_seconds() - c0);
            drop(epoch_span);
            let f = sampler.factor(t0, Instant::now());
            out.speed_factors.push(f);
            out.raw_wall_s += wall;
            let ok: u64 = conns.iter().map(|c| c.attempted - c.failed).sum();
            pass.add(Interval::measured(
                ok as f64,
                wall,
                cpu,
                f,
                crate::alloc::peak_bytes(),
            ));
            for c in conns {
                c.merge_into(&mut out, f);
            }
            served.extend(got.into_inner().expect("no client thread panicked"));
            let after = ServeCounts::read(&mut stats_client).expect("reading serve stats");
            after.add_delta(&before, &mut counts);
            drop(stats_client);
            stop(env.server);
            epoch += 1;
        }
        out.intervals.push(pass);
    }
    drop(measure);
    verify_cold(p, &served, &mut out, parent);
    out.layer.extend(counts.metrics());
    out
}

fn into_payload(resp: Result<Response, OmegaError>) -> Result<String, String> {
    match resp {
        Ok(Response::Ok(payload)) => Ok(payload.dump()),
        other => Err(describe(&other)),
    }
}

fn cold_connection(
    addr: std::net::SocketAddr,
    slice: &[ExperimentSpec],
    next: &AtomicUsize,
    got: &Mutex<Vec<(ExperimentSpec, Result<String, String>)>>,
    scale: DatasetScale,
    parent: &Span,
) -> ConnResult {
    let span = parent.child("serve.connection");
    let mut res = ConnResult::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            res.record(false, Duration::ZERO, || format!("connect: {e}"));
            return res;
        }
    };
    let mut mine = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&spec) = slice.get(i) else { break };
        let req = REQUEST_IDS.fetch_add(1, Ordering::Relaxed);
        let sent = Instant::now();
        let resp = client.run(RunRequest { spec, scale });
        let done = Instant::now();
        span.record_child("serve.request", req, sent, done);
        // Payloads are checked against the offline reports after the
        // measured phase; here only the envelope counts.
        let ok = matches!(resp, Ok(Response::Ok(_)));
        res.record(ok, done - sent, || {
            format!("{}: {}", spec.label(), describe(&resp))
        });
        let broken = resp.is_err();
        mine.push((spec, into_payload(resp)));
        if broken {
            break;
        }
    }
    got.lock().expect("no client thread panicked").extend(mine);
    res
}

/// Recomputes every served spec offline (one `Session::prefetch`, no
/// store) and checks each payload byte for byte. A mismatching payload
/// turns a counted success into a failure.
fn verify_cold(
    p: &Params,
    served: &[(ExperimentSpec, Result<String, String>)],
    out: &mut Outcome,
    parent: &Span,
) {
    let _span = parent.child("verify");
    let mut distinct: Vec<ExperimentSpec> = Vec::new();
    let mut index: HashMap<ExperimentSpec, usize> = HashMap::new();
    for (spec, _) in served {
        index.entry(*spec).or_insert_with(|| {
            distinct.push(*spec);
            distinct.len() - 1
        });
    }
    let mut session = Session::new(p.scale).verbose(false).jobs(p.jobs);
    let (c0, t0) = (cpu_seconds(), Instant::now());
    session.prefetch(&distinct);
    let prefetch_s = t0.elapsed().as_secs_f64();
    let parallel_eff = (cpu_seconds() - c0) / (prefetch_s * p.jobs as f64);
    let expected: Vec<String> = distinct
        .iter()
        .map(|&s| offline_payload(s, session.report(s)))
        .collect();
    let warm_specs: Vec<ExperimentSpec> = Dataset::ALL.iter().map(|&d| warmup_spec(d)).collect();
    for (spec, payload) in served {
        let measured = !warm_specs.contains(spec);
        match payload {
            Ok(text) if *text == expected[index[spec]] => {}
            Ok(_) => {
                // Set-up warm-ups are not counted operations, but a wrong
                // warm-up payload still fails the run.
                out.failed += 1;
                if !measured {
                    out.attempted += 1;
                }
                out.problem(format!(
                    "{}: payload differs from the offline report",
                    spec.label()
                ));
            }
            Err(e) if !measured => {
                out.attempted += 1;
                out.failed += 1;
                out.problem(format!("warm-up {}: {e}", spec.label()));
            }
            Err(_) => {} // already counted by the connection
        }
    }
    out.layer.push(("session.prefetch_s".into(), prefetch_s));
    out.layer
        .push(("session.parallel_eff".into(), parallel_eff));
}

// --------------------------------------------------------------- probe --

/// Single-request round trips on an idle server, for the serve layer of
/// the ledger: computed, store-hit and memo-hit requests.
#[derive(Debug, Default)]
pub struct RttProbe {
    /// Median computed round trip, ms.
    pub computed_ms: f64,
    /// Median store-hit round trip, µs.
    pub store_us: f64,
    /// Median memo-hit round trip, µs.
    pub memo_us: f64,
    /// Counter deltas over the probe.
    pub counts: ServeCounts,
    /// Round trips whose origin or payload was not the expected one.
    pub problems: Vec<String>,
}

/// Round-robin rounds over the probe specs.
const RTT_ROUNDS: usize = 40;

/// Six tiny `sd` PageRank specs through a server whose memo holds one
/// entry: the first pass computes each; afterwards a round-robin visit
/// always misses the memo (a store hit) and an immediate repeat always
/// hits it. The stats deltas confirm each class.
pub fn rtt_probe(p: &Params, parent: &Span) -> RttProbe {
    let span = parent.child("serve.rtt_probe");
    let dir = TempDir::new("rtt-probe").expect("creating the store directory");
    let server = serve(server_config(p, &dir, 1)).expect("starting omega-serve");
    let mut client = Client::connect(server.addr()).expect("connecting to omega-serve");
    let specs: Vec<ExperimentSpec> = machine_kinds()[..6]
        .iter()
        .map(|&m| ExperimentSpec::new(Dataset::Sd, AlgoKey::PageRank, m))
        .collect();
    let mut probe = RttProbe::default();
    let before = ServeCounts::read(&mut client).expect("reading serve stats");
    let mut call = |client: &mut Client, spec: ExperimentSpec, name: &'static str| {
        let req = REQUEST_IDS.fetch_add(1, Ordering::Relaxed);
        let t = Instant::now();
        let resp = client.run(RunRequest {
            spec,
            scale: DatasetScale::Tiny,
        });
        let done = Instant::now();
        span.record_child(name, req, t, done);
        match resp {
            Ok(Response::Ok(payload)) => (done - t, Some(payload)),
            other => {
                probe
                    .problems
                    .push(format!("{}: {}", spec.label(), describe(&other)));
                (done - t, None)
            }
        }
    };
    let mut first: Vec<Option<Json>> = Vec::new();
    let mut computed = Vec::new();
    for &s in &specs {
        let (rtt, payload) = call(&mut client, s, "serve.rtt.computed");
        computed.push(rtt.as_secs_f64() * 1e3);
        first.push(payload);
    }
    let (mut store, mut memo) = (Vec::new(), Vec::new());
    let mut mismatches = 0;
    for _ in 0..RTT_ROUNDS {
        for (i, &s) in specs.iter().enumerate() {
            let (rtt, a) = call(&mut client, s, "serve.rtt.store");
            store.push(rtt.as_secs_f64() * 1e6);
            let (rtt, b) = call(&mut client, s, "serve.rtt.memo");
            memo.push(rtt.as_secs_f64() * 1e6);
            if a != first[i] || b != first[i] {
                mismatches += 1;
            }
        }
    }
    let after = ServeCounts::read(&mut client).expect("reading serve stats");
    after.add_delta(&before, &mut probe.counts);
    let visits = (RTT_ROUNDS * specs.len()) as f64;
    if mismatches > 0 {
        probe.problems.push(format!(
            "{mismatches} warm payloads differ from the computed ones"
        ));
    }
    let (store_hits, memo_hits) = (
        probe.counts.get("serve.store_hits"),
        probe.counts.get("serve.memo_hits"),
    );
    if store_hits != visits || memo_hits != visits {
        probe.problems.push(format!(
            "expected {visits} store and {visits} memo hits, saw {store_hits} and {memo_hits}"
        ));
    }
    probe.computed_ms = median(&computed);
    probe.store_us = median(&store);
    probe.memo_us = median(&memo);
    drop(client);
    stop(server);
    probe
}
