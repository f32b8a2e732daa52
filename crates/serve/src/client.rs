//! A small blocking client for the `omega-serve` protocol.
//!
//! One [`Client`] wraps one TCP connection speaking `omega-serve/v2`:
//! every request frame carries a numeric id, so several requests can be
//! **pipelined** on the wire ([`Client::send`] then [`Client::recv`])
//! and responses may arrive out of order — the client buffers whatever
//! it reads until the id you asked for shows up; past [`MAX_IN_FLIGHT`]
//! unanswered frames the server stops reading.
//!
//! The optional [`RetryPolicy`] turns structured `busy` shedding into
//! capped, jittered backoff: the delay window grows exponentially per
//! attempt, the reported queue occupancy (`busy{queue_depth,
//! queue_limit}`) sets the floor inside the window, and a seeded
//! [`SmallRng`] spreads concurrent clients across the remainder — fully
//! deterministic for a given seed, which is what lets the retry
//! integration test assert exact reproducibility.
//!
//! The wire encoding lives in exactly two places: [`crate::proto`] and
//! nowhere else.

use crate::proto::{self, Request, RequestFrame, Response, RunRequest};
use crate::server::MAX_IN_FLIGHT;
use crate::wire::{self, Frame};
use omega_bench::Json;
use omega_core::OmegaError;
use omega_graph::rng::SmallRng;
use std::collections::HashMap;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Delay window of the first retry, in milliseconds; doubles every
/// attempt.
const BASE_DELAY_MS: u64 = 10;
/// Upper bound on the delay window, in milliseconds.
const CAP_DELAY_MS: u64 = 500;

/// Backoff discipline for `busy` responses. Delays are in milliseconds
/// and fully determined by `(seed, attempt, queue_depth, queue_limit)`.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// How many times to retry after the first `busy` (so a request is
    /// attempted at most `max_retries + 1` times).
    pub max_retries: u32,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// A policy retrying up to `max_retries` times, jittered by `seed`.
    pub fn new(max_retries: u32, seed: u64) -> RetryPolicy {
        RetryPolicy { max_retries, seed }
    }

    /// The backoff before retry number `attempt` (0-based), given the
    /// occupancy the server reported when it shed. Pure: the only state
    /// is the caller's RNG.
    ///
    /// `window = min(cap, base · 2^attempt)`; the occupancy ratio picks
    /// a floor inside the window (a fuller queue backs off longer), and
    /// the jitter is uniform over the remainder so synchronized clients
    /// decorrelate instead of retrying in lockstep.
    pub fn delay_ms(
        &self,
        attempt: u32,
        queue_depth: usize,
        queue_limit: usize,
        rng: &mut SmallRng,
    ) -> u64 {
        let exp = attempt.min(16);
        let window = BASE_DELAY_MS.saturating_mul(1u64 << exp).min(CAP_DELAY_MS);
        let limit = queue_limit.max(1) as u64;
        let depth = (queue_depth as u64).min(limit);
        let floor = window * depth / limit;
        floor + rng.gen_range(0..=(window - floor))
    }
}

struct RetryState {
    policy: RetryPolicy,
    rng: SmallRng,
}

/// A connected client.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    /// Out-of-order responses read while waiting for a different id.
    pending: HashMap<u64, Response>,
    retry: Option<RetryState>,
}

impl Client {
    /// Connects to a running server, speaking `omega-serve/v2`.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            next_id: 0,
            pending: HashMap::new(),
            retry: None,
        })
    }

    /// Installs a retry policy: [`Client::run`], [`Client::run_payload`]
    /// and [`Client::batch`] will back off and retry on `busy` instead
    /// of returning it. (Top-level `busy` only — per-entry `busy`
    /// results inside a batch payload are the caller's to handle.)
    pub fn with_retry(mut self, policy: RetryPolicy) -> Client {
        let rng = SmallRng::seed_from_u64(policy.seed);
        self.retry = Some(RetryState { policy, rng });
        self
    }

    /// Sends one request without waiting for its response and returns
    /// the frame id to [`Client::recv`] on.
    pub fn send(&mut self, req: &Request) -> Result<u64, OmegaError> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = RequestFrame {
            id,
            request: req.clone(),
        };
        wire::write_frame(&mut self.stream, &proto::request_frame_to_json(&frame))?;
        Ok(id)
    }

    /// Blocks until the response for `id` arrives. Responses for other
    /// in-flight ids read along the way are buffered, so `recv` order
    /// need not match [`Client::send`] order.
    pub fn recv(&mut self, id: u64) -> Result<Response, OmegaError> {
        if let Some(resp) = self.pending.remove(&id) {
            return Ok(resp);
        }
        loop {
            let doc = match wire::read_frame(&mut self.stream, || false)? {
                Frame::Doc(doc) => doc,
                Frame::Malformed(e) => return Err(e),
                Frame::Eof | Frame::Cancelled => {
                    return Err(OmegaError::Protocol(
                        "server closed the connection before responding".into(),
                    ))
                }
            };
            let frame = proto::response_frame_from_json(doc)?;
            match frame.id {
                Some(got) if got == id => return Ok(frame.response),
                Some(got) => {
                    self.pending.insert(got, frame.response);
                }
                None => {
                    return Err(OmegaError::Protocol(format!(
                        "response frame without an id: {:?}",
                        frame.response
                    )))
                }
            }
        }
    }

    /// Sends one request and blocks for its response.
    pub fn call(&mut self, req: &Request) -> Result<Response, OmegaError> {
        let id = self.send(req)?;
        self.recv(id)
    }

    /// `call` with the installed [`RetryPolicy`] applied to top-level
    /// `busy` responses.
    fn call_retrying(&mut self, req: &Request) -> Result<Response, OmegaError> {
        let mut attempt = 0u32;
        loop {
            let resp = self.call(req)?;
            let Response::Busy {
                queue_depth,
                queue_limit,
            } = resp
            else {
                return Ok(resp);
            };
            let Some(rs) = self.retry.as_mut() else {
                return Ok(resp);
            };
            if attempt >= rs.policy.max_retries {
                return Ok(resp);
            }
            let delay = rs.policy.delay_ms(
                attempt,
                queue_depth as usize,
                queue_limit as usize,
                &mut rs.rng,
            );
            std::thread::sleep(Duration::from_millis(delay));
            attempt += 1;
        }
    }

    /// Runs one experiment, returning the full wire response (so
    /// callers can distinguish `busy` from hard errors). Retries `busy`
    /// when a [`RetryPolicy`] is installed.
    pub fn run(&mut self, run: RunRequest) -> Result<Response, OmegaError> {
        self.call_retrying(&Request::Run(run))
    }

    /// Runs one experiment and unwraps the report payload; `busy` and
    /// error responses come back as the matching [`OmegaError`].
    pub fn run_payload(&mut self, run: RunRequest) -> Result<Json, OmegaError> {
        match self.run(run)? {
            Response::Ok(payload) => Ok(payload),
            Response::Busy {
                queue_depth,
                queue_limit,
            } => Err(OmegaError::Busy {
                queue_depth: queue_depth as usize,
                queue_limit: queue_limit as usize,
            }),
            Response::Error { code, message } => {
                Err(OmegaError::Internal(format!("{code}: {message}")))
            }
        }
    }

    /// Pipelines all `runs` on this connection, keeping up to
    /// [`MAX_IN_FLIGHT`] requests sent ahead of the responses read, and
    /// returns the responses in request order.
    pub fn run_pipelined(&mut self, runs: &[RunRequest]) -> Result<Vec<Response>, OmegaError> {
        let mut ids = Vec::with_capacity(runs.len());
        let mut responses = Vec::with_capacity(runs.len());
        for run in runs {
            if ids.len() - responses.len() == MAX_IN_FLIGHT {
                responses.push(self.recv(ids[responses.len()])?);
            }
            ids.push(self.send(&Request::Run(*run))?);
        }
        while responses.len() < ids.len() {
            responses.push(self.recv(ids[responses.len()])?);
        }
        Ok(responses)
    }

    /// Submits all `runs` as one server-side `batch` request: the
    /// server admits them as `(dataset, algo)` trace groups, so the
    /// whole batch shares graphs and functional traces maximally.
    /// Returns one response per run, in request order.
    pub fn batch(&mut self, runs: &[RunRequest]) -> Result<Vec<Response>, OmegaError> {
        match self.call_retrying(&Request::Batch(runs.to_vec()))? {
            Response::Ok(payload) => proto::batch_results(payload),
            Response::Busy {
                queue_depth,
                queue_limit,
            } => Err(OmegaError::Busy {
                queue_depth: queue_depth as usize,
                queue_limit: queue_limit as usize,
            }),
            Response::Error { code, message } => {
                Err(OmegaError::Internal(format!("{code}: {message}")))
            }
        }
    }

    /// Fetches the live service counters.
    pub fn stats(&mut self) -> Result<Json, OmegaError> {
        match self.call(&Request::Stats)? {
            Response::Ok(payload) => Ok(payload),
            other => Err(OmegaError::Protocol(format!(
                "unexpected stats response: {other:?}"
            ))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), OmegaError> {
        match self.call(&Request::Ping)? {
            Response::Ok(_) => Ok(()),
            other => Err(OmegaError::Protocol(format!(
                "unexpected ping response: {other:?}"
            ))),
        }
    }

    /// Asks the server to drain and exit. Returns once the server has
    /// acknowledged (not once it has finished draining).
    pub fn shutdown(&mut self) -> Result<(), OmegaError> {
        match self.call(&Request::Shutdown)? {
            Response::Ok(_) => Ok(()),
            other => Err(OmegaError::Protocol(format!(
                "unexpected shutdown response: {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let policy = RetryPolicy::new(5, 42);
        let mut a = SmallRng::seed_from_u64(policy.seed);
        let mut b = SmallRng::seed_from_u64(policy.seed);
        for attempt in 0..5 {
            assert_eq!(
                policy.delay_ms(attempt, 1, 2, &mut a),
                policy.delay_ms(attempt, 1, 2, &mut b)
            );
        }
    }

    #[test]
    fn backoff_window_grows_and_caps() {
        let policy = RetryPolicy::new(10, 7);
        let mut rng = SmallRng::seed_from_u64(policy.seed);
        for attempt in 0..20 {
            let d = policy.delay_ms(attempt, 0, 1, &mut rng);
            let window = (BASE_DELAY_MS << attempt.min(16)).min(CAP_DELAY_MS);
            assert!(d <= window, "attempt {attempt}: {d} > {window}");
        }
        // An over-reported depth (stale by the time the client reads
        // it) clamps to the limit instead of overflowing the window.
        let d = policy.delay_ms(0, 99, 4, &mut rng);
        assert!(d <= 10);
    }

    #[test]
    fn fuller_queue_raises_the_floor() {
        let policy = RetryPolicy::new(3, 1);
        let mut rng = SmallRng::seed_from_u64(1);
        // depth == limit pins the delay to the full window.
        for _ in 0..32 {
            let d = policy.delay_ms(2, 8, 8, &mut rng);
            assert_eq!(d, 40); // min(500, 10 << 2)
        }
        // An empty queue may draw any delay in [0, window].
        let mut low = u64::MAX;
        for _ in 0..64 {
            low = low.min(policy.delay_ms(2, 0, 8, &mut rng));
        }
        assert!(low < 40);
    }
}
