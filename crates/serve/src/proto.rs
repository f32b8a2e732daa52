//! The `omega-serve/v1` + `omega-serve/v2` request/response vocabulary.
//!
//! Requests are flat JSON objects carrying a `proto` tag, a `method`,
//! and (for `run`) the experiment coordinates as the same names the
//! CLI tools accept — parsing goes through the typed [`FromStr`]
//! surface ([`Dataset`], [`AlgoKey`], [`MachineKind`],
//! [`DatasetScale`]), so an unknown name becomes a structured
//! `unknown-name` error on the wire instead of a stringly refusal.
//!
//! ## Two protocol revisions, one connection
//!
//! * **v1** ([`PROTO`]) is strictly sequential: no `id` field is
//!   allowed, and the server answers each request before reading the
//!   next, in order. Every v1-only client keeps working unchanged.
//! * **v2** ([`PROTO_V2`]) adds **pipelining**: every request frame
//!   carries a client-chosen numeric `id`, the response echoes it, and
//!   responses may arrive in any order — a single connection can have
//!   up to [`MAX_IN_FLIGHT`](crate::server::MAX_IN_FLIGHT) requests in
//!   flight (v1 is the same path with depth 1). v2 also adds `batch`:
//!   one frame carrying up to [`MAX_BATCH_RUNS`] run specs, grouped
//!   server-side by `(dataset, algo)` to share one functional trace.
//!
//! The version is per-*frame*, not per-connection: [`RequestFrame`]
//! carries what the client spoke and the server mirrors it back, so
//! mixed traffic (a v1 probe against a v2 session) just works.
//!
//! Responses share one envelope: `status` is `"ok"` (with a `payload`
//! document), `"busy"` (with the queue depth/limit that caused the
//! shed), or `"error"` (with the [`OmegaError::code`] and message).
//! The *payload* carries no variable fields — no timestamps — so a
//! warm (cache-served) response payload is byte-identical to the cold
//! one that populated it; the only per-request envelope field is the
//! client's own echoed `id`.
//!
//! [`FromStr`]: std::str::FromStr

use omega_bench::session::{AlgoKey, ExperimentSpec, MachineKind};
use omega_bench::Json;
use omega_core::OmegaError;
use omega_graph::datasets::{Dataset, DatasetScale};

/// The sequential v1 protocol tag.
pub const PROTO: &str = "omega-serve/v1";

/// The pipelined v2 protocol tag (per-frame request ids, `batch`).
pub const PROTO_V2: &str = "omega-serve/v2";

/// Schema tag of the `stats` payload document.
pub const STATS_SCHEMA: &str = "omega-serve-stats/v2";

/// Schema tag of the `batch` response payload document.
pub const BATCH_SCHEMA: &str = "omega-serve-batch/v1";

/// Most runs one `batch` frame may carry. The largest result measured
/// is 7,292 bytes (lj PageRank on pim-rank, small scale), so a full
/// batch answers in under 7.5 MB, below [`MAX_FRAME`](crate::wire::MAX_FRAME).
pub const MAX_BATCH_RUNS: usize = 1024;

/// Which protocol revision one frame speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoVersion {
    /// `omega-serve/v1`: no ids, strictly in-order responses.
    V1,
    /// `omega-serve/v2`: per-frame ids, out-of-order responses allowed.
    V2,
}

impl ProtoVersion {
    /// The wire tag for this revision.
    pub fn tag(self) -> &'static str {
        match self {
            ProtoVersion::V1 => PROTO,
            ProtoVersion::V2 => PROTO_V2,
        }
    }
}

/// One `run` request: which experiment, at which scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunRequest {
    /// The experiment coordinates (dataset, algorithm, machine).
    pub spec: ExperimentSpec,
    /// The dataset scale to build and simulate at.
    pub scale: DatasetScale,
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run (or fetch) one experiment and return its run report.
    Run(RunRequest),
    /// Run (or fetch) many experiments in one frame. The server groups
    /// the uncached specs by `(dataset, algo)` so each group shares one
    /// functional trace, and answers with a [`BATCH_SCHEMA`] payload
    /// carrying one per-spec result envelope each, in request order.
    Batch(Vec<RunRequest>),
    /// Return the live service counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Drain queued and in-flight work, then exit.
    Shutdown,
}

/// A parsed server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success; the payload is method-specific (`omega-run-report/v1`
    /// for `run`, [`BATCH_SCHEMA`] for `batch`, [`STATS_SCHEMA`] for
    /// `stats`, small ack objects for `ping` / `shutdown`).
    Ok(Json),
    /// The admission queue was full; the request was shed unserved.
    Busy {
        /// Queue occupancy observed at rejection time.
        queue_depth: u64,
        /// The configured queue capacity.
        queue_limit: u64,
    },
    /// The request failed; `code` is the stable [`OmegaError::code`].
    Error {
        /// Machine-readable error class.
        code: String,
        /// Human-readable description.
        message: String,
    },
}

impl Response {
    /// Maps an error onto the wire: [`OmegaError::Busy`] becomes the
    /// structured busy response, everything else an error envelope.
    pub fn from_error(e: &OmegaError) -> Response {
        match e {
            OmegaError::Busy {
                queue_depth,
                queue_limit,
            } => Response::Busy {
                queue_depth: *queue_depth as u64,
                queue_limit: *queue_limit as u64,
            },
            other => Response::Error {
                code: other.code().to_string(),
                message: other.to_string(),
            },
        }
    }
}

/// One request frame: the revision it spoke, its id (v2 only), and the
/// parsed request body.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// The protocol revision of the frame.
    pub version: ProtoVersion,
    /// The client-chosen request id; present exactly on v2 frames.
    pub id: Option<u64>,
    /// The request body.
    pub request: Request,
}

/// One response frame: the revision mirrored back, the echoed id (v2
/// only), and the response body.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// The protocol revision of the frame (mirrors the request's).
    pub version: ProtoVersion,
    /// The echoed request id; present exactly on v2 frames.
    pub id: Option<u64>,
    /// The response body.
    pub response: Response,
}

fn envelope(version: ProtoVersion, id: Option<u64>) -> Json {
    let mut o = Json::obj();
    o.set("proto", Json::Str(version.tag().to_string()));
    if let Some(id) = id {
        o.set("id", Json::Num(id as f64));
    }
    o
}

fn str_field<'a>(doc: &'a Json, key: &'static str) -> Result<&'a str, OmegaError> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| OmegaError::Protocol(format!("missing or non-string `{key}` field")))
}

/// Parses and validates the `proto` + `id` pair: v1 frames must not
/// carry an id, v2 frames must.
fn check_envelope(doc: &Json) -> Result<(ProtoVersion, Option<u64>), OmegaError> {
    let tag = str_field(doc, "proto")?;
    let version = if tag == PROTO {
        ProtoVersion::V1
    } else if tag == PROTO_V2 {
        ProtoVersion::V2
    } else {
        return Err(OmegaError::Protocol(format!(
            "protocol `{tag}` is neither `{PROTO}` nor `{PROTO_V2}`"
        )));
    };
    let id = match doc.get("id") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or_else(|| {
            OmegaError::Protocol("`id` must be a non-negative integer".to_string())
        })?),
    };
    match (version, id) {
        (ProtoVersion::V1, Some(_)) => Err(OmegaError::Protocol(format!(
            "`{PROTO}` frames must not carry an `id` (pipelining is `{PROTO_V2}`)"
        ))),
        (ProtoVersion::V2, None) => Err(OmegaError::Protocol(format!(
            "`{PROTO_V2}` frames must carry a numeric `id`"
        ))),
        pair => Ok(pair),
    }
}

/// Writes `r`'s experiment coordinates into `o` (the flat `run` form).
fn set_run_fields(o: &mut Json, r: &RunRequest) {
    o.set("dataset", Json::Str(r.spec.dataset.code().to_string()));
    o.set("algo", Json::Str(r.spec.algo.code().to_string()));
    o.set("machine", Json::Str(r.spec.machine.label()));
    o.set("scale", Json::Str(r.scale.code().to_string()));
}

/// Parses the experiment coordinates of one run object (the top-level
/// `run` frame or one element of a `batch` frame's `runs` array).
/// `machine` defaults to omega, `scale` to small — the same defaults
/// the CLI tools use.
pub fn run_request_from_json(doc: &Json) -> Result<RunRequest, OmegaError> {
    let dataset: Dataset = str_field(doc, "dataset")?
        .parse()
        .map_err(OmegaError::from)?;
    let algo: AlgoKey = str_field(doc, "algo")?.parse()?;
    let machine: MachineKind = match doc.get("machine").and_then(Json::as_str) {
        Some(m) => m.parse()?,
        None => MachineKind::Omega,
    };
    let scale: DatasetScale = match doc.get("scale").and_then(Json::as_str) {
        Some(s) => s.parse().map_err(OmegaError::from)?,
        None => DatasetScale::Small,
    };
    Ok(RunRequest {
        spec: ExperimentSpec::new(dataset, algo, machine),
        scale,
    })
}

fn set_request_fields(o: &mut Json, req: &Request) {
    match req {
        Request::Run(r) => {
            o.set("method", Json::Str("run".to_string()));
            set_run_fields(o, r);
        }
        Request::Batch(runs) => {
            o.set("method", Json::Str("batch".to_string()));
            let items = runs
                .iter()
                .map(|r| {
                    let mut item = Json::obj();
                    set_run_fields(&mut item, r);
                    item
                })
                .collect();
            o.set("runs", Json::Arr(items));
        }
        Request::Stats => {
            o.set("method", Json::Str("stats".to_string()));
        }
        Request::Ping => {
            o.set("method", Json::Str("ping".to_string()));
        }
        Request::Shutdown => {
            o.set("method", Json::Str("shutdown".to_string()));
        }
    }
}

fn request_fields_from_json(doc: &Json) -> Result<Request, OmegaError> {
    match str_field(doc, "method")? {
        "run" => Ok(Request::Run(run_request_from_json(doc)?)),
        "batch" => {
            let items = doc
                .get("runs")
                .and_then(Json::as_array)
                .ok_or_else(|| OmegaError::Protocol("batch without a `runs` array".into()))?;
            if items.is_empty() {
                return Err(OmegaError::Protocol(
                    "batch with an empty `runs` array".into(),
                ));
            }
            if items.len() > MAX_BATCH_RUNS {
                return Err(OmegaError::Protocol(format!(
                    "batch of {} runs exceeds the {MAX_BATCH_RUNS}-run cap",
                    items.len()
                )));
            }
            let runs = items
                .iter()
                .map(run_request_from_json)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Batch(runs))
        }
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(OmegaError::unknown_name(
            "method",
            other,
            "run, batch, stats, ping, shutdown",
        )),
    }
}

/// Serialises a request frame for the wire.
pub fn request_frame_to_json(frame: &RequestFrame) -> Json {
    let mut o = envelope(frame.version, frame.id);
    set_request_fields(&mut o, &frame.request);
    o
}

/// Parses a request frame of either protocol revision. Unknown methods
/// and unknown experiment coordinates surface as structured
/// [`OmegaError::UnknownName`] boundary errors; malformed envelopes
/// (bad tag, v1-with-id, v2-without-id) as `protocol` errors.
pub fn request_frame_from_json(doc: &Json) -> Result<RequestFrame, OmegaError> {
    let (version, id) = check_envelope(doc)?;
    Ok(RequestFrame {
        version,
        id,
        request: request_fields_from_json(doc)?,
    })
}

/// Writes `resp`'s body fields (`status` + status-specific fields) into
/// `o`. Shared by the top-level response envelope and the per-spec
/// result objects inside a [`BATCH_SCHEMA`] payload.
pub fn set_response_fields(o: &mut Json, resp: &Response) {
    match resp {
        Response::Ok(payload) => {
            o.set("status", Json::Str("ok".to_string()));
            o.set("payload", payload.clone());
        }
        Response::Busy {
            queue_depth,
            queue_limit,
        } => {
            o.set("status", Json::Str("busy".to_string()));
            o.set("queue_depth", Json::Num(*queue_depth as f64));
            o.set("queue_limit", Json::Num(*queue_limit as f64));
        }
        Response::Error { code, message } => {
            o.set("status", Json::Str("error".to_string()));
            o.set("code", Json::Str(code.clone()));
            o.set("message", Json::Str(message.clone()));
        }
    }
}

/// Parses one response body (`status` + status-specific fields) — the
/// inverse of [`set_response_fields`].
pub fn response_fields_from_json(doc: &Json) -> Result<Response, OmegaError> {
    match str_field(doc, "status")? {
        "ok" => {
            let payload = doc
                .get("payload")
                .ok_or_else(|| OmegaError::Protocol("ok response without payload".into()))?;
            Ok(Response::Ok(payload.clone()))
        }
        "busy" => {
            let depth = doc.get("queue_depth").and_then(Json::as_u64);
            let limit = doc.get("queue_limit").and_then(Json::as_u64);
            match (depth, limit) {
                (Some(queue_depth), Some(queue_limit)) => Ok(Response::Busy {
                    queue_depth,
                    queue_limit,
                }),
                _ => Err(OmegaError::Protocol(
                    "busy response without queue depth/limit".into(),
                )),
            }
        }
        "error" => Ok(Response::Error {
            code: str_field(doc, "code")?.to_string(),
            message: str_field(doc, "message")?.to_string(),
        }),
        other => Err(OmegaError::Protocol(format!(
            "unknown response status `{other}`"
        ))),
    }
}

/// Serialises a response frame for the wire.
pub fn response_frame_to_json(frame: &ResponseFrame) -> Json {
    let mut o = envelope(frame.version, frame.id);
    set_response_fields(&mut o, &frame.response);
    o
}

/// Parses a response frame of either protocol revision (the client side
/// of the wire).
pub fn response_frame_from_json(doc: &Json) -> Result<ResponseFrame, OmegaError> {
    let (version, id) = check_envelope(doc)?;
    Ok(ResponseFrame {
        version,
        id,
        response: response_fields_from_json(doc)?,
    })
}

/// Builds the [`BATCH_SCHEMA`] payload from per-spec responses, in
/// request order.
pub fn batch_payload(results: &[Response]) -> Json {
    let mut o = Json::obj();
    o.set("schema", Json::Str(BATCH_SCHEMA.to_string()));
    let items = results
        .iter()
        .map(|r| {
            let mut item = Json::obj();
            set_response_fields(&mut item, r);
            item
        })
        .collect();
    o.set("results", Json::Arr(items));
    o
}

/// Parses a [`BATCH_SCHEMA`] payload back into per-spec responses.
pub fn batch_results(payload: &Json) -> Result<Vec<Response>, OmegaError> {
    if payload.get("schema").and_then(Json::as_str) != Some(BATCH_SCHEMA) {
        return Err(OmegaError::Protocol(format!(
            "batch payload is not `{BATCH_SCHEMA}`"
        )));
    }
    payload
        .get("results")
        .and_then(Json::as_array)
        .ok_or_else(|| OmegaError::Protocol("batch payload without `results`".into()))?
        .iter()
        .map(response_fields_from_json)
        .collect()
}

/// Serialises a v1 request (compat wrapper for v1-only callers).
pub fn request_to_json(req: &Request) -> Json {
    request_frame_to_json(&RequestFrame {
        version: ProtoVersion::V1,
        id: None,
        request: req.clone(),
    })
}

/// Parses a response document, requiring the v1 revision — the exact
/// behaviour of a v1-only client, kept for compatibility tests that
/// emulate a v1-only peer.
pub fn response_from_json(doc: &Json) -> Result<Response, OmegaError> {
    let frame = response_frame_from_json(doc)?;
    if frame.version != ProtoVersion::V1 {
        return Err(OmegaError::Protocol(format!(
            "protocol `{}` is not `{PROTO}`",
            frame.version.tag()
        )));
    }
    Ok(frame.response)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_requests_roundtrip_with_defaults() {
        let req = Request::Run(RunRequest {
            spec: ExperimentSpec::new(Dataset::Sd, AlgoKey::PageRank, MachineKind::Omega),
            scale: DatasetScale::Tiny,
        });
        let doc = request_to_json(&req);
        assert_eq!(request_frame_from_json(&doc).unwrap().request, req);

        // machine and scale are optional: omega at small scale.
        let mut minimal = Json::obj();
        minimal.set("proto", Json::Str(PROTO.into()));
        minimal.set("method", Json::Str("run".into()));
        minimal.set("dataset", Json::Str("sd".into()));
        minimal.set("algo", Json::Str("bfs".into()));
        let Request::Run(r) = request_frame_from_json(&minimal).unwrap().request else {
            panic!("expected run");
        };
        assert_eq!(r.spec.machine, MachineKind::Omega);
        assert_eq!(r.scale, DatasetScale::Small);
    }

    #[test]
    fn rival_machine_kinds_cross_the_wire() {
        // The typed parse surface is shared with the CLI: the two rival
        // machines must be addressable by wire name like any other kind.
        for machine in [MachineKind::PimRank, MachineKind::SpecializedCache] {
            let req = Request::Run(RunRequest {
                spec: ExperimentSpec::new(Dataset::Sd, AlgoKey::PageRank, machine),
                scale: DatasetScale::Tiny,
            });
            let doc = request_to_json(&req);
            assert_eq!(
                doc.get("machine").and_then(Json::as_str),
                Some(machine.label().as_str()),
                "wire name is the CLI label"
            );
            assert_eq!(request_frame_from_json(&doc).unwrap().request, req);
        }
    }

    #[test]
    fn v2_frames_roundtrip_and_echo_ids() {
        let run = RunRequest {
            spec: ExperimentSpec::new(Dataset::Sd, AlgoKey::Bfs, MachineKind::Baseline),
            scale: DatasetScale::Tiny,
        };
        let frame = RequestFrame {
            version: ProtoVersion::V2,
            id: Some(17),
            request: Request::Batch(vec![run, run]),
        };
        let doc = request_frame_to_json(&frame);
        assert_eq!(doc.get("proto").and_then(Json::as_str), Some(PROTO_V2));
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(17));
        assert_eq!(request_frame_from_json(&doc).unwrap(), frame);

        let resp = ResponseFrame {
            version: ProtoVersion::V2,
            id: Some(17),
            response: Response::Busy {
                queue_depth: 2,
                queue_limit: 4,
            },
        };
        let doc = response_frame_to_json(&resp);
        assert_eq!(response_frame_from_json(&doc).unwrap(), resp);
    }

    #[test]
    fn id_discipline_is_enforced_per_revision() {
        // v2 without an id is malformed…
        let mut doc = request_frame_to_json(&RequestFrame {
            version: ProtoVersion::V2,
            id: Some(3),
            request: Request::Ping,
        });
        doc.set("id", Json::Null);
        assert_eq!(
            request_frame_from_json(&doc).unwrap_err().code(),
            "protocol"
        );

        // …and so is a v1 frame that smuggles one in.
        let mut doc = request_to_json(&Request::Ping);
        doc.set("id", Json::Num(1.0));
        assert_eq!(
            request_frame_from_json(&doc).unwrap_err().code(),
            "protocol"
        );

        // Fractional and negative ids are rejected, not truncated.
        let mut doc = request_frame_to_json(&RequestFrame {
            version: ProtoVersion::V2,
            id: Some(3),
            request: Request::Ping,
        });
        doc.set("id", Json::Num(1.5));
        assert_eq!(
            request_frame_from_json(&doc).unwrap_err().code(),
            "protocol"
        );
    }

    #[test]
    fn batch_payloads_roundtrip_per_spec_envelopes() {
        let mut ok_payload = Json::obj();
        ok_payload.set("total_cycles", Json::Num(123.0));
        let results = vec![
            Response::Ok(ok_payload),
            Response::Busy {
                queue_depth: 1,
                queue_limit: 1,
            },
            Response::Error {
                code: "unknown-name".into(),
                message: "no such dataset".into(),
            },
        ];
        let payload = batch_payload(&results);
        assert_eq!(
            payload.get("schema").and_then(Json::as_str),
            Some(BATCH_SCHEMA)
        );
        assert_eq!(batch_results(&payload).unwrap(), results);

        // An empty batch request is malformed.
        let mut doc = request_frame_to_json(&RequestFrame {
            version: ProtoVersion::V2,
            id: Some(1),
            request: Request::Batch(vec![]),
        });
        doc.set("runs", Json::Arr(vec![]));
        assert_eq!(
            request_frame_from_json(&doc).unwrap_err().code(),
            "protocol"
        );
    }

    #[test]
    fn batches_are_capped_at_max_batch_runs() {
        let run = RunRequest {
            spec: ExperimentSpec::new(Dataset::Sd, AlgoKey::Bfs, MachineKind::Omega),
            scale: DatasetScale::Tiny,
        };
        for (n, err) in [
            (MAX_BATCH_RUNS, None),
            (MAX_BATCH_RUNS + 1, Some("protocol")),
        ] {
            let doc = request_frame_to_json(&RequestFrame {
                version: ProtoVersion::V2,
                id: Some(1),
                request: Request::Batch(vec![run; n]),
            });
            let got = request_frame_from_json(&doc).err().map(|e| e.code());
            assert_eq!(got, err, "a batch of {n} runs");
        }
    }

    #[test]
    fn unknown_names_become_structured_boundary_errors() {
        let mut doc = request_to_json(&Request::Ping);
        doc.set("method", Json::Str("explode".into()));
        let err = request_frame_from_json(&doc).unwrap_err();
        assert_eq!(err.code(), "unknown-name");
        assert!(err.to_string().contains("shutdown"), "{err}");

        let mut doc = Json::obj();
        doc.set("proto", Json::Str(PROTO.into()));
        doc.set("method", Json::Str("run".into()));
        doc.set("dataset", Json::Str("not-a-graph".into()));
        doc.set("algo", Json::Str("pagerank".into()));
        let err = request_frame_from_json(&doc).unwrap_err();
        assert_eq!(err.code(), "unknown-name");

        doc.set("dataset", Json::Str("sd".into()));
        doc.set("algo", Json::Str("dijkstra".into()));
        let err = request_frame_from_json(&doc).unwrap_err();
        assert_eq!(err.code(), "unknown-name");
        assert!(err.to_string().contains("pagerank"), "{err}");
    }

    #[test]
    fn wrong_proto_tag_is_rejected() {
        let mut doc = request_to_json(&Request::Ping);
        doc.set("proto", Json::Str("omega-serve/v0".into()));
        assert_eq!(
            request_frame_from_json(&doc).unwrap_err().code(),
            "protocol"
        );

        // The v1-only parser rejects v2 frames — this is exactly what a
        // v1-only client would do to a pipelined reply: a structured
        // protocol error, not silent misbehaviour.
        let doc = response_frame_to_json(&ResponseFrame {
            version: ProtoVersion::V2,
            id: Some(1),
            response: Response::Ok(Json::obj()),
        });
        assert_eq!(response_from_json(&doc).unwrap_err().code(), "protocol");
    }

    #[test]
    fn responses_roundtrip() {
        let mut payload = Json::obj();
        payload.set("pong", Json::Bool(true));
        for resp in [
            Response::Ok(payload),
            Response::Busy {
                queue_depth: 4,
                queue_limit: 4,
            },
            Response::Error {
                code: "unknown-name".into(),
                message: "unknown dataset `x`".into(),
            },
        ] {
            let doc = response_frame_to_json(&ResponseFrame {
                version: ProtoVersion::V1,
                id: None,
                response: resp.clone(),
            });
            assert_eq!(response_from_json(&doc).unwrap(), resp);
        }
    }

    #[test]
    fn busy_maps_from_the_workspace_error() {
        let resp = Response::from_error(&OmegaError::Busy {
            queue_depth: 8,
            queue_limit: 8,
        });
        assert_eq!(
            resp,
            Response::Busy {
                queue_depth: 8,
                queue_limit: 8
            }
        );
        let resp = Response::from_error(&OmegaError::ShuttingDown);
        let Response::Error { code, .. } = resp else {
            panic!("expected error envelope");
        };
        assert_eq!(code, "shutting-down");
    }
}
