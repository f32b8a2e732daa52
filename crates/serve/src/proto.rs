//! The `omega-serve/v2` request/response vocabulary.
//!
//! Requests are flat JSON objects carrying the `proto` tag, a numeric
//! `id` and a `method`, plus (for `run`) the experiment coordinates as
//! the same names the CLI tools accept — parsing goes through the typed
//! [`FromStr`] surface ([`Dataset`], [`AlgoKey`], [`MachineKind`],
//! [`DatasetScale`]), so an unknown name becomes a structured
//! `unknown-name` error on the wire instead of a stringly refusal.
//!
//! ## One protocol revision
//!
//! Every frame is tagged [`PROTO_V2`]. Every request frame carries a
//! client-chosen numeric `id`, the response echoes it, and responses may
//! arrive in any order, so one connection can have up to
//! [`MAX_IN_FLIGHT`](crate::server::MAX_IN_FLIGHT) requests in flight.
//! `batch` carries up to [`MAX_BATCH_RUNS`] run specs in one frame,
//! grouped server-side by `(dataset, algo)` to share one functional
//! trace. A frame with any other tag (the retired sequential
//! `omega-serve/v1` included) or without an `id` is a `protocol` error.
//! An error reply to a frame whose id could not be read carries no `id`.
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

/// The protocol tag every frame carries.
pub const PROTO_V2: &str = "omega-serve/v2";

/// Schema tag of the `stats` payload document.
pub const STATS_SCHEMA: &str = "omega-serve-stats/v2";

/// Schema tag of the `batch` response payload document.
pub const BATCH_SCHEMA: &str = "omega-serve-batch/v1";

/// Most runs one `batch` frame may carry. The largest result measured
/// is 7,292 bytes (lj PageRank on pim-rank, small scale), so a full
/// batch answers in under 7.5 MB, below [`MAX_FRAME`](crate::wire::MAX_FRAME).
pub const MAX_BATCH_RUNS: usize = 1024;

/// One `run` request: which experiment, at which scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunRequest {
    /// The experiment coordinates (dataset, algorithm, machine). The wire
    /// carries no telemetry, so a spec decoded from a frame has it off and
    /// shares its fingerprint, and so its store entry, with a plain
    /// `Session` run.
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
        /// The queue capacity (the configured depth, at least one).
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

/// One request frame: its id and the parsed request body.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// The client-chosen request id.
    pub id: u64,
    /// The request body.
    pub request: Request,
}

/// One response frame: the echoed id and the response body.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// The echoed request id; `None` only on an error reply to a frame
    /// whose id could not be read (a framing error, a body that is not
    /// JSON, or a bad tag).
    pub id: Option<u64>,
    /// The response body.
    pub response: Response,
}

fn envelope(id: Option<u64>) -> Json {
    let mut o = Json::obj();
    o.set("proto", Json::Str(PROTO_V2.to_string()));
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

/// Checks the `proto` tag and reads the optional `id`.
fn check_envelope(doc: &Json) -> Result<Option<u64>, OmegaError> {
    let tag = str_field(doc, "proto")?;
    if tag != PROTO_V2 {
        return Err(OmegaError::Protocol(format!(
            "protocol `{tag}` is not `{PROTO_V2}`"
        )));
    }
    doc.get("id")
        .map(|v| {
            v.as_u64().ok_or_else(|| {
                OmegaError::Protocol("`id` must be a non-negative integer".to_string())
            })
        })
        .transpose()
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
    let mut o = envelope(Some(frame.id));
    set_request_fields(&mut o, &frame.request);
    o
}

/// Parses a request frame. Unknown methods and unknown experiment
/// coordinates surface as structured [`OmegaError::UnknownName`]
/// boundary errors; malformed envelopes (bad tag, missing or
/// non-integer id) as `protocol` errors.
pub fn request_frame_from_json(doc: &Json) -> Result<RequestFrame, OmegaError> {
    let id = check_envelope(doc)?.ok_or_else(|| {
        OmegaError::Protocol(format!(
            "`{PROTO_V2}` request frames must carry a numeric `id`"
        ))
    })?;
    Ok(RequestFrame {
        id,
        request: request_fields_from_json(doc)?,
    })
}

/// Writes `resp`'s body fields (`status` + status-specific fields) into
/// `o`. Shared by the top-level response envelope and the per-spec
/// result objects inside a [`BATCH_SCHEMA`] payload. The payload moves
/// into `o`, so a large response is never held twice.
pub fn set_response_fields(o: &mut Json, resp: Response) {
    match resp {
        Response::Ok(payload) => {
            o.set("status", Json::Str("ok".to_string()));
            o.set("payload", payload);
        }
        Response::Busy {
            queue_depth,
            queue_limit,
        } => {
            o.set("status", Json::Str("busy".to_string()));
            o.set("queue_depth", Json::Num(queue_depth as f64));
            o.set("queue_limit", Json::Num(queue_limit as f64));
        }
        Response::Error { code, message } => {
            o.set("status", Json::Str("error".to_string()));
            o.set("code", Json::Str(code));
            o.set("message", Json::Str(message));
        }
    }
}

/// Parses one response body (`status` + status-specific fields) — the
/// inverse of [`set_response_fields`]. An `ok` payload moves out of
/// `doc`, so a large response is never held twice.
pub fn response_fields_from_json(mut doc: Json) -> Result<Response, OmegaError> {
    match str_field(&doc, "status")? {
        "ok" => {
            let payload = doc
                .remove("payload")
                .ok_or_else(|| OmegaError::Protocol("ok response without payload".into()))?;
            Ok(Response::Ok(payload))
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
            code: str_field(&doc, "code")?.to_string(),
            message: str_field(&doc, "message")?.to_string(),
        }),
        other => Err(OmegaError::Protocol(format!(
            "unknown response status `{other}`"
        ))),
    }
}

/// Serialises a response frame for the wire.
pub fn response_frame_to_json(frame: ResponseFrame) -> Json {
    let mut o = envelope(frame.id);
    set_response_fields(&mut o, frame.response);
    o
}

/// Parses a response frame (the client side of the wire).
pub fn response_frame_from_json(doc: Json) -> Result<ResponseFrame, OmegaError> {
    Ok(ResponseFrame {
        id: check_envelope(&doc)?,
        response: response_fields_from_json(doc)?,
    })
}

/// Builds the [`BATCH_SCHEMA`] payload from per-spec responses, in
/// request order.
pub fn batch_payload(results: Vec<Response>) -> Json {
    let mut o = Json::obj();
    o.set("schema", Json::Str(BATCH_SCHEMA.to_string()));
    let items = results
        .into_iter()
        .map(|r| {
            let mut item = Json::obj();
            set_response_fields(&mut item, r);
            item
        })
        .collect();
    o.set("results", Json::Arr(items));
    o
}

/// Parses a [`BATCH_SCHEMA`] payload back into per-spec responses,
/// moving each result's payload out.
pub fn batch_results(mut payload: Json) -> Result<Vec<Response>, OmegaError> {
    if payload.get("schema").and_then(Json::as_str) != Some(BATCH_SCHEMA) {
        return Err(OmegaError::Protocol(format!(
            "batch payload is not `{BATCH_SCHEMA}`"
        )));
    }
    let Some(Json::Arr(items)) = payload.remove("results") else {
        return Err(OmegaError::Protocol(
            "batch payload without `results`".into(),
        ));
    };
    items.into_iter().map(response_fields_from_json).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_doc(request: Request) -> Json {
        request_frame_to_json(&RequestFrame { id: 0, request })
    }

    #[test]
    fn run_requests_roundtrip_with_defaults() {
        let req = Request::Run(RunRequest {
            spec: ExperimentSpec::new(Dataset::Sd, AlgoKey::PageRank, MachineKind::Omega),
            scale: DatasetScale::Tiny,
        });
        let doc = request_doc(req.clone());
        assert_eq!(request_frame_from_json(&doc).unwrap().request, req);

        // machine and scale are optional: omega at small scale.
        let mut minimal = Json::obj();
        minimal.set("proto", Json::Str(PROTO_V2.into()));
        minimal.set("id", Json::Num(0.0));
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
            let doc = request_doc(req.clone());
            assert_eq!(
                doc.get("machine").and_then(Json::as_str),
                Some(machine.label().as_str()),
                "wire name is the CLI label"
            );
            assert_eq!(request_frame_from_json(&doc).unwrap().request, req);
        }
    }

    #[test]
    fn frames_roundtrip_and_echo_ids() {
        let run = RunRequest {
            spec: ExperimentSpec::new(Dataset::Sd, AlgoKey::Bfs, MachineKind::Baseline),
            scale: DatasetScale::Tiny,
        };
        let frame = RequestFrame {
            id: 17,
            request: Request::Batch(vec![run, run]),
        };
        let doc = request_frame_to_json(&frame);
        assert_eq!(doc.get("proto").and_then(Json::as_str), Some(PROTO_V2));
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(17));
        assert_eq!(request_frame_from_json(&doc).unwrap(), frame);

        let resp = ResponseFrame {
            id: Some(17),
            response: Response::Busy {
                queue_depth: 2,
                queue_limit: 4,
            },
        };
        let doc = response_frame_to_json(resp.clone());
        assert_eq!(response_frame_from_json(doc).unwrap(), resp);
    }

    #[test]
    fn request_frames_must_carry_an_integer_id() {
        // A request without an id is malformed…
        let mut doc = request_doc(Request::Ping);
        doc.set("id", Json::Null);
        assert_eq!(
            request_frame_from_json(&doc).unwrap_err().code(),
            "protocol"
        );

        // …a v1-tagged frame is refused even with one…
        let mut doc = request_doc(Request::Ping);
        doc.set("proto", Json::Str("omega-serve/v1".into()));
        assert_eq!(
            request_frame_from_json(&doc).unwrap_err().code(),
            "protocol"
        );

        // …and fractional and negative ids are rejected, not truncated.
        for bad in [1.5, -1.0] {
            let mut doc = request_doc(Request::Ping);
            doc.set("id", Json::Num(bad));
            assert_eq!(
                request_frame_from_json(&doc).unwrap_err().code(),
                "protocol"
            );
        }
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
        let payload = batch_payload(results.clone());
        assert_eq!(
            payload.get("schema").and_then(Json::as_str),
            Some(BATCH_SCHEMA)
        );
        assert_eq!(batch_results(payload).unwrap(), results);

        // An empty batch request is malformed.
        let mut doc = request_doc(Request::Batch(vec![]));
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
            let doc = request_doc(Request::Batch(vec![run; n]));
            let got = request_frame_from_json(&doc).err().map(|e| e.code());
            assert_eq!(got, err, "a batch of {n} runs");
        }
    }

    #[test]
    fn unknown_names_become_structured_boundary_errors() {
        let mut doc = request_doc(Request::Ping);
        doc.set("method", Json::Str("explode".into()));
        let err = request_frame_from_json(&doc).unwrap_err();
        assert_eq!(err.code(), "unknown-name");
        assert!(err.to_string().contains("shutdown"), "{err}");

        let mut doc = request_doc(Request::Ping);
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
        // Any tag but v2 is refused, the retired v1 included, and the
        // error names the one revision that is served.
        for tag in ["omega-serve/v0", "omega-serve/v1"] {
            let mut doc = request_doc(Request::Ping);
            doc.set("proto", Json::Str(tag.into()));
            let err = request_frame_from_json(&doc).unwrap_err();
            assert_eq!(err.code(), "protocol");
            assert!(err.to_string().contains(PROTO_V2), "{err}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        let mut payload = Json::obj();
        payload.set("pong", Json::Bool(true));
        for (id, response) in [
            (Some(3), Response::Ok(payload)),
            (
                Some(4),
                Response::Busy {
                    queue_depth: 4,
                    queue_limit: 4,
                },
            ),
            (
                None,
                Response::Error {
                    code: "unknown-name".into(),
                    message: "unknown dataset `x`".into(),
                },
            ),
        ] {
            let frame = ResponseFrame { id, response };
            let doc = response_frame_to_json(frame.clone());
            assert_eq!(doc.get("id").is_some(), id.is_some());
            assert_eq!(response_frame_from_json(doc).unwrap(), frame);
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
