//! The service-plane protocol: versioned request/response types and their
//! JSON codec.
//!
//! Each frame body (see [`frame`](crate::rpc::frame)) is one JSON object.
//! Requests carry an *envelope* — protocol version `v`, client-chosen
//! correlation id `id`, optional `tenant` claim — plus an `op` tag naming
//! the [`Request`] variant and that variant's fields inline. Responses echo
//! `v` and `id` and carry a `kind` tag naming the [`Response`] variant:
//!
//! ```text
//!   → {"v":1,"id":42,"op":"register","kind":"coverage",
//!      "subject":"bedroom","value":25.0}
//!   ← {"v":1,"id":42,"kind":"registered","service":3,"task":7}
//!
//!   → {"v":1,"id":43,"op":"register","kind":"coverage",
//!      "subject":"bedroom","value":25.0}
//!   ← {"v":1,"id":43,"kind":"rejected",
//!      "reason":"tenant quota exhausted: 4 live services (cap 4)"}
//! ```
//!
//! # Version negotiation
//!
//! [`PROTOCOL_VERSION`] is 1. A server rejects any request whose `v` it
//! does not speak with a [`Response::Error`] naming its own version —
//! except `op:"ping"`, which is defined to be decodable under *every*
//! version so a client can always learn the server's version from the
//! [`Response::Pong`] it gets back, then downgrade or give up.
//!
//! # Encoding and decoding
//!
//! Encoding writes compact JSON field by field through `surfos_obs`'s
//! [`JsonObject`]; decoding parses with the same crate's [`JsonValue`]
//! parser, which refuses documents nested deeper than 64 levels. Both
//! directions of both types are implemented so clients, servers and tests
//! share one codec:
//!
//! ```
//! use surfos::rpc::proto::{Request, RequestEnvelope, Response};
//!
//! let env = RequestEnvelope::new(7, Request::Ping);
//! let (back, json) = (RequestEnvelope::decode(&env.encode()).unwrap(), env.encode());
//! assert_eq!(back.id, 7);
//! assert!(matches!(back.request, Request::Ping));
//! assert!(json.starts_with(r#"{"v":1,"#));
//!
//! let resp = Response::Rejected { reason: "no surfaces deployed".into() };
//! let decoded = Response::decode(&resp.encode(1)).unwrap();
//! assert!(matches!(decoded.1, Response::Rejected { .. }));
//! ```

use surfos_obs::{JsonObject, JsonValue};

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// A decoding failure: what was wrong with the frame body.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

/// One service-plane operation, as named by the envelope's `op` tag.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness + version probe. Decodable under every protocol version.
    Ping,
    /// Register a service: the daemon routes this through tenant
    /// registration and admission, then submits it to the kernel.
    RegisterService {
        /// Service class: `coverage`, `link`, `sensing`, `powering` or
        /// `protect` (the shell's `request` vocabulary).
        kind: String,
        /// The subject room or endpoint id.
        subject: String,
        /// The goal value (target SNR dB, duration s, max leak dBm, … —
        /// meaning depends on `kind`).
        value: f64,
    },
    /// Release a service lease previously granted to this tenant.
    ReleaseService {
        /// The lease id from [`Response::Registered`].
        service: u64,
    },
    /// Submit a natural-language intent; the broker grounds it into
    /// service tasks.
    SubmitIntent {
        /// The utterance, e.g. `"I want to watch a movie on my laptop"`.
        utterance: String,
    },
    /// Evaluate the current channel between two registered endpoints.
    QueryChannel {
        /// Transmitter endpoint id.
        tx: String,
        /// Receiver endpoint id.
        rx: String,
    },
    /// Fetch the daemon's observability snapshot as JSON.
    Metrics {
        /// When true, return the run-invariant projection (wall-clock
        /// series dropped) instead of the full snapshot.
        deterministic: bool,
    },
}

impl Request {
    /// The envelope `op` tag for this variant.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::RegisterService { .. } => "register",
            Request::ReleaseService { .. } => "release",
            Request::SubmitIntent { .. } => "intent",
            Request::QueryChannel { .. } => "query",
            Request::Metrics { .. } => "metrics",
        }
    }
}

/// A request plus its envelope fields.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEnvelope {
    /// Protocol version the client speaks.
    pub v: u64,
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Optional tenant claim; the first claim on a connection names its
    /// session tenant (otherwise the daemon assigns one).
    pub tenant: Option<String>,
    /// The operation.
    pub request: Request,
}

impl RequestEnvelope {
    /// An envelope at [`PROTOCOL_VERSION`] with no tenant claim.
    pub fn new(id: u64, request: Request) -> Self {
        RequestEnvelope {
            v: PROTOCOL_VERSION,
            id,
            tenant: None,
            request,
        }
    }

    /// Same, claiming a tenant name.
    pub fn with_tenant(id: u64, tenant: impl Into<String>, request: Request) -> Self {
        RequestEnvelope {
            v: PROTOCOL_VERSION,
            id,
            tenant: Some(tenant.into()),
            request,
        }
    }

    /// Encodes the envelope as a compact JSON object (one frame body).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let mut o = JsonObject::new(&mut out)
            .field("v", &self.v)
            .field("id", &self.id);
        if let Some(tenant) = &self.tenant {
            o = o.field("tenant", tenant);
        }
        o = o.field("op", self.request.op());
        match &self.request {
            Request::Ping => o,
            Request::RegisterService {
                kind,
                subject,
                value,
            } => o
                .field("kind", kind)
                .field("subject", subject)
                .field("value", value),
            Request::ReleaseService { service } => o.field("service", service),
            Request::SubmitIntent { utterance } => o.field("utterance", utterance),
            Request::QueryChannel { tx, rx } => o.field("tx", tx).field("rx", rx),
            Request::Metrics { deterministic } => o.field("deterministic", deterministic),
        }
        .end();
        out
    }

    /// Decodes a frame body into an envelope.
    ///
    /// Unknown `op` tags and missing or mistyped fields are errors; the
    /// error text names the offending field so wire bugs are debuggable
    /// from the peer's error response alone.
    pub fn decode(body: &str) -> Result<RequestEnvelope, ProtoError> {
        let v = JsonValue::parse(body).map_err(|e| ProtoError(format!("bad JSON: {e}")))?;
        let version = get_u64(&v, "v")?;
        let id = get_u64(&v, "id")?;
        let tenant = match v.get("tenant") {
            None | Some(JsonValue::Null) => None,
            Some(JsonValue::Str(s)) => Some(s.clone()),
            Some(_) => return Err(ProtoError("field \"tenant\" must be a string".into())),
        };
        let op = get_str(&v, "op")?;
        let request = match op.as_str() {
            "ping" => Request::Ping,
            // Every other op requires the version to match exactly; ping
            // stays decodable so version discovery always works.
            _ if version != PROTOCOL_VERSION => {
                return Err(ProtoError(format!(
                    "unsupported protocol version {version} (this peer speaks {PROTOCOL_VERSION})"
                )));
            }
            "register" => Request::RegisterService {
                kind: get_str(&v, "kind")?,
                subject: get_str(&v, "subject")?,
                value: get_f64(&v, "value")?,
            },
            "release" => Request::ReleaseService {
                service: get_u64(&v, "service")?,
            },
            "intent" => Request::SubmitIntent {
                utterance: get_str(&v, "utterance")?,
            },
            "query" => Request::QueryChannel {
                tx: get_str(&v, "tx")?,
                rx: get_str(&v, "rx")?,
            },
            "metrics" => Request::Metrics {
                deterministic: match v.get("deterministic") {
                    None => false,
                    Some(b) => b.as_bool().ok_or_else(|| {
                        ProtoError("field \"deterministic\" must be a bool".into())
                    })?,
                },
            },
            other => return Err(ProtoError(format!("unknown op {other:?}"))),
        };
        Ok(RequestEnvelope {
            v: version,
            id,
            tenant,
            request,
        })
    }
}

/// One service-plane reply, as named by its `kind` tag.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`]: the server's version and the tenant
    /// name bound to this session.
    Pong {
        /// The server's [`PROTOCOL_VERSION`].
        version: u64,
        /// This connection's tenant id.
        tenant: String,
    },
    /// The service was admitted.
    Registered {
        /// The lease id (pass to [`Request::ReleaseService`]).
        service: u64,
        /// The kernel task id backing the lease.
        task: u64,
    },
    /// The lease was released and its kernel task retired.
    Released {
        /// The released lease id.
        service: u64,
    },
    /// The intent was grounded into these kernel task ids (may be empty
    /// when no service matched the utterance).
    IntentTasks {
        /// Admitted task ids.
        tasks: Vec<u64>,
    },
    /// Channel evaluation result.
    Channel {
        /// Received signal strength, dBm.
        rss_dbm: f64,
        /// Signal-to-noise ratio, dB.
        snr_db: f64,
        /// Shannon capacity, bits/s.
        capacity_bps: f64,
    },
    /// The observability snapshot, as a JSON document in a string field.
    Metrics {
        /// The snapshot JSON (parse with `surfos_obs::JsonValue`).
        json: String,
    },
    /// The request was understood but *not admitted* — over-demand is a
    /// structured outcome, never a hang or a dropped connection.
    Rejected {
        /// Why admission failed (quota, capacity, no resources, …).
        reason: String,
    },
    /// The request could not be served (unknown endpoint, bad version,
    /// malformed body, unowned lease, …).
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Response {
    /// The `kind` tag for this variant.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Pong { .. } => "pong",
            Response::Registered { .. } => "registered",
            Response::Released { .. } => "released",
            Response::IntentTasks { .. } => "intent",
            Response::Channel { .. } => "channel",
            Response::Metrics { .. } => "metrics",
            Response::Rejected { .. } => "rejected",
            Response::Error { .. } => "error",
        }
    }

    /// Encodes the response, echoing the request's correlation `id`.
    pub fn encode(&self, id: u64) -> String {
        let mut out = String::new();
        let o = JsonObject::new(&mut out)
            .field("v", &PROTOCOL_VERSION)
            .field("id", &id)
            .field("kind", self.kind());
        match self {
            Response::Pong { version, tenant } => {
                o.field("version", version).field("tenant", tenant)
            }
            Response::Registered { service, task } => {
                o.field("service", service).field("task", task)
            }
            Response::Released { service } => o.field("service", service),
            Response::IntentTasks { tasks } => o.field("tasks", tasks),
            Response::Channel {
                rss_dbm,
                snr_db,
                capacity_bps,
            } => o
                .field("rss_dbm", rss_dbm)
                .field("snr_db", snr_db)
                .field("capacity_bps", capacity_bps),
            Response::Metrics { json } => o.field("json", json),
            Response::Rejected { reason } => o.field("reason", reason),
            Response::Error { message } => o.field("message", message),
        }
        .end();
        out
    }

    /// Decodes a frame body into `(correlation id, response)`.
    pub fn decode(body: &str) -> Result<(u64, Response), ProtoError> {
        let v = JsonValue::parse(body).map_err(|e| ProtoError(format!("bad JSON: {e}")))?;
        let id = get_u64(&v, "id")?;
        let kind = get_str(&v, "kind")?;
        let response = match kind.as_str() {
            "pong" => Response::Pong {
                version: get_u64(&v, "version")?,
                tenant: get_str(&v, "tenant")?,
            },
            "registered" => Response::Registered {
                service: get_u64(&v, "service")?,
                task: get_u64(&v, "task")?,
            },
            "released" => Response::Released {
                service: get_u64(&v, "service")?,
            },
            "intent" => {
                let tasks = v
                    .get("tasks")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| ProtoError("missing array field \"tasks\"".into()))?;
                Response::IntentTasks {
                    tasks: tasks
                        .iter()
                        .map(|t| as_u64(Some(t), "tasks"))
                        .collect::<Result<_, _>>()?,
                }
            }
            "channel" => Response::Channel {
                rss_dbm: get_f64(&v, "rss_dbm")?,
                snr_db: get_f64(&v, "snr_db")?,
                capacity_bps: get_f64(&v, "capacity_bps")?,
            },
            "metrics" => Response::Metrics {
                json: get_str(&v, "json")?,
            },
            "rejected" => Response::Rejected {
                reason: get_str(&v, "reason")?,
            },
            "error" => Response::Error {
                message: get_str(&v, "message")?,
            },
            other => return Err(ProtoError(format!("unknown response kind {other:?}"))),
        };
        Ok((id, response))
    }
}

/// The largest integer every JSON number in the `f64` parser holds
/// exactly (2⁵³−1). Anything larger could already have been rounded.
const MAX_SAFE_INT: f64 = 9_007_199_254_740_991.0;

fn get_u64(v: &JsonValue, field: &str) -> Result<u64, ProtoError> {
    as_u64(v.get(field), field)
}

/// `v` as an exact non-negative integer no larger than [`MAX_SAFE_INT`].
fn as_u64(v: Option<&JsonValue>, field: &str) -> Result<u64, ProtoError> {
    v.and_then(JsonValue::as_f64)
        .filter(|f| *f >= 0.0 && f.fract() == 0.0 && *f <= MAX_SAFE_INT)
        .map(|f| f as u64)
        .ok_or_else(|| {
            ProtoError(format!(
                "missing or non-integer field {field:?} (integers up to 2^53-1)"
            ))
        })
}

fn get_f64(v: &JsonValue, field: &str) -> Result<f64, ProtoError> {
    v.get(field)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| ProtoError(format!("missing or non-numeric field {field:?}")))
}

fn get_str(v: &JsonValue, field: &str) -> Result<String, ProtoError> {
    v.get(field)
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
        .ok_or_else(|| ProtoError(format!("missing or non-string field {field:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every request variant with its exact encoding under
    /// `RequestEnvelope::with_tenant(i, "t{i}", _)`.
    fn all_requests() -> Vec<(Request, &'static str)> {
        vec![
            (Request::Ping, r#"{"v":1,"id":0,"tenant":"t0","op":"ping"}"#),
            (
                Request::RegisterService {
                    kind: "coverage".into(),
                    subject: "bedroom".into(),
                    value: 25.0,
                },
                r#"{"v":1,"id":1,"tenant":"t1","op":"register","kind":"coverage","subject":"bedroom","value":25.0}"#,
            ),
            (
                Request::ReleaseService { service: 3 },
                r#"{"v":1,"id":2,"tenant":"t2","op":"release","service":3}"#,
            ),
            (
                Request::SubmitIntent {
                    utterance: "start VR gaming \"now\"".into(),
                },
                r#"{"v":1,"id":3,"tenant":"t3","op":"intent","utterance":"start VR gaming \"now\""}"#,
            ),
            (
                Request::QueryChannel {
                    tx: "ap0".into(),
                    rx: "laptop".into(),
                },
                r#"{"v":1,"id":4,"tenant":"t4","op":"query","tx":"ap0","rx":"laptop"}"#,
            ),
            (
                Request::Metrics {
                    deterministic: true,
                },
                r#"{"v":1,"id":5,"tenant":"t5","op":"metrics","deterministic":true}"#,
            ),
            (
                Request::RegisterService {
                    kind: "link\n".into(),
                    subject: "a\u{1}\\b".into(),
                    value: 1e-7,
                },
                r#"{"v":1,"id":6,"tenant":"t6","op":"register","kind":"link\n","subject":"a\u0001\\b","value":1e-7}"#,
            ),
        ]
    }

    /// Every response variant with its exact encoding under `encode(i)`.
    fn all_responses() -> Vec<(Response, &'static str)> {
        vec![
            (
                Response::Pong {
                    version: PROTOCOL_VERSION,
                    tenant: "tenant-0".into(),
                },
                r#"{"v":1,"id":0,"kind":"pong","version":1,"tenant":"tenant-0"}"#,
            ),
            (
                Response::Registered {
                    service: 9,
                    task: 4,
                },
                r#"{"v":1,"id":1,"kind":"registered","service":9,"task":4}"#,
            ),
            (
                Response::Released { service: 9 },
                r#"{"v":1,"id":2,"kind":"released","service":9}"#,
            ),
            (
                Response::IntentTasks { tasks: vec![1, 2] },
                r#"{"v":1,"id":3,"kind":"intent","tasks":[1,2]}"#,
            ),
            (
                Response::IntentTasks { tasks: vec![] },
                r#"{"v":1,"id":4,"kind":"intent","tasks":[]}"#,
            ),
            (
                Response::Channel {
                    rss_dbm: -51.25,
                    snr_db: 32.5,
                    capacity_bps: 4.5e9,
                },
                r#"{"v":1,"id":5,"kind":"channel","rss_dbm":-51.25,"snr_db":32.5,"capacity_bps":4500000000.0}"#,
            ),
            (
                Response::Metrics {
                    json: r#"{"counters":{"rpc.requests":12}}"#.into(),
                },
                r#"{"v":1,"id":6,"kind":"metrics","json":"{\"counters\":{\"rpc.requests\":12}}"}"#,
            ),
            (
                Response::Rejected {
                    reason: "tenant quota exhausted: 4 live (cap 4)".into(),
                },
                r#"{"v":1,"id":7,"kind":"rejected","reason":"tenant quota exhausted: 4 live (cap 4)"}"#,
            ),
            (
                Response::Error {
                    message: "unknown endpoint \"ghost\"".into(),
                },
                r#"{"v":1,"id":8,"kind":"error","message":"unknown endpoint \"ghost\""}"#,
            ),
            (
                Response::Channel {
                    rss_dbm: 1e-7,
                    snr_db: -0.0,
                    capacity_bps: 1500000000.0,
                },
                r#"{"v":1,"id":9,"kind":"channel","rss_dbm":1e-7,"snr_db":-0.0,"capacity_bps":1500000000.0}"#,
            ),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for (i, (req, expected)) in all_requests().into_iter().enumerate() {
            let env = RequestEnvelope::with_tenant(i as u64, format!("t{i}"), req.clone());
            let body = env.encode();
            assert_eq!(body, expected);
            let back = RequestEnvelope::decode(&body).unwrap_or_else(|e| panic!("{body}: {e}"));
            assert_eq!(back, env, "{body}");
        }
        // And without a tenant claim.
        let env = RequestEnvelope::new(5, Request::Ping);
        assert_eq!(RequestEnvelope::decode(&env.encode()).unwrap(), env);
        assert_eq!(env.encode(), r#"{"v":1,"id":5,"op":"ping"}"#);
        // A non-finite goal encodes as `null`, which the decoder refuses
        // by name rather than inventing a number.
        let nan = RequestEnvelope::new(
            6,
            Request::RegisterService {
                kind: "coverage".into(),
                subject: "bedroom".into(),
                value: f64::NAN,
            },
        )
        .encode();
        assert_eq!(
            nan,
            r#"{"v":1,"id":6,"op":"register","kind":"coverage","subject":"bedroom","value":null}"#
        );
        let err = RequestEnvelope::decode(&nan).unwrap_err();
        assert!(err.0.contains("\"value\""), "{err}");
    }

    #[test]
    fn responses_round_trip() {
        for (i, (resp, expected)) in all_responses().into_iter().enumerate() {
            let body = resp.encode(i as u64);
            assert_eq!(body, expected);
            let (id, back) = Response::decode(&body).unwrap_or_else(|e| panic!("{body}: {e}"));
            assert_eq!(id, i as u64, "{body}");
            assert_eq!(back, resp, "{body}");
        }
        let inf = Response::Channel {
            rss_dbm: f64::NEG_INFINITY,
            snr_db: -0.0,
            capacity_bps: f64::INFINITY,
        }
        .encode(3);
        assert_eq!(
            inf,
            r#"{"v":1,"id":3,"kind":"channel","rss_dbm":null,"snr_db":-0.0,"capacity_bps":null}"#
        );
        let err = Response::decode(&inf).unwrap_err();
        assert!(err.0.contains("\"rss_dbm\""), "{err}");
    }

    #[test]
    fn metrics_payload_nests_as_a_parseable_document() {
        let inner = r#"{"counters":{"rpc.requests":12,"rpc.rejected":3}}"#;
        let body = Response::Metrics { json: inner.into() }.encode(0);
        let (_, back) = Response::decode(&body).unwrap();
        let Response::Metrics { json } = back else {
            panic!("wrong kind");
        };
        let doc = JsonValue::parse(&json).unwrap();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("rpc.requests"))
                .and_then(JsonValue::as_f64),
            Some(12.0)
        );
    }

    #[test]
    fn unknown_op_and_kind_are_errors_not_panics() {
        let err = RequestEnvelope::decode(r#"{"v":1,"id":0,"op":"frobnicate"}"#).unwrap_err();
        assert!(err.0.contains("frobnicate"), "{err}");
        let err = Response::decode(r#"{"v":1,"id":0,"kind":"mystery"}"#).unwrap_err();
        assert!(err.0.contains("mystery"), "{err}");
    }

    #[test]
    fn integers_decode_exactly_or_not_at_all() {
        let max = (1u64 << 53) - 1;
        let env = RequestEnvelope::decode(&format!(r#"{{"v":1,"id":{max},"op":"ping"}}"#));
        assert_eq!(env.unwrap().id, max);
        let (_, resp) = Response::decode(&format!(
            r#"{{"v":1,"id":0,"kind":"intent","tasks":[{max}]}}"#
        ))
        .unwrap();
        assert_eq!(resp, Response::IntentTasks { tasks: vec![max] });
        // 2^53+1 would round to 2^53 and 2^64 would saturate to u64::MAX.
        for big in ["9007199254740993", "18446744073709551616"] {
            let err = RequestEnvelope::decode(&format!(r#"{{"v":1,"id":{big},"op":"ping"}}"#))
                .unwrap_err();
            assert!(err.0.contains("\"id\""), "{big} -> {err}");
            let err = RequestEnvelope::decode(&format!(
                r#"{{"v":1,"id":0,"op":"release","service":{big}}}"#
            ))
            .unwrap_err();
            assert!(err.0.contains("\"service\""), "{big} -> {err}");
            let err = Response::decode(&format!(
                r#"{{"v":1,"id":0,"kind":"intent","tasks":[1,{big}]}}"#
            ))
            .unwrap_err();
            assert!(err.0.contains("\"tasks\""), "{big} -> {err}");
        }
    }

    #[test]
    fn missing_and_mistyped_fields_name_the_field() {
        for (body, needle) in [
            (r#"{"id":0,"op":"ping"}"#, "\"v\""),
            (r#"{"v":1,"op":"ping"}"#, "\"id\""),
            (r#"{"v":1,"id":0}"#, "\"op\""),
            (
                r#"{"v":1,"id":0,"op":"register","subject":"x","value":1}"#,
                "\"kind\"",
            ),
            (
                r#"{"v":1,"id":0,"op":"register","kind":"coverage","subject":"x","value":"high"}"#,
                "\"value\"",
            ),
            (
                r#"{"v":1,"id":0,"op":"release","service":-2}"#,
                "\"service\"",
            ),
            (r#"{"v":1,"id":0.5,"op":"ping"}"#, "\"id\""),
            (r#"{"v":1,"id":0,"tenant":7,"op":"ping"}"#, "\"tenant\""),
            (
                r#"{"v":1,"id":0,"op":"metrics","deterministic":"yes"}"#,
                "\"deterministic\"",
            ),
        ] {
            let err = RequestEnvelope::decode(body).unwrap_err();
            assert!(err.0.contains(needle), "{body} -> {err}");
        }
        assert!(RequestEnvelope::decode("[1,2,3]").is_err());
        assert!(RequestEnvelope::decode("not json at all").is_err());
        assert!(RequestEnvelope::decode("").is_err());
    }

    #[test]
    fn version_gate_spares_ping_only() {
        // A v2 ping decodes (version discovery must always work) …
        let ping = RequestEnvelope::decode(r#"{"v":2,"id":1,"op":"ping"}"#).unwrap();
        assert_eq!(ping.v, 2);
        assert!(matches!(ping.request, Request::Ping));
        // … but any other v2 op is rejected with the speaker's version.
        let err = RequestEnvelope::decode(r#"{"v":2,"id":1,"op":"query","tx":"a","rx":"b"}"#)
            .unwrap_err();
        assert!(err.0.contains("version 2"), "{err}");
        assert!(err.0.contains("speaks 1"), "{err}");
    }

    #[test]
    fn deep_nesting_is_a_proto_error_not_a_stack_overflow() {
        let body = "[".repeat(crate::rpc::frame::MAX_FRAME_LEN);
        let err = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || RequestEnvelope::decode(&body))
            .unwrap()
            .join()
            .expect("decode must not overflow the stack")
            .unwrap_err();
        assert!(err.0.contains("nesting"), "{err}");
    }

    /// A string drawn from `(class, bits)` pairs: control characters,
    /// JSON metacharacters, non-BMP scalars or any scalar at all.
    fn arb_string(draws: &[(u8, u32)]) -> String {
        draws
            .iter()
            .map(|&(class, bits)| match class {
                0 => char::from_u32(bits % 0x20).unwrap(),
                1 => ['"', '\\', '/', '\u{7f}'][bits as usize % 4],
                2 => char::from_u32(0x10000 + bits % 0x100000).unwrap(),
                _ => char::from_u32(bits % 0x110000).unwrap_or('\u{fffd}'),
            })
            .collect()
    }

    /// Fragments a token soup is built from: JSON punctuation and literals
    /// plus envelope keys and ops, so some soups get past the parser.
    const TOKENS: [&str; 20] = [
        "[",
        "]",
        "{",
        "}",
        "\"",
        ":",
        ",",
        "\\",
        "0",
        "-1e9",
        "true",
        "null",
        " ",
        "\"v\":1",
        "\"id\":",
        "\"op\":",
        "\"register\"",
        "\"kind\"",
        "\"tasks\":[",
        "\"channel\"",
    ];

    proptest! {
        #[test]
        fn random_bytes_never_panic_the_decoders(
            bytes in prop::collection::vec(prop::num::u8::ANY, 0..96),
        ) {
            let body = String::from_utf8_lossy(&bytes);
            let _ = RequestEnvelope::decode(&body);
            let _ = Response::decode(&body);
        }

        #[test]
        fn token_soups_never_panic_the_decoders(
            picks in prop::collection::vec(0usize..TOKENS.len(), 0..48),
        ) {
            let body: String = picks.iter().map(|&i| TOKENS[i]).collect();
            let _ = RequestEnvelope::decode(&body);
            let _ = Response::decode(&body);
            let wrapped = format!(r#"{{"v":1,"id":2,"op":"register","kind":{body}}}"#);
            let _ = RequestEnvelope::decode(&wrapped);
        }

        #[test]
        fn requests_with_arbitrary_strings_round_trip(
            shape in (0u8..6, 0u64..(1 << 53), -1e12f64..1e12, prop::bool::ANY),
            a in prop::collection::vec((0u8..4, prop::num::u32::ANY), 0..16),
            b in prop::collection::vec((0u8..4, prop::num::u32::ANY), 0..16),
            tenant in prop::collection::vec((0u8..4, prop::num::u32::ANY), 0..8),
        ) {
            let (op, num, value, flag) = shape;
            let (a, b) = (arb_string(&a), arb_string(&b));
            let request = match op {
                0 => Request::Ping,
                1 => Request::RegisterService { kind: a.clone(), subject: b, value },
                2 => Request::ReleaseService { service: num },
                3 => Request::SubmitIntent { utterance: a.clone() },
                4 => Request::QueryChannel { tx: a.clone(), rx: b },
                _ => Request::Metrics { deterministic: flag },
            };
            let env = if flag {
                RequestEnvelope::with_tenant(num, arb_string(&tenant), request)
            } else {
                RequestEnvelope::new(num, request)
            };
            let body = env.encode();
            prop_assert_eq!(RequestEnvelope::decode(&body), Ok(env), "{}", body);
            let error = Response::Error { message: a };
            prop_assert_eq!(Response::decode(&error.encode(num)), Ok((num, error)));
        }
    }

    #[test]
    fn string_fields_escape_cleanly() {
        let env = RequestEnvelope::new(
            1,
            Request::SubmitIntent {
                utterance: "quote \" backslash \\ newline \n done".into(),
            },
        );
        let back = RequestEnvelope::decode(&env.encode()).unwrap();
        assert_eq!(back, env);
    }
}
