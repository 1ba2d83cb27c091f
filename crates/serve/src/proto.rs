//! The `spo-rpc/1` wire protocol: line-delimited JSON.
//!
//! Every request is one JSON object on one line:
//!
//! ```text
//! {"spo-rpc":1, "id":7, "method":"query",
//!  "params":{"name":"left"}, "timeout_ms":250}
//! ```
//!
//! * `spo-rpc` — protocol version, required, must be `1`;
//! * `id` — optional number or string, echoed verbatim in the response;
//! * `method` — one of `load`, `analyze`, `query`, `diff`, `stats`,
//!   `trace`, `reload`, `shutdown`;
//! * `params` — method-specific object (may be omitted when empty);
//! * `timeout_ms` — optional per-request admission deadline (≥ 1);
//! * `trace_id` — optional string naming this request's flight-recorder
//!   capture, echoed in the response and usable with the `trace` method
//!   to fetch the request's timeline afterwards.
//!
//! Responses are rendered by hand with a **fixed field order** (`spo-rpc`,
//! `id`, `status`, `trace_id` when the request carried one, then the
//! payload), so a response is a pure function of the request and the
//! served state — the byte-identity guarantee rests on this, not on any
//! map-iteration accident. Requests without a `trace_id` get responses
//! without one, byte-identical to pre-trace daemons:
//!
//! ```text
//! {"spo-rpc":1,"id":7,"status":"ok","result":{...}}
//! {"spo-rpc":1,"id":7,"status":"ok","trace_id":"t1","result":{...}}
//! {"spo-rpc":1,"id":7,"status":"degraded","result":{...},"diagnostics":[...]}
//! {"spo-rpc":1,"id":7,"status":"error","error":{"kind":"...","message":"..."}}
//! ```

use spo_guard::Diagnostic;
use spo_obs::json::{self, escape, Value};
use std::time::Duration;

/// The protocol version spoken by this crate.
pub const PROTOCOL_VERSION: u64 = 1;

/// The version field every request must carry.
pub const PROTOCOL_FIELD: &str = "spo-rpc";

/// Typed error kinds carried by `status:"error"` responses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorKind {
    /// The line was not valid JSON.
    Parse,
    /// Valid JSON that violates the request shape (missing/invalid
    /// fields, bad version, zero timeout).
    Protocol,
    /// A well-formed request naming a method this protocol lacks.
    UnknownMethod,
    /// The request line exceeded the daemon's line-length cap.
    Oversized,
    /// A named program or entry point is not loaded/present.
    NotFound,
    /// A source file could not be read during `load`/`reload`.
    Io,
    /// The daemon is draining and accepts no new work.
    ShuttingDown,
}

impl ErrorKind {
    /// The wire label of this kind.
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Protocol => "protocol",
            ErrorKind::UnknownMethod => "unknown-method",
            ErrorKind::Oversized => "oversized",
            ErrorKind::NotFound => "not-found",
            ErrorKind::Io => "io",
            ErrorKind::ShuttingDown => "shutting-down",
        }
    }
}

/// A typed request failure: the session stays alive, the client gets a
/// `status:"error"` line.
#[derive(Clone, Debug)]
pub struct RequestError {
    /// What class of failure this is.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    /// Creates an error of `kind` with `message`.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> RequestError {
        RequestError {
            kind,
            message: message.into(),
        }
    }
}

/// A request id, stored as its compact JSON rendering (`null` when the
/// request carried none) so the response echoes it byte-for-byte.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RequestId(String);

impl RequestId {
    /// The id of a request that carried none.
    pub fn none() -> RequestId {
        RequestId("null".to_owned())
    }

    /// The id as a JSON fragment (`7`, `"abc"`, or `null`).
    pub fn as_json(&self) -> &str {
        &self.0
    }
}

/// Analysis options a request can select, mirroring the CLI's
/// `--broad`/`--no-icp`/`--intra-only` flags. Doubles as the map key for
/// warm per-(program, options) state.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct OptionsSpec {
    /// `--broad`: broad event definition.
    pub broad: bool,
    /// `--no-icp`: disable interprocedural constant propagation.
    pub no_icp: bool,
    /// `--intra-only`: intraprocedural ablation.
    pub intra_only: bool,
}

impl OptionsSpec {
    /// The equivalent [`spo_core::AnalysisOptions`].
    pub fn to_options(self) -> spo_core::AnalysisOptions {
        let mut options = spo_core::AnalysisOptions::default();
        if self.broad {
            options.events = spo_core::EventDef::Broad;
        }
        if self.no_icp {
            options.icp = false;
        }
        if self.intra_only {
            options.interprocedural = false;
        }
        options
    }

    /// The intraprocedural ablation of this spec (used by `diff` for
    /// root-cause classification; the groups equal the engine's
    /// `compare_all`).
    pub fn intra(self) -> OptionsSpec {
        OptionsSpec {
            intra_only: true,
            ..self
        }
    }

    /// A short stable label (for stats and reload summaries).
    pub fn key(self) -> String {
        format!(
            "broad={},icp={},inter={}",
            u8::from(self.broad),
            u8::from(!self.no_icp),
            u8::from(!self.intra_only),
        )
    }
}

/// One decoded request method with its parameters.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Method {
    /// Load (or replace) a program under a name from `.jir` files.
    Load {
        /// Program name, the handle later requests use.
        name: String,
        /// Source files, layered in order.
        paths: Vec<String>,
    },
    /// Ensure the named program's policies are computed and resident,
    /// answering with the full listing: `query` without an entry point.
    Analyze {
        /// Program name.
        name: String,
        /// Always `None` off the wire (`analyze` takes no entry point);
        /// present so `analyze` and `query` decode to the same shape.
        entry: Option<String>,
        /// Analysis options.
        options: OptionsSpec,
    },
    /// Fetch the resident report (whole library or one entry point).
    Query {
        /// Program name.
        name: String,
        /// Entry-point signature; absent = the full listing.
        entry: Option<String>,
        /// Analysis options.
        options: OptionsSpec,
    },
    /// Difference two loaded programs' policies.
    Diff {
        /// Left program name.
        left: String,
        /// Right program name.
        right: String,
        /// Analysis options.
        options: OptionsSpec,
    },
    /// Daemon counters plus an embedded `spo-stats/1` snapshot.
    Stats,
    /// Fetch a recent request's flight-recorder timeline (`spo-trace/1`).
    Trace {
        /// The `trace_id` of the capture to fetch; absent = most recent.
        id: Option<String>,
    },
    /// Re-read a program's sources and re-analyze warm option sets.
    Reload {
        /// Program name.
        name: String,
    },
    /// Stop accepting work, drain, and exit.
    Shutdown,
}

impl Method {
    /// The wire name (for per-method counters).
    pub fn label(&self) -> &'static str {
        match self {
            Method::Load { .. } => "load",
            Method::Analyze { .. } => "analyze",
            Method::Query { .. } => "query",
            Method::Diff { .. } => "diff",
            Method::Stats => "stats",
            Method::Trace { .. } => "trace",
            Method::Reload { .. } => "reload",
            Method::Shutdown => "shutdown",
        }
    }
}

/// One decoded request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Request {
    /// Echoed id.
    pub id: RequestId,
    /// Decoded method and parameters.
    pub method: Method,
    /// Per-request admission deadline.
    pub timeout: Option<Duration>,
    /// Client-supplied flight-recorder capture name. When present the
    /// daemon records a timeline for this request, echoes the id in the
    /// response envelope, and serves the capture via the `trace` method.
    pub trace_id: Option<String>,
}

/// Parses one request line. On failure the id (when one could be read)
/// rides along so the error response still correlates with the request.
pub fn parse_request(line: &str) -> Result<Request, (RequestId, RequestError)> {
    let bad = |id: &RequestId, kind: ErrorKind, msg: String| {
        Err((id.clone(), RequestError::new(kind, msg)))
    };
    let none = RequestId::none();
    let doc = match json::parse(line) {
        Ok(doc) => doc,
        Err(e) => return bad(&none, ErrorKind::Parse, format!("invalid JSON: {e}")),
    };
    if doc.as_object().is_none() {
        return bad(
            &none,
            ErrorKind::Protocol,
            "request is not an object".to_owned(),
        );
    }
    let id = match doc.get("id") {
        None | Some(Value::Null) => RequestId::none(),
        Some(Value::UInt(n)) => RequestId(n.to_string()),
        Some(Value::Str(s)) => RequestId(format!("\"{}\"", escape(s))),
        Some(_) => {
            return bad(
                &none,
                ErrorKind::Protocol,
                "\"id\" must be a number or string".to_owned(),
            )
        }
    };
    match doc.get(PROTOCOL_FIELD).and_then(Value::as_u64) {
        Some(PROTOCOL_VERSION) => {}
        _ => {
            return bad(
                &id,
                ErrorKind::Protocol,
                format!(
                "missing or unsupported \"{PROTOCOL_FIELD}\" version (expected {PROTOCOL_VERSION})"
            ),
            )
        }
    }
    let timeout = match doc.get("timeout_ms") {
        None => None,
        Some(Value::UInt(0)) => {
            // Mirrors the CLI's zero-budget rejection: 0 would silently
            // mean "unlimited", not "immediately".
            return bad(
                &id,
                ErrorKind::Protocol,
                "\"timeout_ms\" must be at least 1 (omit the field for unlimited)".to_owned(),
            );
        }
        Some(Value::UInt(ms)) => Some(Duration::from_millis(*ms)),
        Some(_) => {
            return bad(
                &id,
                ErrorKind::Protocol,
                "\"timeout_ms\" must be an unsigned integer".to_owned(),
            )
        }
    };
    let trace_id = match doc.get("trace_id") {
        None => None,
        Some(Value::Str(s)) if !s.is_empty() => Some(s.clone()),
        Some(_) => {
            return bad(
                &id,
                ErrorKind::Protocol,
                "\"trace_id\" must be a non-empty string".to_owned(),
            )
        }
    };
    let Some(method_name) = doc.get("method").and_then(Value::as_str) else {
        return bad(
            &id,
            ErrorKind::Protocol,
            "missing string field \"method\"".to_owned(),
        );
    };
    let params = doc.get("params");
    if let Some(p) = params {
        if p.as_object().is_none() {
            return bad(
                &id,
                ErrorKind::Protocol,
                "\"params\" must be an object".to_owned(),
            );
        }
    }
    let method = match decode_method(method_name, params) {
        Ok(m) => m,
        Err(e) => return Err((id, e)),
    };
    Ok(Request {
        id,
        method,
        timeout,
        trace_id,
    })
}

fn require_str(params: Option<&Value>, field: &str) -> Result<String, RequestError> {
    params
        .and_then(|p| p.get(field))
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| {
            RequestError::new(
                ErrorKind::Protocol,
                format!("missing string param \"{field}\""),
            )
        })
}

fn optional_str(params: Option<&Value>, field: &str) -> Result<Option<String>, RequestError> {
    match params.and_then(|p| p.get(field)) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(RequestError::new(
            ErrorKind::Protocol,
            format!("param \"{field}\" must be a string"),
        )),
    }
}

fn optional_bool(params: Option<&Value>, field: &str) -> Result<bool, RequestError> {
    match params.and_then(|p| p.get(field)) {
        None => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(RequestError::new(
            ErrorKind::Protocol,
            format!("param \"{field}\" must be a boolean"),
        )),
    }
}

fn options_spec(params: Option<&Value>) -> Result<OptionsSpec, RequestError> {
    Ok(OptionsSpec {
        broad: optional_bool(params, "broad")?,
        no_icp: optional_bool(params, "no_icp")?,
        intra_only: optional_bool(params, "intra_only")?,
    })
}

fn decode_method(name: &str, params: Option<&Value>) -> Result<Method, RequestError> {
    match name {
        "load" => {
            let prog = require_str(params, "name")?;
            let paths = match params.and_then(|p| p.get("paths")) {
                Some(Value::Array(items)) if !items.is_empty() => items
                    .iter()
                    .map(|v| {
                        v.as_str().map(str::to_owned).ok_or_else(|| {
                            RequestError::new(
                                ErrorKind::Protocol,
                                "param \"paths\" must be an array of strings",
                            )
                        })
                    })
                    .collect::<Result<Vec<String>, RequestError>>()?,
                _ => {
                    return Err(RequestError::new(
                        ErrorKind::Protocol,
                        "missing non-empty array param \"paths\"",
                    ))
                }
            };
            Ok(Method::Load { name: prog, paths })
        }
        "analyze" => Ok(Method::Analyze {
            name: require_str(params, "name")?,
            entry: None,
            options: options_spec(params)?,
        }),
        "query" => Ok(Method::Query {
            name: require_str(params, "name")?,
            entry: optional_str(params, "entry")?,
            options: options_spec(params)?,
        }),
        "diff" => Ok(Method::Diff {
            left: require_str(params, "left")?,
            right: require_str(params, "right")?,
            options: options_spec(params)?,
        }),
        "stats" => Ok(Method::Stats),
        "trace" => Ok(Method::Trace {
            id: optional_str(params, "trace_id")?,
        }),
        "reload" => Ok(Method::Reload {
            name: require_str(params, "name")?,
        }),
        "shutdown" => Ok(Method::Shutdown),
        other => Err(RequestError::new(
            ErrorKind::UnknownMethod,
            format!("unknown method \"{other}\""),
        )),
    }
}

// ---------------------------------------------------------------------------
// Response rendering

/// An incremental single-line JSON object writer with caller-fixed field
/// order — the deterministic building block for `result` payloads.
#[derive(Debug)]
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl JsonObj {
    /// Starts an empty object.
    #[allow(clippy::new_without_default)]
    pub fn new() -> JsonObj {
        JsonObj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        self.buf.push_str(&escape(key));
        self.buf.push_str("\":");
    }

    /// Appends a pre-rendered JSON fragment under `key`.
    pub fn raw(mut self, key: &str, fragment: &str) -> JsonObj {
        self.key(key);
        self.buf.push_str(fragment);
        self
    }

    /// Appends a string field.
    pub fn str(mut self, key: &str, value: &str) -> JsonObj {
        self.key(key);
        self.buf.push('"');
        self.buf.push_str(&escape(value));
        self.buf.push('"');
        self
    }

    /// Appends an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> JsonObj {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> JsonObj {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Closes the object and returns its rendering.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

fn envelope(id: &RequestId, status: &str, trace_id: Option<&str>) -> String {
    let mut out = format!(
        "{{\"{PROTOCOL_FIELD}\":{PROTOCOL_VERSION},\"id\":{},\"status\":\"{status}\"",
        id.as_json()
    );
    if let Some(t) = trace_id {
        out.push_str(",\"trace_id\":\"");
        out.push_str(&escape(t));
        out.push('"');
    }
    out
}

/// Renders a `status:"ok"` response around a pre-rendered result object.
/// The `trace_id` is echoed right after `status` only when the request
/// carried one, keeping untraced responses byte-identical.
pub fn render_ok(id: &RequestId, trace_id: Option<&str>, result: &str) -> String {
    let mut out = envelope(id, "ok", trace_id);
    out.push_str(",\"result\":");
    out.push_str(result);
    out.push('}');
    out
}

/// Renders a `status:"degraded"` response: the partial result plus the
/// sorted degradation records, mirroring the one-shot CLI's exit-code-2
/// contract (results are a lower bound).
pub fn render_degraded(
    id: &RequestId,
    trace_id: Option<&str>,
    result: &str,
    diagnostics: &[Diagnostic],
) -> String {
    let mut out = envelope(id, "degraded", trace_id);
    out.push_str(",\"result\":");
    out.push_str(result);
    out.push_str(",\"diagnostics\":[");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(
            &JsonObj::new()
                .str("severity", &d.severity.to_string())
                .str("phase", &d.phase.to_string())
                .str("root", &d.root)
                .str("cause", d.cause.label())
                .str("message", &d.message)
                .finish(),
        );
    }
    out.push_str("]}");
    out
}

/// Renders a `status:"error"` response.
pub fn render_error(id: &RequestId, error: &RequestError) -> String {
    let mut out = envelope(id, "error", None);
    out.push_str(",\"error\":");
    out.push_str(
        &JsonObj::new()
            .str("kind", error.kind.label())
            .str("message", &error.message)
            .finish(),
    );
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let req = parse_request(
            r#"{"spo-rpc":1,"id":7,"method":"query","params":{"name":"left","broad":true},"timeout_ms":250}"#,
        )
        .unwrap();
        assert_eq!(req.id.as_json(), "7");
        assert_eq!(req.timeout, Some(Duration::from_millis(250)));
        assert_eq!(req.trace_id, None);
        assert_eq!(
            req.method,
            Method::Query {
                name: "left".to_owned(),
                entry: None,
                options: OptionsSpec {
                    broad: true,
                    ..OptionsSpec::default()
                },
            }
        );
    }

    #[test]
    fn string_ids_echo_escaped() {
        let req = parse_request(r#"{"spo-rpc":1,"id":"a\"b","method":"stats"}"#).unwrap();
        assert_eq!(req.id.as_json(), r#""a\"b""#);
        assert_eq!(req.method, Method::Stats);
    }

    #[test]
    fn typed_errors_for_malformed_lines() {
        let (_, e) = parse_request("not json").unwrap_err();
        assert_eq!(e.kind, ErrorKind::Parse);
        let (_, e) = parse_request("[1,2]").unwrap_err();
        assert_eq!(e.kind, ErrorKind::Protocol);
        let (id, e) = parse_request(r#"{"spo-rpc":2,"id":3,"method":"stats"}"#).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Protocol);
        assert_eq!(id.as_json(), "3", "id still correlates the error");
        let (_, e) = parse_request(r#"{"spo-rpc":1,"method":"frobnicate"}"#).unwrap_err();
        assert_eq!(e.kind, ErrorKind::UnknownMethod);
        assert!(e.message.contains("frobnicate"));
        let (_, e) = parse_request(
            r#"{"spo-rpc":1,"method":"analyze","params":{"name":"x"},"timeout_ms":0}"#,
        )
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Protocol);
        assert!(e.message.contains("at least 1"), "{}", e.message);
        let (_, e) =
            parse_request(r#"{"spo-rpc":1,"method":"load","params":{"name":"x"}}"#).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Protocol);
        assert!(e.message.contains("paths"));
    }

    #[test]
    fn responses_have_fixed_field_order() {
        let id = RequestId("9".to_owned());
        let result = JsonObj::new()
            .str("report", "r\n")
            .u64("exit_code", 0)
            .finish();
        assert_eq!(
            render_ok(&id, None, &result),
            r#"{"spo-rpc":1,"id":9,"status":"ok","result":{"report":"r\n","exit_code":0}}"#
        );
        assert_eq!(
            render_ok(&id, Some("t-1"), &result),
            r#"{"spo-rpc":1,"id":9,"status":"ok","trace_id":"t-1","result":{"report":"r\n","exit_code":0}}"#
        );
        let err = RequestError::new(ErrorKind::Oversized, "line exceeds 4096 bytes");
        assert_eq!(
            render_error(&RequestId::none(), &err),
            r#"{"spo-rpc":1,"id":null,"status":"error","error":{"kind":"oversized","message":"line exceeds 4096 bytes"}}"#
        );
    }

    #[test]
    fn trace_ids_parse_and_gate() {
        let req =
            parse_request(r#"{"spo-rpc":1,"id":1,"method":"stats","trace_id":"req-42"}"#).unwrap();
        assert_eq!(req.trace_id.as_deref(), Some("req-42"));
        let (_, e) =
            parse_request(r#"{"spo-rpc":1,"id":1,"method":"stats","trace_id":7}"#).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Protocol);
        let (_, e) =
            parse_request(r#"{"spo-rpc":1,"id":1,"method":"stats","trace_id":""}"#).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Protocol);
        let req = parse_request(
            r#"{"spo-rpc":1,"id":1,"method":"trace","params":{"trace_id":"req-42"}}"#,
        )
        .unwrap();
        assert_eq!(
            req.method,
            Method::Trace {
                id: Some("req-42".to_owned())
            }
        );
        assert_eq!(
            parse_request(r#"{"spo-rpc":1,"id":1,"method":"trace"}"#)
                .unwrap()
                .method,
            Method::Trace { id: None }
        );
    }

    #[test]
    fn options_spec_round_trips_and_keys() {
        let spec = OptionsSpec {
            broad: true,
            no_icp: true,
            intra_only: false,
        };
        let opts = spec.to_options();
        assert_eq!(opts.events, spo_core::EventDef::Broad);
        assert!(!opts.icp);
        assert!(opts.interprocedural);
        assert_eq!(spec.key(), "broad=1,icp=0,inter=1");
        assert_eq!(spec.intra().key(), "broad=1,icp=0,inter=0");
    }
}
