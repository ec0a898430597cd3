//! The wire protocol: line-delimited JSON over TCP.
//!
//! One connection carries exactly one request line and receives exactly one
//! reply line. Requests are parsed with the hardened `sampsim_util::json`
//! parser (depth-limited, strict trailing-garbage rejection, full surrogate
//! decoding) and validated strictly: unknown keys are rejected so a typo'd
//! field can never be silently ignored.
//!
//! # Requests
//!
//! ```text
//! {"op":"run","bench":"omnetpp_s","scale":0.002,"slice":20,"maxk":6}
//! {"op":"run","bench":"omnetpp_s","scale":0.002,"strategy":"rss"}
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! `bench` is required for `run`; `scale` (default 1.0), `slice`, `maxk`
//! and `strategy` (a sampling-strategy name; default `simpoint`) are
//! optional. Degenerate values such as `"slice":0`, `"maxk":0` or an
//! unregistered strategy name pass protocol validation on purpose: they
//! flow into the `sampsim-analyze` lint pass, which reports them as
//! structured `invalid-config` replies with rule codes (`SA020`, `SA021`,
//! `SA130`) instead of a blunt parse error.
//!
//! # Replies
//!
//! A successful `run` reply is the exact `sampsim run` stdout document
//! (starts `{"benchmark":...`). Every failure is an object:
//!
//! ```text
//! {"error":{"code":"busy","message":"queue full (depth 32)"}}
//! {"error":{"code":"invalid-config","message":"...","rules":[...]}}
//! ```

use crate::service::RunRequest;
use sampsim_analyze::{diagnostic_json, Diagnostic};
use sampsim_util::json::{self, Value};

/// Maximum accepted request-line length in bytes. Longer lines get a
/// `bad-request` reply instead of unbounded buffering.
pub const MAX_LINE_BYTES: u64 = 1 << 20;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or fetch from cache) a full sampling study.
    Run(RunRequest),
    /// Liveness check.
    Ping,
    /// Server counter snapshot.
    Stats,
    /// Drain queued work and stop the server.
    Shutdown,
}

/// Parses and strictly validates one request line.
///
/// # Errors
///
/// Returns a human-readable message (for a `bad-request` reply) on
/// malformed JSON, missing/mistyped fields, or unknown keys.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let Value::Object(fields) = &value else {
        return Err("request must be a JSON object".into());
    };
    let op = value
        .get("op")
        .ok_or("missing \"op\"")?
        .as_str()
        .ok_or("\"op\" must be a string")?;
    let allowed: &[&str] = match op {
        "run" => &[
            "op", "bench", "scale", "slice", "maxk", "strategy", "kmeans",
        ],
        "ping" | "stats" | "shutdown" => &["op"],
        other => return Err(format!("unknown op {other:?}")),
    };
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unknown key {key:?} for op {op:?}"));
        }
    }
    match op {
        "run" => parse_run(&value).map(Request::Run),
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        _ => unreachable!("op validated above"),
    }
}

/// Parses the fields of a `run` request: the required `bench` and the
/// optional `scale`, `slice`, `maxk`, `strategy` and `kmeans`.
fn parse_run(value: &Value) -> Result<RunRequest, String> {
    let bench = value
        .get("bench")
        .ok_or("run needs \"bench\"")?
        .as_str()
        .ok_or("\"bench\" must be a string")?
        .to_string();
    let scale = match value.get("scale") {
        None => 1.0,
        Some(v) => {
            let f = v.as_f64().ok_or("\"scale\" must be a number")?;
            if !(f.is_finite() && f > 0.0) {
                return Err("\"scale\" must be finite and positive".into());
            }
            f
        }
    };
    let slice = match value.get("slice") {
        None => None,
        Some(v) => Some(non_negative_integer(v, "slice")?),
    };
    let maxk = match value.get("maxk") {
        None => None,
        Some(v) => Some(non_negative_integer(v, "maxk")? as usize),
    };
    let strategy = match value.get("strategy") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or("\"strategy\" must be a string")?
                .to_string(),
        ),
    };
    let kmeans = match value.get("kmeans") {
        None => None,
        Some(v) => Some(v.as_str().ok_or("\"kmeans\" must be a string")?.to_string()),
    };
    Ok(RunRequest {
        bench,
        scale,
        slice,
        maxk,
        strategy,
        kmeans,
    })
}

/// Extracts a non-negative integer that fits a `u64` exactly.
fn non_negative_integer(v: &Value, name: &str) -> Result<u64, String> {
    let f = v
        .as_f64()
        .ok_or_else(|| format!("\"{name}\" must be a number"))?;
    if !(f.is_finite() && f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64) {
        return Err(format!("\"{name}\" must be a non-negative integer"));
    }
    Ok(f as u64)
}

/// Escapes `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a typed failure reply.
pub fn error_reply(code: &str, message: &str) -> String {
    format!(
        "{{\"error\":{{\"code\":{},\"message\":{}}}}}",
        json_string(code),
        json_string(message)
    )
}

/// Renders the `invalid-config` reply: the summary message plus one
/// structured rule object per diagnostic (`sampsim lint --format json`
/// shape).
pub fn invalid_config_reply(message: &str, diagnostics: &[Diagnostic]) -> String {
    let rules: Vec<String> = diagnostics.iter().map(diagnostic_json).collect();
    format!(
        "{{\"error\":{{\"code\":\"invalid-config\",\"message\":{},\"rules\":[{}]}}}}",
        json_string(message),
        rules.join(",")
    )
}

/// The reply sent when the admission queue is full. Carries a
/// `retry_after_ms` hint so clients back off a sensible amount instead
/// of guessing; the hint is a pure function of the queue depth
/// ([`busy_retry_hint_ms`]), so replies stay deterministic.
pub fn busy_reply(queue_depth: usize) -> String {
    format!(
        "{{\"error\":{{\"code\":\"busy\",\"message\":{},\"retry_after_ms\":{}}}}}",
        json_string(&format!("queue full (depth {queue_depth})")),
        busy_retry_hint_ms(queue_depth)
    )
}

/// The deterministic `retry_after_ms` hint for a given queue depth: a
/// deeper queue drains more slowly, so the hint scales with depth,
/// clamped to a sane [25, 500] ms window.
pub fn busy_retry_hint_ms(queue_depth: usize) -> u64 {
    (10 * queue_depth as u64).clamp(25, 500)
}

/// Extracts the `retry_after_ms` hint from a `busy` failure reply;
/// `None` for every other line (success, other errors, garbage).
pub fn busy_retry_after(line: &str) -> Option<u64> {
    let value = json::parse(line).ok()?;
    let error = value.get("error")?;
    if error.get("code")?.as_str()? != "busy" {
        return None;
    }
    let hint = error.get("retry_after_ms")?.as_f64()?;
    (hint.is_finite() && hint >= 0.0).then_some(hint as u64)
}

/// Reply to `ping`.
pub fn pong_reply() -> String {
    "{\"ok\":\"pong\"}".to_string()
}

/// Reply to `shutdown`.
pub fn shutdown_reply() -> String {
    "{\"ok\":\"shutdown\"}".to_string()
}

/// Whether a reply line is a failure reply (`{"error":...}`).
pub fn is_error_reply(line: &str) -> bool {
    json::parse(line)
        .map(|v| v.get("error").is_some())
        .unwrap_or(true)
}

/// Builds the request line the `sampsim request` client sends for a run.
pub fn run_request_line(
    bench: &str,
    scale: f64,
    slice: Option<u64>,
    maxk: Option<usize>,
    strategy: Option<&str>,
    kmeans: Option<&str>,
) -> String {
    let mut fields = vec![
        "\"op\":\"run\"".to_string(),
        format!("\"bench\":{}", json_string(bench)),
        format!("\"scale\":{scale:?}"),
    ];
    if let Some(s) = slice {
        fields.push(format!("\"slice\":{s}"));
    }
    if let Some(k) = maxk {
        fields.push(format!("\"maxk\":{k}"));
    }
    if let Some(name) = strategy {
        fields.push(format!("\"strategy\":{}", json_string(name)));
    }
    if let Some(mode) = kmeans {
        fields.push(format!("\"kmeans\":{}", json_string(mode)));
    }
    format!("{{{}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_run_requests() {
        let r = parse_request(r#"{"op":"run","bench":"mcf_r","scale":0.5,"slice":20,"maxk":6}"#)
            .unwrap();
        assert_eq!(
            r,
            Request::Run(RunRequest {
                bench: "mcf_r".into(),
                scale: 0.5,
                slice: Some(20),
                maxk: Some(6),
                strategy: None,
                kmeans: None,
            })
        );
        // Optional fields default.
        let r = parse_request(r#"{"op":"run","bench":"mcf_r"}"#).unwrap();
        assert_eq!(
            r,
            Request::Run(RunRequest {
                bench: "mcf_r".into(),
                scale: 1.0,
                slice: None,
                maxk: None,
                strategy: None,
                kmeans: None,
            })
        );
    }

    #[test]
    fn parses_control_ops() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn degenerate_lintable_values_pass_protocol_validation() {
        // slice 0 / maxk 0 are the analyze pass's job (SA020/SA021), not
        // the protocol's: they must parse so the client gets rule codes.
        let r = parse_request(r#"{"op":"run","bench":"mcf_r","slice":0,"maxk":0}"#).unwrap();
        assert_eq!(
            r,
            Request::Run(RunRequest {
                bench: "mcf_r".into(),
                scale: 1.0,
                slice: Some(0),
                maxk: Some(0),
                strategy: None,
                kmeans: None,
            })
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, why) in [
            ("", "empty"),
            ("[]", "not an object"),
            ("{\"op\":\"run\"}", "missing bench"),
            ("{\"bench\":\"mcf_r\"}", "missing op"),
            ("{\"op\":\"frobnicate\"}", "unknown op"),
            (
                r#"{"op":"peer-put","key":"0123456789abcdef","doc":"{}"}"#,
                "peer-put is not an op",
            ),
            (
                r#"{"op":"suite","benches":["mcf_r"]}"#,
                "suite is not an op",
            ),
            ("{\"op\":\"ping\",\"bench\":\"x\"}", "unknown key for ping"),
            ("{\"op\":\"run\",\"bench\":\"x\",\"wat\":1}", "unknown key"),
            ("{\"op\":\"run\",\"bench\":7}", "bench not a string"),
            ("{\"op\":\"run\",\"bench\":\"x\",\"scale\":0}", "scale 0"),
            ("{\"op\":\"run\",\"bench\":\"x\",\"scale\":-1}", "scale < 0"),
            (
                "{\"op\":\"run\",\"bench\":\"x\",\"slice\":1.5}",
                "fractional slice",
            ),
            (
                "{\"op\":\"run\",\"bench\":\"x\",\"maxk\":-2}",
                "negative maxk",
            ),
            (
                "{\"op\":\"run\",\"bench\":\"x\",\"strategy\":3}",
                "strategy not a string",
            ),
            (
                "{\"op\":\"run\",\"bench\":\"x\",\"kmeans\":3}",
                "kmeans not a string",
            ),
            ("{\"op\":\"ping\"} trailing", "trailing garbage"),
        ] {
            assert!(parse_request(line).is_err(), "{why}: {line}");
        }
    }

    #[test]
    fn request_line_roundtrips_through_the_parser() {
        let line = run_request_line("omnetpp_s", 0.002, None, Some(6), None, None);
        let r = parse_request(&line).unwrap();
        assert_eq!(
            r,
            Request::Run(RunRequest {
                bench: "omnetpp_s".into(),
                scale: 0.002,
                slice: None,
                maxk: Some(6),
                strategy: None,
                kmeans: None,
            })
        );
        let line = run_request_line(
            "omnetpp_s",
            0.002,
            Some(20),
            None,
            Some("rss"),
            Some("minibatch"),
        );
        let r = parse_request(&line).unwrap();
        assert_eq!(
            r,
            Request::Run(RunRequest {
                bench: "omnetpp_s".into(),
                scale: 0.002,
                slice: Some(20),
                maxk: None,
                strategy: Some("rss".into()),
                kmeans: Some("minibatch".into()),
            })
        );
    }

    #[test]
    fn busy_reply_carries_a_deterministic_retry_hint() {
        let line = busy_reply(32);
        assert!(is_error_reply(&line));
        assert_eq!(busy_retry_after(&line), Some(busy_retry_hint_ms(32)));
        assert_eq!(busy_retry_hint_ms(32), 320);
        // Clamped at both ends.
        assert_eq!(busy_retry_hint_ms(1), 25);
        assert_eq!(busy_retry_hint_ms(1000), 500);
        // Non-busy lines never yield a hint.
        assert_eq!(busy_retry_after(&pong_reply()), None);
        assert_eq!(busy_retry_after(&error_reply("internal", "x")), None);
        assert_eq!(busy_retry_after("garbage"), None);
    }

    #[test]
    fn error_replies_are_valid_json() {
        for line in [
            error_reply("bad-request", "uh \"oh\"\nnewline"),
            busy_reply(32),
            pong_reply(),
            shutdown_reply(),
        ] {
            let v = sampsim_util::json::parse(&line).unwrap();
            assert!(v.get("error").is_some() || v.get("ok").is_some());
        }
        assert!(is_error_reply(&busy_reply(1)));
        assert!(!is_error_reply(&pong_reply()));
        assert!(is_error_reply("not json at all"));
    }
}
