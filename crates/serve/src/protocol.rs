//! The daemon's NDJSON wire protocol.
//!
//! One JSON object per line in each direction. Requests carry a `cmd`
//! discriminator; responses always carry `"ok"` plus either a `reply`
//! echo of the command (success) or a machine-readable `error` kind and
//! a human-readable `detail` (failure). Typed error kinds are the
//! protocol's contract with load-shedding and fault-injection tests:
//!
//! | kind                 | meaning                                            |
//! |----------------------|----------------------------------------------------|
//! | `bad_request`        | unparseable line or malformed command              |
//! | `no_hello`           | `score` before a `hello` established a column map  |
//! | `queue_full`         | backpressure rejection; carries `retry_after_ms`   |
//! | `shed`               | job evicted by the drop-oldest policy              |
//! | `shutting_down`      | daemon is draining; no new work admitted           |
//! | `deadline_exceeded`  | per-request wall-clock deadline expired            |
//! | `worker_panic`       | the scoring worker panicked; worker was respawned  |
//! | `swap_failed`        | hot-swap validation failed; old model still active |
//! | `lineage_mismatch`   | swap candidate's parent checksum is not the active model; old model still active |
//! | `schema_mismatch`    | connection header irreconcilable with the model    |
//! | `fault_injection_disabled` | `panic`/`stall` without the daemon flag      |
//!
//! Rows in `score` are sequences of CSV-style fields; numbers are
//! accepted and rendered through Rust's float formatting so a client can
//! send either `"2.5"` or `2.5`.

use serde::Content;

/// One write per line: the framing every NDJSON writer on this protocol
/// uses (see [`pnr_core::ndjson`]).
pub use pnr_core::ndjson::write_line;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Declares the connection's column header; builds the column map.
    Hello {
        /// Incoming column names, in field order.
        columns: Vec<String>,
    },
    /// Scores a batch of rows.
    Score {
        /// Client-chosen id echoed in the response.
        id: String,
        /// Rows as CSV-style field vectors.
        rows: Vec<Vec<String>>,
        /// Optional wall-clock deadline for the whole batch.
        deadline_ms: Option<u64>,
    },
    /// Hot-swaps the served model to the artifact at `path`.
    Swap {
        /// Artifact path, validated off the hot path.
        path: String,
    },
    /// Reports counters, per-epoch serve counts and latency percentiles.
    Stats,
    /// Enters (`on: true`) or leaves degraded mode. Sent by the drift
    /// sentinel when refits keep failing; the flag is echoed in every
    /// subsequent response envelope and in `stats`.
    Degrade {
        /// `true` to enter degraded mode, `false` to clear it.
        on: bool,
        /// Operator-readable reason, surfaced in `stats`.
        reason: String,
    },
    /// Graceful drain: stop admitting, finish the backlog, flush
    /// telemetry, exit 0.
    Shutdown,
    /// Fault injection: enqueue a job that panics in the worker.
    Panic,
    /// Fault injection: enqueue a job that sleeps `ms` before replying.
    Stall {
        /// Sleep duration in milliseconds.
        ms: u64,
    },
}

/// Parses one request line. `Err` carries a human-readable reason the
/// daemon wraps in a `bad_request` response. Row fields are moved out of
/// the parsed tree, so a batch's text is held once, not twice.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = serde_json::parse(line).map_err(|e| format!("unparseable JSON: {e}"))?;
    let mut entries = match value {
        Content::Map(entries) => entries,
        _ => Vec::new(),
    };
    let mut take = |key: &str| {
        entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| std::mem::replace(v, Content::Null))
    };
    let cmd = match take("cmd") {
        Some(Content::Str(s)) => s,
        _ => return Err("missing string field `cmd`".to_string()),
    };
    match cmd.as_str() {
        "hello" => {
            let columns = match take("columns") {
                Some(Content::Seq(columns)) => fields(columns)?,
                _ => return Err("`hello` needs a `columns` array".to_string()),
            };
            if columns.is_empty() {
                return Err("`columns` must not be empty".to_string());
            }
            Ok(Request::Hello { columns })
        }
        "score" => {
            let id = take("id").map(scalar_into_string).transpose()?;
            let rows = match take("rows") {
                Some(Content::Seq(rows)) => rows
                    .into_iter()
                    .map(|row| match row {
                        Content::Seq(row) => fields(row),
                        _ => Err("each row must be an array of fields".to_string()),
                    })
                    .collect::<Result<Vec<Vec<String>>, String>>()?,
                _ => return Err("`score` needs a `rows` array".to_string()),
            };
            let deadline_ms = match take("deadline_ms") {
                None | Some(Content::Null) => None,
                Some(v) => Some(as_u64(&v).ok_or("`deadline_ms` must be a non-negative integer")?),
            };
            Ok(Request::Score {
                id: id.unwrap_or_default(),
                rows,
                deadline_ms,
            })
        }
        "swap" => match take("path") {
            Some(Content::Str(path)) if !path.is_empty() => Ok(Request::Swap { path }),
            _ => Err("`swap` needs a non-empty string `path`".to_string()),
        },
        "stats" => Ok(Request::Stats),
        "degrade" => {
            let on = match take("on") {
                Some(Content::Bool(b)) => b,
                _ => return Err("`degrade` needs a boolean `on`".to_string()),
            };
            let reason = match take("reason") {
                None | Some(Content::Null) => String::new(),
                Some(Content::Str(s)) => s,
                _ => return Err("`reason` must be a string".to_string()),
            };
            Ok(Request::Degrade { on, reason })
        }
        "shutdown" => Ok(Request::Shutdown),
        "panic" => Ok(Request::Panic),
        "stall" => {
            let ms = take("ms")
                .as_ref()
                .and_then(as_u64)
                .ok_or("`stall` needs a non-negative integer `ms`")?;
            Ok(Request::Stall { ms })
        }
        other => Err(format!("unknown cmd {other:?}")),
    }
}

/// Converts a sequence of JSON scalars into CSV-style field strings.
fn fields(values: Vec<Content>) -> Result<Vec<String>, String> {
    values.into_iter().map(scalar_into_string).collect()
}

/// Renders a JSON scalar as a CSV-style field string; strings are moved,
/// not copied.
fn scalar_into_string(v: Content) -> Result<String, String> {
    match v {
        Content::Str(s) => Ok(s),
        Content::U64(n) => Ok(n.to_string()),
        Content::I64(n) => Ok(n.to_string()),
        Content::F64(x) => Ok(x.to_string()),
        Content::Bool(b) => Ok(b.to_string()),
        Content::Null => Ok(String::new()),
        _ => Err("fields must be scalars".to_string()),
    }
}

fn as_u64(v: &Content) -> Option<u64> {
    match *v {
        Content::U64(n) => Some(n),
        Content::I64(n) => u64::try_from(n).ok(),
        _ => None,
    }
}

/// Builds a success response line: `{"ok":true,"reply":<reply>,...}`.
pub fn ok_line(reply: &str, extra: Vec<(&str, Content)>) -> String {
    let mut entries = vec![
        ("ok".to_string(), Content::Bool(true)),
        ("reply".to_string(), Content::Str(reply.to_string())),
    ];
    entries.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    render(Content::Map(entries))
}

/// Builds a typed error response line:
/// `{"ok":false,"error":<kind>,"detail":<detail>,...}`.
pub fn err_line(kind: &str, detail: &str, extra: Vec<(&str, Content)>) -> String {
    let mut entries = vec![
        ("ok".to_string(), Content::Bool(false)),
        ("error".to_string(), Content::Str(kind.to_string())),
        ("detail".to_string(), Content::Str(detail.to_string())),
    ];
    entries.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    render(Content::Map(entries))
}

/// Renders a content tree to one line of JSON. Serialization of a content
/// tree cannot fail; the fallback keeps the signature infallible without
/// a panic path.
pub fn render(content: Content) -> String {
    serde_json::to_string(&content)
        .unwrap_or_else(|_| "{\"ok\":false,\"error\":\"internal\"}".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_hello_score_and_control_commands() {
        assert_eq!(
            parse_request("{\"cmd\":\"hello\",\"columns\":[\"a\",\"b\"]}").unwrap(),
            Request::Hello {
                columns: vec!["a".to_string(), "b".to_string()]
            }
        );
        let score =
            parse_request("{\"cmd\":\"score\",\"id\":7,\"rows\":[[\"1.5\",\"tcp\"],[2,\"udp\"]]}")
                .unwrap();
        match score {
            Request::Score {
                id,
                rows,
                deadline_ms,
            } => {
                assert_eq!(id, "7");
                assert_eq!(rows, vec![vec!["1.5", "tcp"], vec!["2", "udp"]]);
                assert_eq!(deadline_ms, None);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse_request("{\"cmd\":\"swap\",\"path\":\"m.artifact\"}").unwrap(),
            Request::Swap {
                path: "m.artifact".to_string()
            }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"stats\"}").unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request("{\"cmd\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            parse_request("{\"cmd\":\"panic\"}").unwrap(),
            Request::Panic
        );
        assert_eq!(
            parse_request("{\"cmd\":\"stall\",\"ms\":250}").unwrap(),
            Request::Stall { ms: 250 }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"degrade\",\"on\":true,\"reason\":\"drift\"}").unwrap(),
            Request::Degrade {
                on: true,
                reason: "drift".to_string()
            }
        );
        assert_eq!(
            parse_request("{\"cmd\":\"degrade\",\"on\":false}").unwrap(),
            Request::Degrade {
                on: false,
                reason: String::new()
            }
        );
    }

    #[test]
    fn score_accepts_deadline_and_numeric_fields() {
        let req = parse_request(
            "{\"cmd\":\"score\",\"id\":\"x\",\"rows\":[[1,2.5,\"tcp\"]],\"deadline_ms\":100}",
        )
        .unwrap();
        match req {
            Request::Score {
                rows, deadline_ms, ..
            } => {
                assert_eq!(rows, vec![vec!["1", "2.5", "tcp"]]);
                assert_eq!(deadline_ms, Some(100));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_typed_errors_not_panics() {
        for bad in [
            "not json",
            "{}",
            "{\"cmd\":\"nope\"}",
            "{\"cmd\":\"hello\"}",
            "{\"cmd\":\"hello\",\"columns\":[]}",
            "{\"cmd\":\"score\",\"rows\":\"x\"}",
            "{\"cmd\":\"score\",\"rows\":[\"not-a-row\"]}",
            "{\"cmd\":\"score\",\"rows\":[],\"deadline_ms\":-3}",
            "{\"cmd\":\"swap\"}",
            "{\"cmd\":\"stall\"}",
            "{\"cmd\":\"degrade\"}",
            "{\"cmd\":\"degrade\",\"on\":\"yes\"}",
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn score_rows_keep_field_text_and_order() {
        let req = parse_request(
            "{\"rows\":[[\"é\",null,true,-4],[\"\\u00e9\"]],\"cmd\":\"score\",\"id\":\"q\"}",
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Score {
                id: "q".to_string(),
                rows: vec![vec!["é", "", "true", "-4"], vec!["é"]]
                    .into_iter()
                    .map(|r| r.into_iter().map(String::from).collect())
                    .collect(),
                deadline_ms: None,
            }
        );
        assert!(parse_request("{\"cmd\":\"score\",\"rows\":[[[\"nested\"]]]}").is_err());
        assert!(parse_request("[\"cmd\",\"stats\"]").is_err());
    }

    #[test]
    fn response_lines_are_parseable_json() {
        let ok = ok_line("score", vec![("epoch", Content::U64(3))]);
        let parsed = serde_json::parse(&ok).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Content::Bool(true)));
        assert_eq!(parsed.get("epoch"), Some(&Content::U64(3)));

        let err = err_line(
            "queue_full",
            "82 jobs queued",
            vec![("retry_after_ms", Content::U64(50))],
        );
        let parsed = serde_json::parse(&err).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Content::Bool(false)));
        assert_eq!(
            parsed.get("error"),
            Some(&Content::Str("queue_full".to_string()))
        );
        assert_eq!(parsed.get("retry_after_ms"), Some(&Content::U64(50)));
    }
}
