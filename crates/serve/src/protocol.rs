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
//!
//! A `score` line is never built into a JSON tree: [`check_request`]
//! validates the whole line in one pass, [`Rows`] decodes its rows
//! straight from the line, and [`ScoreReply`] writes the reply directly.
//! [`parse_request`] is the owned form of the same reading.

use pnr_core::{RecordError, ScoredRecord};
use serde::Content;
use serde_json::{Scanner, Token};
use std::borrow::Cow;
use std::fmt::Write as _;

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

/// A request line checked against the protocol in one pass, with no
/// tree built: syntax, command and field shapes are all validated, and a
/// bad line gets the same typed reason [`parse_request`] gives. Only a
/// `score` request's rows are left in the line, for [`Rows`] to decode.
#[derive(Debug, Clone, PartialEq)]
pub enum Checked {
    /// A `score` request whose rows are the array at byte `rows_at` of
    /// the checked line.
    Score {
        /// Client-chosen id echoed in the response.
        id: String,
        /// Byte offset of the `rows` array.
        rows_at: usize,
        /// Optional wall-clock deadline for the whole batch.
        deadline_ms: Option<u64>,
    },
    /// Any other command, decoded.
    Other(Request),
}

/// The first value of a key the protocol reads: a scalar whole, or where
/// an array starts and the first way its items break the shape the key
/// wants.
enum Slot<'a> {
    Scalar(Token<'a>),
    Seq {
        at: usize,
        shape: Result<(), &'static str>,
    },
    Map,
}

/// Keys the protocol reads.
const KEYS: [&str; 9] = [
    "cmd",
    "columns",
    "id",
    "rows",
    "deadline_ms",
    "path",
    "on",
    "reason",
    "ms",
];

fn unparseable(e: serde_json::Error) -> String {
    format!("unparseable JSON: {e}")
}

/// Checks one request line in a single pass. `Err` carries a
/// human-readable reason the daemon wraps in a `bad_request` response.
pub fn check_request(line: &str) -> Result<Checked, String> {
    // the first value of each key in KEYS; later duplicates are checked
    // and ignored
    let mut slots: [Option<Slot>; KEYS.len()] = Default::default();
    let mut sc = Scanner::new(line);
    let top = sc.token().map_err(unparseable)?;
    if top == Token::Map {
        while let Some(key) = sc.next_key().map_err(unparseable)? {
            match KEYS.iter().position(|k| *k == key) {
                Some(i) if slots[i].is_none() => {
                    slots[i] = Some(slot(&mut sc, key == "rows").map_err(unparseable)?);
                }
                _ => sc.skip().map_err(unparseable)?,
            }
        }
    } else {
        sc.skip_rest(&top).map_err(unparseable)?;
    }
    sc.finish().map_err(unparseable)?;
    let mut take = |key: &str| {
        let i = KEYS.iter().position(|k| *k == key)?;
        slots[i].take()
    };

    let cmd = match take("cmd") {
        Some(Slot::Scalar(Token::Str(s))) => s,
        _ => return Err("missing string field `cmd`".to_string()),
    };
    let request = match &*cmd {
        "hello" => {
            let columns = match take("columns") {
                Some(Slot::Seq { at, shape }) => {
                    shape?;
                    let mut sc = Scanner::at(line, at);
                    let mut columns = Vec::new();
                    sc.token().map_err(unparseable)?; // the `[`
                    read_fields(&mut sc, &mut columns)?;
                    columns.into_iter().map(Cow::into_owned).collect::<Vec<_>>()
                }
                _ => return Err("`hello` needs a `columns` array".to_string()),
            };
            if columns.is_empty() {
                return Err("`columns` must not be empty".to_string());
            }
            Request::Hello { columns }
        }
        "score" => {
            let id = match take("id") {
                None => String::new(),
                Some(Slot::Scalar(token)) => field_text(token)?.into_owned(),
                Some(_) => return Err(NOT_SCALAR.to_string()),
            };
            let rows_at = match take("rows") {
                Some(Slot::Seq { at, shape }) => {
                    shape?;
                    at
                }
                _ => return Err("`score` needs a `rows` array".to_string()),
            };
            let deadline_ms = match take("deadline_ms") {
                None | Some(Slot::Scalar(Token::Null)) => None,
                Some(v) => Some(as_u64(&v).ok_or("`deadline_ms` must be a non-negative integer")?),
            };
            return Ok(Checked::Score {
                id,
                rows_at,
                deadline_ms,
            });
        }
        "swap" => match take("path") {
            Some(Slot::Scalar(Token::Str(path))) if !path.is_empty() => Request::Swap {
                path: path.into_owned(),
            },
            _ => return Err("`swap` needs a non-empty string `path`".to_string()),
        },
        "stats" => Request::Stats,
        "degrade" => {
            let on = match take("on") {
                Some(Slot::Scalar(Token::Bool(b))) => b,
                _ => return Err("`degrade` needs a boolean `on`".to_string()),
            };
            let reason = match take("reason") {
                None | Some(Slot::Scalar(Token::Null)) => String::new(),
                Some(Slot::Scalar(Token::Str(s))) => s.into_owned(),
                _ => return Err("`reason` must be a string".to_string()),
            };
            Request::Degrade { on, reason }
        }
        "shutdown" => Request::Shutdown,
        "panic" => Request::Panic,
        "stall" => {
            let ms = take("ms")
                .as_ref()
                .and_then(as_u64)
                .ok_or("`stall` needs a non-negative integer `ms`")?;
            Request::Stall { ms }
        }
        other => return Err(format!("unknown cmd {other:?}")),
    };
    Ok(Checked::Other(request))
}

/// Reads the value after a key into a [`Slot`]; an array's items are
/// checked as score rows (`rows`) or as fields.
fn slot<'a>(sc: &mut Scanner<'a>, rows: bool) -> serde_json::Result<Slot<'a>> {
    let at = sc.pos();
    Ok(match sc.token()? {
        Token::Seq => Slot::Seq {
            at,
            shape: array_shape(sc, rows)?,
        },
        Token::Map => {
            sc.skip_rest(&Token::Map)?;
            Slot::Map
        }
        scalar => Slot::Scalar(scalar),
    })
}

const NOT_SCALAR: &str = "fields must be scalars";
const NOT_ROW: &str = "each row must be an array of fields";

/// Reads the rest of an array whose `[` was just read and returns the
/// first way its items break the shape: score rows are arrays of
/// scalars, fields are scalars.
fn array_shape(sc: &mut Scanner<'_>, rows: bool) -> serde_json::Result<Result<(), &'static str>> {
    let mut shape = Ok(());
    while sc.next_item()? {
        let item = match sc.token()? {
            Token::Seq => {
                let fields = array_shape(sc, false)?;
                if rows {
                    fields
                } else {
                    Err(NOT_SCALAR)
                }
            }
            Token::Map => {
                sc.skip_rest(&Token::Map)?;
                Err(if rows { NOT_ROW } else { NOT_SCALAR })
            }
            _ if rows => Err(NOT_ROW),
            _ => Ok(()),
        };
        shape = shape.and(item);
    }
    Ok(shape)
}

/// Reads the rest of an array whose `[` was just read into `fields`.
fn read_fields<'a>(sc: &mut Scanner<'a>, fields: &mut Vec<Cow<'a, str>>) -> Result<(), String> {
    while sc.next_item().map_err(unparseable)? {
        fields.push(field_text(sc.token().map_err(unparseable)?)?);
    }
    Ok(())
}

/// Renders a JSON scalar as CSV-style field text: a string as it is
/// (borrowed from the line unless it holds escapes), a number through
/// Rust's formatting (`2.50` → `2.5`, `1e400` → `inf`), `null` as empty.
fn field_text(token: Token<'_>) -> Result<Cow<'_, str>, String> {
    Ok(match token {
        Token::Str(s) => s,
        Token::U64(n) => n.to_string().into(),
        Token::I64(n) => n.to_string().into(),
        Token::F64(x) => x.to_string().into(),
        Token::Bool(b) => Cow::Borrowed(if b { "true" } else { "false" }),
        Token::Null => Cow::Borrowed(""),
        Token::Seq | Token::Map => return Err(NOT_SCALAR.to_string()),
    })
}

fn as_u64(v: &Slot<'_>) -> Option<u64> {
    match *v {
        Slot::Scalar(Token::U64(n)) => Some(n),
        Slot::Scalar(Token::I64(n)) => u64::try_from(n).ok(),
        _ => None,
    }
}

/// Decodes a checked `score` request's rows straight from its line, one
/// row at a time, into a reused buffer of field slices.
#[derive(Debug)]
pub struct Rows<'a> {
    sc: Scanner<'a>,
}

impl<'a> Rows<'a> {
    /// Starts at the `rows` array [`check_request`] found at byte
    /// `rows_at` of `line`.
    pub fn new(line: &'a str, rows_at: usize) -> Result<Self, String> {
        let mut sc = Scanner::at(line, rows_at);
        match sc.token().map_err(unparseable)? {
            Token::Seq => Ok(Rows { sc }),
            _ => Err("`score` needs a `rows` array".to_string()),
        }
    }

    /// Decodes the next row into `fields`, which it clears first;
    /// `false` once the rows are done.
    pub fn next_row(&mut self, fields: &mut Vec<Cow<'a, str>>) -> Result<bool, String> {
        fields.clear();
        if !self.sc.next_item().map_err(unparseable)? {
            return Ok(false);
        }
        match self.sc.token().map_err(unparseable)? {
            Token::Seq => read_fields(&mut self.sc, fields).map(|()| true),
            _ => Err(NOT_ROW.to_string()),
        }
    }
}

/// Parses one request line into an owned [`Request`]: the rows of a
/// [`check_request`]ed line, decoded by [`Rows`]. `Err` carries a
/// human-readable reason the daemon wraps in a `bad_request` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    match check_request(line)? {
        Checked::Score {
            id,
            rows_at,
            deadline_ms,
        } => {
            let mut reader = Rows::new(line, rows_at)?;
            let (mut rows, mut fields) = (Vec::new(), Vec::new());
            while reader.next_row(&mut fields)? {
                rows.push(fields.drain(..).map(Cow::into_owned).collect());
            }
            Ok(Request::Score {
                id,
                rows,
                deadline_ms,
            })
        }
        Checked::Other(request) => Ok(request),
    }
}

/// A `score` reply written straight into its line as rows are scored,
/// byte for byte what [`ok_line`] renders for the same fields, with no
/// tree built.
#[derive(Debug, Default)]
pub struct ScoreReply {
    results: String,
    scored: u64,
    errors: u64,
}

impl ScoreReply {
    /// Appends one row's result.
    pub fn push(&mut self, outcome: &Result<ScoredRecord, RecordError>) {
        let out = &mut self.results;
        if !out.is_empty() {
            out.push(',');
        }
        match outcome {
            Ok(rec) => {
                self.scored += 1;
                out.push_str("{\"score\":");
                serde_json::write_f64(rec.score, out);
                out.push_str(if rec.decision {
                    ",\"decision\":true"
                } else {
                    ",\"decision\":false"
                });
                out.push_str(if rec.abstained {
                    ",\"abstained\":true"
                } else {
                    ",\"abstained\":false"
                });
                let _ = write!(out, ",\"unknown_values\":{}}}", rec.unknown_values);
            }
            Err(e) => {
                self.errors += 1;
                let kind = match e {
                    RecordError::Structural { .. } => "structural",
                    RecordError::UnknownRejected { .. } => "unknown-rejected",
                };
                out.push_str("{\"error\":");
                serde_json::write_escaped(&e.to_string(), out);
                out.push_str(",\"kind\":");
                serde_json::write_escaped(kind, out);
                out.push('}');
            }
        }
    }

    /// The finished reply line.
    pub fn finish(self, id: &str, epoch: u64, degraded: bool) -> String {
        let mut line = String::with_capacity(self.results.len() + id.len() + 128);
        line.push_str("{\"ok\":true,\"reply\":\"score\",\"id\":");
        serde_json::write_escaped(id, &mut line);
        let _ = write!(
            line,
            ",\"epoch\":{epoch},\"degraded\":{degraded},\"scored\":{},\"errors\":{},\"results\":[",
            self.scored, self.errors
        );
        line.push_str(&self.results);
        line.push_str("]}");
        line
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
    fn checked_score_rows_stay_in_the_line_and_plain_fields_are_borrowed() {
        let line = "{\"id\":9, \"cmd\":\"score\",\"rows\": [[\"tcp\",\"a\\\"b\",2.50,null], []]}";
        let rows_at = match check_request(line).unwrap() {
            Checked::Score {
                id,
                rows_at,
                deadline_ms,
            } => {
                assert_eq!((id.as_str(), deadline_ms), ("9", None));
                rows_at
            }
            other => panic!("{other:?}"),
        };
        assert!(line[rows_at..].trim_start().starts_with("[["));
        let mut rows = Rows::new(line, rows_at).unwrap();
        let mut fields = Vec::new();
        assert!(rows.next_row(&mut fields).unwrap());
        assert_eq!(fields, ["tcp", "a\"b", "2.5", ""]);
        // plain text is a slice of the line; only escaped text and
        // numbers are copied
        assert!(matches!(fields[0], Cow::Borrowed("tcp")));
        assert!(matches!(fields[1], Cow::Owned(_)));
        assert!(rows.next_row(&mut fields).unwrap());
        assert!(fields.is_empty());
        assert!(!rows.next_row(&mut fields).unwrap());
    }

    #[test]
    fn numeric_fields_take_rust_float_formatting() {
        let req =
            parse_request("{\"cmd\":\"score\",\"rows\":[[2.50,-4,1e400,-0.0,1E2,false]]}").unwrap();
        match req {
            Request::Score { rows, .. } => {
                assert_eq!(rows, vec![vec!["2.5", "-4", "inf", "-0", "100", "false"]])
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn an_empty_score_reply_matches_ok_line() {
        assert_eq!(
            ScoreReply::default().finish("q\"", 2, true),
            ok_line(
                "score",
                vec![
                    ("id", Content::Str("q\"".to_string())),
                    ("epoch", Content::U64(2)),
                    ("degraded", Content::Bool(true)),
                    ("scored", Content::U64(0)),
                    ("errors", Content::U64(0)),
                    ("results", Content::Seq(Vec::new())),
                ],
            )
        );
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
