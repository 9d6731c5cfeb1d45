//! Properties of the one-pass request path: edited request lines never
//! panic and read exactly as a tree-building reading of them does, and
//! the direct `score` reply writer is byte for byte the `ok_line`
//! rendering of the same results.

use pnr_core::{RecordError, RuleTrace, ScoredRecord};
use pnr_serve::protocol::{check_request, ok_line, parse_request, Checked, Request, ScoreReply};
use proptest::prelude::*;
use serde::Content;

/// Text that exercises the escaper and the decoder: the JSON stop bytes,
/// short escapes, control characters and multi-byte UTF-8.
const TRICKY: &str = "\"\\/\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}é✓中😀`aZ0 .-e";

fn any_text(rng: &mut TestRng) -> String {
    let n = TRICKY.chars().count();
    (0..rng.usize_in(0, 10))
        .map(|_| TRICKY.chars().nth(rng.usize_in(0, n)).unwrap())
        .collect()
}

/// A JSON scalar in any form a client may send a field in.
fn any_scalar(rng: &mut TestRng) -> Content {
    match rng.usize_in(0, 8) {
        0 => Content::U64(rng.next_u64() >> rng.usize_in(0, 64)),
        1 => Content::I64(-1 - (rng.next_u64() >> rng.usize_in(1, 64)) as i64),
        2 => Content::F64((rng.unit_f64() - 0.5) * 10f64.powi(rng.usize_in(0, 12) as i32)),
        3 => Content::Null,
        4 => Content::Bool(rng.next_u64() & 1 == 1),
        5 => Content::Str(any_text(rng)),
        _ => Content::Str(["tcp", "http", "SF", "0", "2.5", ""][rng.usize_in(0, 6)].to_string()),
    }
}

fn any_value(rng: &mut TestRng, depth: usize) -> Content {
    match rng.usize_in(0, if depth == 0 { 1 } else { 4 }) {
        0 => any_scalar(rng),
        1 | 2 => Content::Seq(
            (0..rng.usize_in(0, 4))
                .map(|_| any_value(rng, depth - 1))
                .collect(),
        ),
        _ => Content::Map(
            (0..rng.usize_in(0, 3))
                .map(|_| (any_text(rng), any_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn str_content(s: &str) -> Content {
    Content::Str(s.to_string())
}

/// A request line: every command, well-formed or not, with keys in any
/// order and now and then twice.
fn request_line(rng: &mut TestRng) -> String {
    let row = |rng: &mut TestRng| {
        Content::Seq(
            (0..rng.usize_in(0, 5))
                .map(|_| {
                    if rng.usize_in(0, 20) == 0 {
                        any_value(rng, 2)
                    } else {
                        any_scalar(rng)
                    }
                })
                .collect(),
        )
    };
    let cmd = [
        "score", "score", "score", "hello", "swap", "stats", "degrade", "shutdown", "stall",
        "panic", "nope",
    ][rng.usize_in(0, 11)];
    let mut entries = vec![("cmd".to_string(), str_content(cmd))];
    for key in [
        "id",
        "rows",
        "deadline_ms",
        "columns",
        "path",
        "on",
        "reason",
        "ms",
    ] {
        if rng.usize_in(0, 3) == 0 {
            continue;
        }
        let value = match (key, rng.usize_in(0, 6)) {
            (_, 0) => any_value(rng, 2),
            ("rows", _) => Content::Seq((0..rng.usize_in(0, 4)).map(|_| row(rng)).collect()),
            ("columns", _) => row(rng),
            ("deadline_ms" | "ms", _) => Content::U64(rng.next_u64() % 500),
            ("on", _) => Content::Bool(rng.next_u64() & 1 == 1),
            _ => any_scalar(rng),
        };
        entries.push((key.to_string(), value));
    }
    if rng.usize_in(0, 4) == 0 {
        let dup = entries[rng.usize_in(0, entries.len())].0.clone();
        entries.push((dup, any_value(rng, 1)));
    }
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.usize_in(0, i + 1));
    }
    serde_json::to_string(&Content::Map(entries)).unwrap()
}

/// Bytes that matter to the grammar, for insertions to aim at.
const GRAMMAR: &[u8] = b"[]{}\",:\\ 0123456789eE+-.ntrufalsx\x1f\xc3\xa9";

/// Applies up to four byte edits (flip a bit, insert a byte, delete a
/// byte, truncate) and decodes the result lossily back to text.
fn edit(rng: &mut TestRng, line: &str) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..rng.usize_in(0, 5) {
        let at = rng.usize_in(0, bytes.len() + 1);
        match rng.usize_in(0, 5) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.usize_in(0, 8),
            1 => bytes.insert(at, GRAMMAR[rng.usize_in(0, GRAMMAR.len())]),
            2 => bytes.insert(at, rng.next_u64() as u8),
            3 if at < bytes.len() => {
                bytes.remove(at);
            }
            4 => bytes.truncate(at),
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[derive(Debug, Clone, Copy)]
struct EditedRequest;

impl Strategy for EditedRequest {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let line = request_line(rng);
        edit(rng, &line)
    }
}

/// The request reading the daemon used before its score path went
/// tree-free: parse the whole line into a `Content` tree, then take the
/// first value of each key out of it.
fn tree_parse_request(line: &str) -> Result<Request, String> {
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
    let fields = |values: Vec<Content>| -> Result<Vec<String>, String> {
        values.into_iter().map(scalar_into_string).collect()
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

/// One batch's worth of row outcomes plus the reply envelope.
#[derive(Debug, Clone)]
struct Batch {
    id_json: String,
    epoch: u64,
    degraded: bool,
    outcomes: Vec<Result<ScoredRecord, RecordError>>,
}

fn any_score(rng: &mut TestRng) -> f64 {
    match rng.usize_in(0, 5) {
        0 => 0.0,
        1 => 1.0,
        2 => f64::from_bits(rng.next_u64() >> 2 | 1) % 1.0,
        3 => 1e-300 * rng.unit_f64(),
        _ => rng.unit_f64(),
    }
}

#[derive(Debug, Clone, Copy)]
struct AnyBatch;

impl Strategy for AnyBatch {
    type Value = Batch;

    fn generate(&self, rng: &mut TestRng) -> Batch {
        // ids in every form a client may send one, as they arrive
        let id = match rng.usize_in(0, 4) {
            0 => Content::U64(rng.next_u64() >> rng.usize_in(0, 64)),
            1 => Content::F64(rng.unit_f64() * 100.0),
            2 => Content::I64(-(rng.usize_in(1, 1000) as i64)),
            _ => Content::Str(any_text(rng)),
        };
        let outcomes = (0..rng.usize_in(0, 12))
            .map(|_| match rng.usize_in(0, 4) {
                0 => Err(RecordError::Structural {
                    detail: format!(
                        "field `{}` of numeric attribute `duration` is not a number",
                        any_text(rng)
                    ),
                }),
                1 => Err(RecordError::UnknownRejected {
                    unknown_values: rng.usize_in(1, 40),
                }),
                _ => Ok(ScoredRecord {
                    score: any_score(rng),
                    decision: rng.next_u64() & 1 == 1,
                    trace: RuleTrace {
                        p_rule: None,
                        n_rule: None,
                    },
                    abstained: rng.next_u64() & 1 == 1,
                    unknown_values: rng.usize_in(0, 40),
                }),
            })
            .collect();
        Batch {
            id_json: serde_json::to_string(&id).unwrap(),
            epoch: rng.next_u64() >> rng.usize_in(0, 64),
            degraded: rng.next_u64() & 1 == 1,
            outcomes,
        }
    }
}

/// The reply the daemon rendered before it wrote replies directly: one
/// `Content` map per row, then `ok_line` over the whole tree.
fn tree_reply(id: &str, batch: &Batch) -> String {
    let (mut scored, mut errors) = (0, 0);
    let results = batch
        .outcomes
        .iter()
        .map(|outcome| match outcome {
            Ok(rec) => {
                scored += 1;
                Content::Map(vec![
                    ("score".to_string(), Content::F64(rec.score)),
                    ("decision".to_string(), Content::Bool(rec.decision)),
                    ("abstained".to_string(), Content::Bool(rec.abstained)),
                    (
                        "unknown_values".to_string(),
                        Content::U64(rec.unknown_values as u64),
                    ),
                ])
            }
            Err(e) => {
                errors += 1;
                let kind = match e {
                    RecordError::Structural { .. } => "structural",
                    RecordError::UnknownRejected { .. } => "unknown-rejected",
                };
                Content::Map(vec![
                    ("error".to_string(), Content::Str(e.to_string())),
                    ("kind".to_string(), Content::Str(kind.to_string())),
                ])
            }
        })
        .collect();
    ok_line(
        "score",
        vec![
            ("id", Content::Str(id.to_string())),
            ("epoch", Content::U64(batch.epoch)),
            ("degraded", Content::Bool(batch.degraded)),
            ("scored", Content::U64(scored)),
            ("errors", Content::U64(errors)),
            ("results", Content::Seq(results)),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn edited_request_lines_read_as_the_tree_reading_did(line in EditedRequest) {
        let want = tree_parse_request(&line);
        prop_assert_eq!(parse_request(&line), want.clone(), "{:?}", line);
        // the daemon's one-pass check refuses exactly the same lines
        let checked = check_request(&line);
        prop_assert_eq!(checked.as_ref().err(), want.as_ref().err(), "{:?}", line);
        if let (Ok(Checked::Score { id, deadline_ms, .. }), Ok(Request::Score { id: want_id, deadline_ms: want_deadline, .. })) = (&checked, &want) {
            prop_assert_eq!(id, want_id);
            prop_assert_eq!(deadline_ms, want_deadline);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_direct_score_reply_is_the_ok_line_rendering_byte_for_byte(batch in AnyBatch) {
        let line = format!("{{\"cmd\":\"score\",\"id\":{},\"rows\":[]}}", batch.id_json);
        let id = match check_request(&line) {
            Ok(Checked::Score { id, .. }) => id,
            other => panic!("{line}: {other:?}"),
        };
        let mut reply = ScoreReply::default();
        for outcome in &batch.outcomes {
            reply.push(outcome);
        }
        let direct = reply.finish(&id, batch.epoch, batch.degraded);
        prop_assert_eq!(direct, tree_reply(&id, &batch));
    }
}
