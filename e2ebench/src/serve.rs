//! `serve_small` and `serve_bulk`: two closed-loop connections score
//! kddsim traffic through the daemon over loopback, with 1-row and
//! 512-row `score` requests respectively.

use crate::daemon::{self, Conn, Daemon};
use crate::json::{self, Json};
use crate::measure::{self, Metrics};
use crate::oracle::{self, Expected};
use crate::{checked, med, Failure, Opts, Outcome};
use pnr_core::{ColumnMap, ModelArtifact, PnruleLearner, PnruleParams, RetryPolicy, ServingModel};
use pnr_kddsim::{row_fields, DriftSchedule, DriftStream, ATTR_NAMES};
use pnr_serve::protocol::{render, Request};
use serde::Content;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median and the last one is
/// measured.
const SETUPS: usize = 5;

/// Connections, each with its own client thread.
const CONNECTIONS: usize = 2;

/// Rows the served model is trained on (as `pnr-loadgen train`).
const MODEL_ROWS: usize = 2_000;

/// Share of the traced half spent replaying request lines in process.
const REPLAY_SHARE: f64 = 0.3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Small,
    Bulk,
}

impl Shape {
    fn batch(self) -> usize {
        match self {
            Shape::Small => 1,
            Shape::Bulk => 512,
        }
    }

    /// Distinct request lines the connections cycle through.
    fn pool(self) -> usize {
        match self {
            Shape::Small => 4_096,
            Shape::Bulk => 16,
        }
    }

    /// Requests each connection sends, checked, before timing starts.
    fn warmup(self) -> usize {
        match self {
            Shape::Small => 500,
            Shape::Bulk => 1,
        }
    }
}

/// Trains the served `dos` model from kddsim rows, as `pnr-loadgen
/// train` does, and saves it.
pub fn train_served_model(seed: u64, path: &Path) -> Result<(), String> {
    let data = pnr_kddsim::generate_train(MODEL_ROWS, seed);
    let target = data.class_code("dos").ok_or("kddsim has no dos class")?;
    let params = PnruleParams::default();
    let (model, report) = PnruleLearner::new(params.clone()).fit_with_report(&data, target);
    ModelArtifact::new(model, params, report, data.schema().clone())
        .and_then(|a| a.save(path))
        .map_err(|e| format!("served model: {e}"))
}

/// Loads an artifact as the in-process oracle, with the daemon's
/// default policies and the map for the kddsim header.
pub fn oracle_model(path: &Path) -> Result<(ServingModel, ColumnMap), String> {
    let artifact = pnr_core::load_with_retry(path, &RetryPolicy::default())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let model = ServingModel::new(artifact);
    let map = model
        .reconcile_header(ATTR_NAMES)
        .map_err(|e| format!("kddsim header does not reconcile: {e}"))?;
    Ok((model, map))
}

/// Request lines and the rows in them.
pub struct Traffic {
    pub lines: Vec<String>,
    pub rows: Vec<Vec<Vec<String>>>,
}

/// `pool` score requests of `batch` rows each, drawn from the kddsim
/// test mix (row-interleaved, so every batch mixes classes).
pub fn traffic(seed: u64, pool: usize, batch: usize) -> Traffic {
    let mut stream = DriftStream::new(seed, DriftSchedule::Constant(pnr_kddsim::test_mix()));
    let data = stream.next_chunk(pool * batch);
    let rows: Vec<Vec<Vec<String>>> = (0..pool)
        .map(|k| {
            (0..batch)
                .map(|j| row_fields(&data, k * batch + j))
                .collect()
        })
        .collect();
    let lines = rows
        .iter()
        .enumerate()
        .map(|(k, batch_rows)| {
            render(Content::Map(vec![
                ("cmd".to_string(), Content::Str("score".to_string())),
                ("id".to_string(), Content::Str(format!("b{k}"))),
                (
                    "rows".to_string(),
                    Content::Seq(
                        batch_rows
                            .iter()
                            .map(|r| Content::Seq(r.iter().cloned().map(Content::Str).collect()))
                            .collect(),
                    ),
                ),
            ]))
        })
        .collect();
    Traffic { lines, rows }
}

/// Opens a connection and declares the kddsim header.
pub fn hello(addr: &str) -> Result<Conn, Failure> {
    let mut conn = Conn::connect(addr)?;
    let columns = Content::Seq(
        ATTR_NAMES
            .iter()
            .map(|c| Content::Str(c.to_string()))
            .collect(),
    );
    let line = render(Content::Map(vec![
        ("cmd".to_string(), Content::Str("hello".to_string())),
        ("columns".to_string(), columns),
    ]));
    let reply = conn.roundtrip(&line)?;
    let ok = json::parse(&reply)
        .ok()
        .and_then(|v| v.get("ok").and_then(Json::bool));
    if ok != Some(true) {
        return Err(Failure::Check(format!("hello rejected: {reply}")));
    }
    Ok(conn)
}

/// One connection's closed-loop log, in send order.
#[derive(Debug, Default)]
pub struct ConnLog {
    pub idx: Vec<usize>,
    pub sent: Vec<Instant>,
    pub latency_ms: Vec<f64>,
    pub replies: Vec<String>,
}

impl ConnLog {
    /// Completion time of every request, in seconds since `start`.
    pub fn done_s(&self, start: Instant) -> impl Iterator<Item = f64> + '_ {
        self.sent
            .iter()
            .zip(&self.latency_ms)
            .map(move |(sent, ms)| sent.duration_since(start).as_secs_f64() + ms / 1e3)
    }
}

/// Sends pool lines from `offset` on, one at a time, until `stop` is set
/// or `deadline` passes: each request waits for the previous reply and
/// for its turn, one every `period` (zero: none). A request whose turn
/// has passed goes out at once, and the schedule restarts from it rather
/// than catching up in a burst. Replies are stored unread so that
/// checking them costs the client nothing while it is timed.
pub fn closed_loop(
    conn: &mut Conn,
    lines: &[String],
    offset: usize,
    period: Duration,
    deadline: Instant,
    stop: &AtomicBool,
) -> Result<ConnLog, String> {
    let mut log = ConnLog::default();
    let mut k = offset;
    let mut next = Instant::now();
    while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
        let now = Instant::now();
        if now < next {
            std::thread::sleep(next - now);
        }
        let idx = k % lines.len();
        let t0 = Instant::now();
        next = (next + period).max(t0);
        conn.send(&lines[idx])?;
        let reply = conn.recv()?;
        log.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        log.idx.push(idx);
        log.sent.push(t0);
        log.replies.push(reply);
        k += 1;
    }
    Ok(log)
}

/// A daemon with its oracle, traffic and connected clients.
struct Ready {
    daemon: Daemon,
    conns: Vec<Conn>,
    oracle: ServingModel,
    map: ColumnMap,
    traffic: Traffic,
    expected: Vec<Vec<Expected>>,
    submitted: u64,
}

fn setup(shape: Shape, opts: &Opts, round: usize) -> Result<Ready, Failure> {
    let model = opts.work.join(format!("served{round}.artifact"));
    train_served_model(opts.seed, &model)?;
    let (oracle, map) = oracle_model(&model)?;
    let traffic = traffic(opts.seed ^ 0x7a11_c0de, shape.pool(), shape.batch());
    let expected = traffic
        .rows
        .iter()
        .map(|rows| {
            rows.iter()
                .map(|r| oracle::expect_row(&oracle, &map, r))
                .collect()
        })
        .collect::<Result<Vec<Vec<Expected>>, String>>()?;
    let daemon = Daemon::spawn(&model, &opts.work, &format!("daemon{round}"))?;
    let conns = (0..CONNECTIONS)
        .map(|_| hello(&daemon.addr))
        .collect::<Result<Vec<Conn>, Failure>>()?;
    let mut ready = Ready {
        daemon,
        conns,
        oracle,
        map,
        traffic,
        expected,
        submitted: 0,
    };
    // warm-up, checked before anything is timed
    let n = shape.warmup().min(shape.pool());
    for (c, conn) in ready.conns.iter_mut().enumerate() {
        for k in 0..n {
            let idx = (c * n / CONNECTIONS + k) % n;
            let reply = conn.roundtrip(&ready.traffic.lines[idx])?;
            checked(oracle::check_score_reply(&reply, &ready.expected[idx]))?;
        }
        ready.submitted += n as u64;
    }
    Ok(ready)
}

/// Timed load on every connection of one daemon at once.
fn load(ready: &mut Ready, length: Duration) -> Result<(Vec<ConnLog>, Instant), Failure> {
    let lines = &ready.traffic.lines;
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let deadline = start + length;
    let n_conns = ready.conns.len();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = ready
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let stop = &stop;
                s.spawn(move || {
                    let r = closed_loop(
                        conn,
                        lines,
                        c * lines.len() / n_conns,
                        Duration::ZERO,
                        deadline,
                        stop,
                    );
                    if r.is_err() {
                        stop.store(true, Ordering::Relaxed);
                    }
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect::<Result<Vec<ConnLog>, String>>()
    })?;
    for log in &logs {
        ready.submitted += log.replies.len() as u64;
        for (idx, reply) in log.idx.iter().zip(&log.replies) {
            checked(oracle::check_score_reply(reply, &ready.expected[*idx]))?;
        }
    }
    Ok((logs, start))
}

/// Latencies and windowed figures of one measured phase.
struct Phase {
    latency_ms: Vec<f64>,
    rows: u64,
    windows: measure::Windows,
}

fn measure_phase(ready: &mut Ready, length: Duration, batch: usize) -> Result<Phase, Failure> {
    let (logs, start) = load(ready, length)?;
    let latency_ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.latency_ms.iter().copied())
        .collect();
    let done: Vec<f64> = logs.iter().flat_map(|l| l.done_s(start)).collect();
    Ok(Phase {
        rows: (latency_ms.len() * batch) as u64,
        windows: measure::Windows::of(&done, &latency_ms, batch as f64),
        latency_ms,
    })
}

/// The daemon's `stats` reply, read by the benchmark's own reader.
pub fn daemon_stats(addr: &str) -> Result<(Json, usize), Failure> {
    let mut conn = Conn::connect(addr)?;
    let line = conn.roundtrip("{\"cmd\":\"stats\"}")?;
    let v = checked(json::parse(&line))?;
    Ok((v, line.len()))
}

pub fn counter(stats: &Json, name: &str) -> Result<u64, Failure> {
    stats
        .at(&["counters", name])
        .and_then(Json::u64)
        .ok_or_else(|| Failure::Check(format!("stats lacks counter {name}")))
}

/// Adds the daemon's request counters to the per-layer metrics and
/// checks that every submitted request was served or shed.
pub fn serve_counters(stats: &Json, submitted: u64, m: &mut Metrics) -> Result<(), Failure> {
    let served = counter(stats, "requests_served")?;
    let shed = counter(stats, "requests_shed")?;
    checked(oracle::check_accounting(served, shed, submitted))?;
    let mut add = |name: &'static str, n: u64| m.set(name, m.get(name).unwrap_or(0.0) + n as f64);
    add("serve.requests_served", served);
    add("serve.requests_shed", shed);
    add(
        "serve.deadline_exceeded",
        counter(stats, "deadline_exceeded")?,
    );
    add("serve.worker_panics", counter(stats, "worker_panics")?);
    Ok(())
}

/// Per-line in-process timings of the request path's layers.
struct Replay {
    parse_ms: Vec<f64>,
    parse_ns_per_byte: Vec<f64>,
    score_ns_per_row: Vec<f64>,
    render_ms: Vec<f64>,
}

/// Replays the workload's own request lines through `parse_request`,
/// `score_fields` and `render`, as the daemon would, for up to `budget`.
fn replay(ready: &Ready, budget: Duration) -> Result<Replay, Failure> {
    let mut out = Replay {
        parse_ms: Vec::new(),
        parse_ns_per_byte: Vec::new(),
        score_ns_per_row: Vec::new(),
        render_ms: Vec::new(),
    };
    let give_up = Instant::now() + budget;
    for (k, line) in ready.traffic.lines.iter().enumerate() {
        if k >= 2 && Instant::now() > give_up {
            break;
        }
        let t = Instant::now();
        let request = pnr_serve::parse_request(line);
        let parse = t.elapsed();
        let rows = match request {
            Ok(Request::Score { rows, .. }) => rows,
            other => return Err(Failure::Check(format!("request line parses as {other:?}"))),
        };
        if rows != ready.traffic.rows[k] {
            return Err(Failure::Check(format!(
                "request line {k} parses to other rows"
            )));
        }
        let mut results = Vec::with_capacity(rows.len());
        let mut score = Duration::ZERO;
        for (row, want) in rows.iter().zip(&ready.expected[k]) {
            let t = Instant::now();
            let rec = ready.oracle.score_fields(row, &ready.map);
            score += t.elapsed();
            let rec = checked(rec.map_err(|e| e.to_string()))?;
            if rec.score.to_bits() != want.score.to_bits() {
                return Err(Failure::Check(format!(
                    "replayed score differs on line {k}"
                )));
            }
            results.push(Content::Map(vec![
                ("score".to_string(), Content::F64(rec.score)),
                ("decision".to_string(), Content::Bool(rec.decision)),
                ("abstained".to_string(), Content::Bool(rec.abstained)),
                (
                    "unknown_values".to_string(),
                    Content::U64(rec.unknown_values as u64),
                ),
            ]));
        }
        let reply = Content::Map(vec![
            ("ok".to_string(), Content::Bool(true)),
            ("reply".to_string(), Content::Str("score".to_string())),
            ("id".to_string(), Content::Str(format!("b{k}"))),
            ("epoch".to_string(), Content::U64(1)),
            ("degraded".to_string(), Content::Bool(false)),
            ("scored".to_string(), Content::U64(rows.len() as u64)),
            ("errors".to_string(), Content::U64(0)),
            ("results".to_string(), Content::Seq(results)),
        ]);
        let t = Instant::now();
        let text = render(reply);
        let render_t = t.elapsed();
        std::hint::black_box(text);
        out.parse_ms.push(parse.as_secs_f64() * 1e3);
        out.parse_ns_per_byte
            .push(parse.as_nanos() as f64 / line.len() as f64);
        out.score_ns_per_row
            .push(score.as_nanos() as f64 / rows.len() as f64);
        out.render_ms.push(render_t.as_secs_f64() * 1e3);
    }
    Ok(out)
}

pub fn run(shape: Shape, opts: &Opts) -> Result<Outcome, Failure> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut ready: Option<Ready> = None;
    for round in 0..SETUPS {
        if let Some(prev) = ready.take() {
            prev.daemon.stop()?;
        }
        let t = Instant::now();
        ready = Some(setup(shape, opts, round)?);
        setups.push(t.elapsed());
    }
    let mut ready = ready.ok_or("no set-up ran")?;
    let mut out = Outcome::default();
    let mut metrics = Metrics::default();
    let m = &mut metrics;
    m.set("setup_s", crate::setup_seconds(&setups));
    let batch = shape.batch();

    let (plain_len, traced_len) = opts.phases();
    let plain = measure_phase(&mut ready, plain_len, batch)?;
    let plain_p50 = med(&plain.windows.p50_ms)?;
    m.set("latency_p50_ms", plain_p50);
    m.set("rows_per_s", med(&plain.windows.rows_per_s)?);
    out.detail("windows", plain.windows.json());
    let mut attempted = plain.latency_ms.len() as u64;

    if let Some(traced_len) = traced_len {
        let cpu0 = ready.daemon.cpu_ms()?;
        let traced = measure_phase(&mut ready, traced_len, batch)?;
        let cpu1 = ready.daemon.cpu_ms()?;
        attempted += traced.latency_ms.len() as u64;
        let p50 = med(&traced.windows.p50_ms)?;
        m.set("trace_overhead_frac", p50 / plain_p50 - 1.0);
        m.set("latency_samples", traced.latency_ms.len() as f64);
        if let Some((pct, v)) = measure::tail(&traced.latency_ms) {
            m.set("latency_tail_pct", pct);
            m.set("latency_tail_ms", v);
            out.detail(&format!("latency_p{pct}_ms"), measure::num(v));
        }
        m.set(
            "serve.daemon_cpu_ms_per_krow",
            (cpu1 - cpu0) / traced.rows as f64 * 1e3,
        );

        let (stats, bytes) = daemon_stats(&ready.daemon.addr)?;
        serve_counters(&stats, ready.submitted, m)?;
        m.set("serve.stats_reply_bytes", bytes as f64);
        let worker_p50 = stats
            .at(&["request_latency", "p50_ms"])
            .and_then(Json::f64)
            .ok_or_else(|| Failure::Check("stats lacks request_latency.p50_ms".to_string()))?;
        m.set("serve.worker_p50_ms", worker_p50);

        let replayed = replay(&ready, traced_len.mul_f64(REPLAY_SHARE))?;
        let parse = med(&replayed.parse_ms)?;
        let render_ms = med(&replayed.render_ms)?;
        m.set("serde_json.parse_ms", parse);
        m.set(
            "serde_json.parse_ns_per_byte",
            med(&replayed.parse_ns_per_byte)?,
        );
        m.set("serde_json.render_ms", render_ms);
        m.set("core.score_ns_per_row", med(&replayed.score_ns_per_row)?);
        let unaccounted = p50 - (parse + worker_p50 + render_ms);
        m.set("serve.unaccounted_ms", unaccounted);
        out.detail(
            "breakdown",
            format!(
                "{{\"total\": \"latency_p50_ms\", \"total_ms\": {}, \"stages_ms\": {{\
                 \"serde_json.parse\": {}, \"serve.worker\": {}, \"serde_json.render\": {}}}, \
                 \"remainder_ms\": {}, \"replayed_lines\": {}}}",
                measure::num(p50),
                measure::num(parse),
                measure::num(worker_p50),
                measure::num(render_ms),
                measure::num(unaccounted),
                replayed.parse_ms.len()
            ),
        );
    } else {
        let (stats, _) = daemon_stats(&ready.daemon.addr)?;
        serve_counters(&stats, ready.submitted, &mut Metrics::default())?;
    }
    m.set("failed_frac", 0.0);
    m.set("peak_rss_mb", ready.daemon.peak_rss_mb()?);
    out.metrics = metrics;
    out.attempted = attempted;
    out.detail("daemon_flags", measure::quote(&daemon::flags()));
    out.detail(
        "samples",
        format!(
            "{{\"latency_p50_ms\": {}, \"setups\": {}}}",
            plain.latency_ms.len(),
            setups.len()
        ),
    );
    out.detail("batch_rows", batch.to_string());
    ready.daemon.stop()?;
    Ok(out)
}
