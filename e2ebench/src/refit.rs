//! `refit`: drift refits beside live scoring. One connection keeps
//! scoring 1-row requests at a fixed rate while the benchmark, acting as
//! the sentinel, walks a recurring-drift kddsim stream in fixed 100k-row
//! windows: per window it polls the daemon's `stats`, runs the drift
//! detector, and runs `supervise_refit`, which fits, validates and
//! hot-swaps a new model through `DaemonClient`. The reported latency is
//! the time from a window being ready to its swap being acknowledged.

use crate::daemon::{self, Conn, Daemon};
use crate::measure::{self, Metrics};
use crate::oracle::{self, Episode, Expected};
use crate::serve::{self, ConnLog, Traffic};
use crate::train::{rules_metrics, span_s};
use crate::{checked, med, Failure, Opts, Outcome};
use pnr_core::retry::Backoff;
use pnr_core::{file_checksum, ColumnMap, ServingModel};
use pnr_data::Dataset;
use pnr_kddsim::{DriftSchedule, DriftStream};
use pnr_sentinel::{
    supervise_refit, DaemonClient, DetectorConfig, DriftDetector, ModelPublisher, PublishOutcome,
    RefitOutcome, SupervisorConfig, WindowDelta,
};
use pnr_telemetry::{RecordingSink, SpanKind, TelemetrySink};
use std::collections::btree_map::{BTreeMap, Entry};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median, and the measured slices
/// rotate over their daemons.
const SETUPS: usize = 5;

/// Rows per refit window, and the period of the recurring mix shift.
const WINDOW_ROWS: usize = 100_000;
/// Distinct 1-row request lines the scoring connection cycles through.
const POOL: usize = 4_096;
/// Scoring requests checked before timing starts.
const WARMUP: usize = 500;
/// Interval between scoring requests. Live traffic comes at a fixed
/// offered rate, so that a faster or slower scoring path does not change
/// how much of the cores the refit is left.
const SCORE_PERIOD: Duration = Duration::from_micros(500);
/// The served and refitted class.
const TARGET: &str = "dos";

/// `DaemonClient` as the refit publisher, timing each call into it.
struct TimedPublisher {
    client: DaemonClient,
    swap_ms: Vec<f64>,
    acks: Vec<(Instant, u64)>,
}

impl ModelPublisher for TimedPublisher {
    fn active_checksum(&mut self) -> Result<String, String> {
        self.client.active_checksum()
    }

    fn publish(&mut self, path: &Path) -> Result<PublishOutcome, String> {
        let t = Instant::now();
        let outcome = self.client.swap(path);
        self.swap_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Ok(PublishOutcome::Swapped { epoch, .. }) = &outcome {
            self.acks.push((Instant::now(), *epoch));
        }
        outcome
    }

    fn degrade(&mut self, on: bool, reason: &str) -> Result<(), String> {
        ModelPublisher::degrade(&mut self.client, on, reason)
    }
}

/// The sentinel's side of the run: its connections, the drift stream
/// and everything carried from one window to the next.
struct Sentinel {
    poller: Conn,
    publisher: TimedPublisher,
    stream: DriftStream,
    window: Dataset,
    detector: DriftDetector,
    previous: Option<pnr_sentinel::StatsSnapshot>,
    config: SupervisorConfig,
    window_id: u64,
    /// Last-known-good artifact, its checksum and epoch.
    lkg: PathBuf,
    checksum: String,
    epoch: u64,
    /// Every artifact served so far, by epoch.
    models: BTreeMap<u64, PathBuf>,
}

struct Ready {
    daemon: Daemon,
    scorer: Conn,
    traffic: Traffic,
    sentinel: Sentinel,
    submitted: u64,
}

fn setup(opts: &Opts, round: usize) -> Result<Ready, Failure> {
    let model = opts.work.join(format!("served{round}.artifact"));
    serve::train_served_model(opts.seed, &model)?;
    let (oracle, map) = serve::oracle_model(&model)?;
    let traffic = serve::traffic(opts.seed ^ 0x7a11_c0de, POOL, 1);
    let daemon = Daemon::spawn(&model, &opts.work, &format!("daemon{round}"))?;
    let mut scorer = serve::hello(&daemon.addr)?;
    for k in 0..WARMUP {
        let reply = scorer.roundtrip(&traffic.lines[k])?;
        let want = oracle::expect_row(&oracle, &map, &traffic.rows[k][0])?;
        checked(oracle::check_score_reply(&reply, &[want]))?;
    }
    let poller = Conn::connect(&daemon.addr)?;
    let backoff = Backoff::new(5, Duration::from_millis(20), Duration::from_millis(500));
    let client = DaemonClient::connect(&daemon.addr, &backoff)?;
    let schedule = DriftSchedule::parse(&format!("recur:{WINDOW_ROWS}")).ok_or("bad schedule")?;
    let mut stream = DriftStream::new(opts.seed ^ 0xd41f_7001, schedule);
    let window = stream.next_chunk(WINDOW_ROWS);
    let checksum = file_checksum(&model).map_err(|e| e.to_string())?;
    let mut config = SupervisorConfig::new(opts.work.join(format!("refit{round}")));
    // a window that fails to publish fails the run, so it is not retried
    config.max_attempts = 1;
    Ok(Ready {
        daemon,
        scorer,
        traffic,
        sentinel: Sentinel {
            poller,
            publisher: TimedPublisher {
                client,
                swap_ms: Vec::new(),
                acks: Vec::new(),
            },
            stream,
            window,
            detector: DriftDetector::new(DetectorConfig::default()),
            previous: None,
            config,
            window_id: 0,
            models: BTreeMap::from([(1, model.clone())]),
            lkg: model,
            checksum,
            epoch: 1,
        },
        submitted: WARMUP as u64,
    })
}

/// One window's sentinel work, timed.
struct EpisodeLog {
    publish_s: f64,
    poll_ms: f64,
    stats_parse_ms: f64,
    stats_bytes: usize,
    observe_us: Option<f64>,
    swap_ms: f64,
    sink: Option<Arc<RecordingSink>>,
}

fn episode(s: &mut Sentinel, traced: bool) -> Result<EpisodeLog, Failure> {
    let recording = traced.then(|| Arc::new(RecordingSink::new()));
    let sink: Arc<dyn TelemetrySink> = match &recording {
        Some(r) => r.clone(),
        None => pnr_telemetry::noop(),
    };
    // poll, parse and detect
    let t = Instant::now();
    let line = s
        .poller
        .roundtrip("{\"cmd\":\"stats\"}")
        .map_err(|e| format!("stats poll: {e}"))?;
    let poll = t.elapsed();
    let t = Instant::now();
    let snapshot = pnr_sentinel::stats::parse_stats(&line);
    let parse = t.elapsed();
    let snapshot = checked(snapshot)?;
    let observe_us = s.previous.as_ref().map(|previous| {
        let t = Instant::now();
        let delta = WindowDelta::between(previous, &snapshot);
        std::hint::black_box(s.detector.observe(&delta, &sink));
        t.elapsed().as_secs_f64() * 1e6
    });
    s.previous = Some(snapshot);

    // the window is ready: refit, validate and publish it
    s.window_id += 1;
    let t = Instant::now();
    let outcome = supervise_refit(
        &s.window,
        TARGET,
        &s.lkg,
        s.window_id,
        &mut s.publisher,
        &s.config,
        &sink,
    )
    .map_err(|e| format!("supervise_refit on window {}: {e}", s.window_id))?;
    let publish = t.elapsed();
    let RefitOutcome::Published {
        path,
        epoch,
        parent_checksum,
        ..
    } = outcome
    else {
        return Err(Failure::Check(format!(
            "window {} did not publish: {outcome:?}",
            s.window_id
        )));
    };
    let checksum = file_checksum(&path).map_err(|e| e.to_string())?;
    let published = Episode {
        epoch,
        parent_checksum,
        checksum: checksum.clone(),
    };
    checked(oracle::check_episodes(s.epoch, &s.checksum, &[published]))?;
    s.models.insert(epoch, path.clone());
    s.epoch = epoch;
    s.checksum = checksum;
    s.lkg = path;
    // the next window of the stream arrives
    s.window = s.stream.next_chunk(WINDOW_ROWS);
    Ok(EpisodeLog {
        publish_s: publish.as_secs_f64(),
        poll_ms: poll.as_secs_f64() * 1e3,
        stats_parse_ms: parse.as_secs_f64() * 1e3,
        stats_bytes: line.len(),
        observe_us,
        swap_ms: s.publisher.swap_ms.last().copied().unwrap_or(0.0),
        sink: recording,
    })
}

/// One measured phase: scoring on one thread, sentinel work on this
/// one, window after window until `length` has passed.
fn phase(
    ready: &mut Ready,
    length: Duration,
    traced: bool,
) -> Result<(ConnLog, Vec<EpisodeLog>, Instant), Failure> {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let deadline = start + length;
    let far = start + Duration::from_secs(150);
    let Ready {
        scorer,
        traffic,
        sentinel,
        ..
    } = ready;
    let lines = &traffic.lines;
    let (log, episodes) = std::thread::scope(|scope| {
        let stop = &stop;
        let scoring =
            scope.spawn(move || serve::closed_loop(scorer, lines, 0, SCORE_PERIOD, far, stop));
        let mut episodes = Vec::new();
        let mut result = Ok(());
        while Instant::now() < deadline && result.is_ok() {
            match episode(sentinel, traced) {
                Ok(e) => episodes.push(e),
                Err(e) => result = Err(e),
            }
        }
        stop.store(true, Ordering::Relaxed);
        let log = scoring
            .join()
            .unwrap_or_else(|_| Err("scoring thread panicked".to_string()));
        result.map(|()| (log, episodes))
    })?;
    let log = log.map_err(|e| format!("scoring connection: {e}"))?;
    ready.submitted += log.replies.len() as u64;
    Ok((log, episodes, start))
}

/// Checks every scoring reply against the model of the epoch it names,
/// and that no reply was served on an epoch older than the one live
/// when it was sent.
fn check_replies(ready: &Ready, log: &ConnLog) -> Result<(), Failure> {
    let mut oracles: BTreeMap<u64, (ServingModel, ColumnMap)> = BTreeMap::new();
    let mut epochs = Vec::with_capacity(log.replies.len());
    for ((reply, &idx), &sent) in log.replies.iter().zip(&log.idx).zip(&log.sent) {
        let epoch = crate::json::parse(reply)
            .ok()
            .and_then(|v| v.get("epoch").and_then(crate::json::Json::u64))
            .ok_or_else(|| Failure::Check(format!("reply without an epoch: {reply:.200}")))?;
        let (model, map) = match oracles.entry(epoch) {
            Entry::Occupied(known) => known.into_mut(),
            Entry::Vacant(slot) => {
                let path =
                    ready.sentinel.models.get(&epoch).ok_or_else(|| {
                        Failure::Check(format!("reply names unknown epoch {epoch}"))
                    })?;
                slot.insert(serve::oracle_model(path)?)
            }
        };
        let want: Expected = oracle::expect_row(model, map, &ready.traffic.rows[idx][0])?;
        checked(oracle::check_score_reply(reply, &[want]))?;
        epochs.push((sent, epoch));
    }
    checked(oracle::check_reply_epochs(
        &epochs,
        &ready.sentinel.publisher.acks,
    ))
}

fn publish_times(episodes: &[EpisodeLog]) -> Vec<f64> {
    episodes.iter().map(|e| e.publish_s).collect()
}

/// What one measured half gathered over its slices.
#[derive(Default)]
struct Rotation {
    /// One median latency and one throughput per slice.
    slices: measure::Windows,
    latency_ms: Vec<f64>,
    episodes: Vec<EpisodeLog>,
    replies: usize,
}

/// Measures for `length` in slices of about a second that rotate over
/// the set-ups' daemons, each slice with fresh scoring and sentinel
/// work. Which cores the daemon's, scorer's and fitting threads happen
/// to share moves a slice's figures by a fifth either way; rotating over
/// daemons and thread starts lets the run's median average that out.
fn rotate(instances: &mut [Ready], length: Duration, traced: bool) -> Result<Rotation, Failure> {
    let n = (length.as_secs_f64().round() as u32).max(1);
    let mut out = Rotation::default();
    for k in 0..n {
        let ready = &mut instances[k as usize % instances.len()];
        let (log, episodes, start) = phase(ready, length / n, traced)?;
        check_replies(ready, &log)?;
        let end = log.done_s(start).fold(0.0, f64::max);
        if let Some(p50) = measure::median(&log.latency_ms) {
            out.slices.p50_ms.push(p50);
            out.slices.rows_per_s.push(log.replies.len() as f64 / end);
        }
        out.latency_ms.extend(&log.latency_ms);
        out.replies += log.replies.len();
        out.episodes.extend(episodes);
    }
    Ok(out)
}

pub fn run(opts: &Opts) -> Result<Outcome, Failure> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut instances = Vec::with_capacity(SETUPS);
    for round in 0..SETUPS {
        let t = Instant::now();
        instances.push(setup(opts, round)?);
        setups.push(t.elapsed());
    }
    let mut out = Outcome::default();
    let mut m = Metrics::default();
    m.set("setup_s", crate::setup_seconds(&setups));

    let (plain_len, traced_len) = opts.phases();
    let plain = rotate(&mut instances, plain_len, false)?;
    let plain_publish = med(&publish_times(&plain.episodes))?;
    m.set("latency_p50_ms", plain_publish * 1e3);
    m.set("rows_per_s", WINDOW_ROWS as f64 / plain_publish);
    out.detail("slices", plain.slices.json());
    out.detail(
        "publish_s_per_window",
        format!(
            "[{}]",
            plain
                .episodes
                .iter()
                .map(|e| format!("{:.4}", e.publish_s))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    out.attempted = (plain.replies + plain.episodes.len()) as u64;
    let mut samples = format!(
        "{{\"latency_p50_ms\": {}, \"scoring_requests\": {}, \"setups\": {}",
        plain.episodes.len(),
        plain.latency_ms.len(),
        setups.len()
    );

    if let Some(traced_len) = traced_len {
        let traced = rotate(&mut instances, traced_len, true)?;
        let eps = &traced.episodes;
        out.attempted += (traced.replies + eps.len()) as u64;
        samples.push_str(&format!(", \"traced_publish_s\": {}", eps.len()));
        let publish = publish_times(eps);
        let mid = &eps[measure::median_index(&publish).ok_or("no window published")?];
        let sink = mid.sink.as_deref().ok_or("traced window without a sink")?;
        m.set("trace_overhead_frac", med(&publish)? / plain_publish - 1.0);
        m.set("serve.refit_score_p50_ms", med(&plain.slices.p50_ms)?);
        m.set("publish_s", mid.publish_s);
        m.set("publish_samples", eps.len() as f64);
        m.set("latency_samples", traced.latency_ms.len() as f64);
        if let Some((pct, v)) = measure::tail(&traced.latency_ms) {
            m.set("latency_tail_pct", pct);
            m.set("latency_tail_ms", v);
            out.detail(&format!("latency_p{pct}_ms"), measure::num(v));
        }
        m.set("failed_frac", 0.0);
        let fit = span_s(sink, SpanKind::RefitFit);
        let validate = span_s(sink, SpanKind::RefitValidate);
        let publish_span = span_s(sink, SpanKind::RefitPublish);
        m.set("core.refit_fit_ms", fit * 1e3);
        m.set("core.refit_validate_ms", validate * 1e3);
        m.set("core.refit_publish_ms", publish_span * 1e3);
        let remainder = mid.publish_s - (fit + validate + publish_span);
        m.set("publish.remainder_s", remainder);
        let (pphase, nphase) = (
            span_s(sink, SpanKind::PPhase),
            span_s(sink, SpanKind::NPhase),
        );
        m.set("core.fit_s", span_s(sink, SpanKind::Fit));
        m.set("core.pphase_s", pphase);
        m.set("core.nphase_s", nphase);
        m.set("core.score_matrix_s", span_s(sink, SpanKind::ScoreMatrix));
        rules_metrics(sink, pphase + nphase, &mut m);
        let polls: Vec<f64> = eps.iter().map(|e| e.poll_ms).collect();
        let parses: Vec<f64> = eps.iter().map(|e| e.stats_parse_ms).collect();
        let observes: Vec<f64> = eps.iter().filter_map(|e| e.observe_us).collect();
        let swaps: Vec<f64> = eps.iter().map(|e| e.swap_ms).collect();
        m.set("serve.stats_poll_ms", med(&polls)?);
        m.set("serde_json.stats_parse_ms", med(&parses)?);
        m.set("sentinel.observe_us", med(&observes)?);
        m.set("serve.swap_ms", med(&swaps)?);
        let bytes: Vec<String> = eps.iter().map(|e| e.stats_bytes.to_string()).collect();
        let largest = eps.iter().map(|e| e.stats_bytes).max().unwrap_or(0);
        m.set("serve.stats_reply_bytes", largest as f64);
        out.detail(
            "stats_reply_bytes_per_window",
            format!("[{}]", bytes.join(", ")),
        );
        out.detail(
            "breakdown",
            format!(
                "{{\"total\": \"publish_s\", \"total_s\": {}, \"stages_s\": {{\
                 \"core.refit_fit\": {}, \"core.refit_validate\": {}, \"core.refit_publish\": {}}}, \
                 \"remainder_s\": {}}}",
                measure::num(mid.publish_s),
                measure::num(fit),
                measure::num(validate),
                measure::num(publish_span),
                measure::num(remainder)
            ),
        );
    }
    let mut counters = Metrics::default();
    let mut peaks = Vec::with_capacity(instances.len());
    let mut epochs = 0;
    for ready in &instances {
        let (stats, _) = serve::daemon_stats(&ready.daemon.addr)?;
        serve::serve_counters(&stats, ready.submitted, &mut counters)?;
        peaks.push(ready.daemon.peak_rss_mb()?);
        epochs += ready.sentinel.epoch - 1;
    }
    if traced_len.is_some() {
        for name in [
            "serve.requests_served",
            "serve.requests_shed",
            "serve.deadline_exceeded",
            "serve.worker_panics",
        ] {
            m.set(name, counters.get(name).unwrap_or(0.0));
        }
    }
    samples.push('}');
    m.set("peak_rss_mb", med(&peaks)?);
    out.metrics = m;
    out.detail("samples", samples);
    out.detail("daemon_flags", measure::quote(&daemon::flags()));
    out.detail("epochs_published", epochs.to_string());
    for ready in instances {
        ready.daemon.stop()?;
    }
    Ok(out)
}
