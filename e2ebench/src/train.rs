//! `train`: a kddsim train-mix CSV on disk becomes a verified artifact on
//! disk — chunked ingest, a PNrule fit on the rare `r2l` class, artifact
//! save and a verifying load.

use crate::measure::{self, Metrics};
use crate::oracle;
use crate::{checked, Failure, Opts, Outcome};
use pnr_core::{load_with_retry, ModelArtifact, PnruleLearner, PnruleParams, RetryPolicy};
use pnr_data::{read_csv_chunked, CsvOptions, Dataset};
use pnr_kddsim::{row_fields, MixStream};
use pnr_telemetry::{Counter, RecordingSink, SpanKind, TelemetrySink};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Rows in the training CSV.
const ROWS: usize = 500_000;
/// Rows generated and ingested per chunk.
const CHUNK_ROWS: usize = 65_536;
/// The rare class the model is fitted for.
const TARGET: &str = "r2l";
/// Every this many training rows is a probe row for the model check.
const PROBE_EVERY: usize = 250;

fn params() -> PnruleParams {
    PnruleParams {
        max_p_rules: 3,
        max_n_rules: 4,
        ..PnruleParams::default()
    }
}

fn fit(data: &Dataset, sink: Option<&Arc<RecordingSink>>) -> Result<ModelArtifact, String> {
    let target = data
        .class_code(TARGET)
        .ok_or_else(|| format!("training data has no {TARGET} class"))?;
    let mut learner = PnruleLearner::new(params());
    if let Some(sink) = sink {
        learner = learner.with_sink(sink.clone() as Arc<dyn TelemetrySink>);
    }
    let (model, report) = learner.fit_with_report(data, target);
    ModelArtifact::new(model, params(), report, data.schema().clone()).map_err(|e| e.to_string())
}

/// Streams the training rows to a CSV file chunk by chunk and returns
/// the typed options the chunked reader needs.
fn write_csv(seed: u64, path: &Path) -> Result<CsvOptions, String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut stream = MixStream::train(ROWS, seed);
    let mut file = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
    let mut types = None;
    while let Some(chunk) = stream.next_chunk(CHUNK_ROWS) {
        if types.is_none() {
            file.write_all(pnr_data::write_csv_header_string(&chunk, ',').as_bytes())
                .map_err(io)?;
            types = Some(
                (0..chunk.n_attrs())
                    .map(|a| chunk.schema().attr(a).ty)
                    .collect(),
            );
        }
        file.write_all(pnr_data::write_csv_rows_string(&chunk, ',').as_bytes())
            .map_err(io)?;
    }
    file.flush().map_err(io)?;
    Ok(CsvOptions {
        types,
        ..CsvOptions::default()
    })
}

/// The CSV plus the oracle: the same rows generated in memory, fitted
/// once, and the probe rows the two models are compared on.
struct Ready {
    csv: PathBuf,
    csv_opts: CsvOptions,
    oracle: ModelArtifact,
    probe: Vec<Vec<String>>,
}

fn setup(opts: &Opts) -> Result<Ready, Failure> {
    let csv = opts.work.join("train.csv");
    let csv_opts = write_csv(opts.seed, &csv)?;
    let data = pnr_kddsim::generate_train(ROWS, opts.seed);
    let oracle = fit(&data, None)?;
    let probe = (0..ROWS)
        .step_by(PROBE_EVERY)
        .map(|r| row_fields(&data, r))
        .collect();
    Ok(Ready {
        csv,
        csv_opts,
        oracle,
        probe,
    })
}

/// Stage times of one pass, in seconds.
struct Pass {
    total: f64,
    ingest: f64,
    fit: f64,
    save: f64,
    load: f64,
    sink: Option<Arc<RecordingSink>>,
}

fn pass(ready: &Ready, artifact_path: &Path, traced: bool) -> Result<Pass, Failure> {
    let sink = traced.then(|| Arc::new(RecordingSink::new()));
    let start = Instant::now();
    let (data, _) = read_csv_chunked(&ready.csv, &ready.csv_opts, CHUNK_ROWS)
        .map_err(|e| format!("ingest: {e}"))?;
    let ingest = start.elapsed();
    let t = Instant::now();
    let artifact = fit(&data, sink.as_ref())?;
    let fitted = t.elapsed();
    let t = Instant::now();
    artifact
        .save(artifact_path)
        .map_err(|e| format!("save: {e}"))?;
    let save = t.elapsed();
    let t = Instant::now();
    let loaded = load_with_retry(artifact_path, &RetryPolicy::default())
        .map_err(|e| format!("artifact does not load: {e}"));
    let load = t.elapsed();
    let total = start.elapsed();
    drop(data);
    checked(
        loaded.and_then(|l| oracle::check_artifact(artifact_path, &l, &ready.oracle, &ready.probe)),
    )?;
    let secs = Duration::as_secs_f64;
    Ok(Pass {
        total: secs(&total),
        ingest: secs(&ingest),
        fit: secs(&fitted),
        save: secs(&save),
        load: secs(&load),
        sink,
    })
}

/// Runs passes until `length` has passed (at least one).
fn passes(
    ready: &Ready,
    path: &Path,
    length: Duration,
    traced: bool,
) -> Result<Vec<Pass>, Failure> {
    let deadline = Instant::now() + length;
    let mut out = vec![pass(ready, path, traced)?];
    while Instant::now() < deadline {
        out.push(pass(ready, path, traced)?);
    }
    Ok(out)
}

/// Total wall time of completed spans of `kind`, in seconds.
pub fn span_s(sink: &RecordingSink, kind: SpanKind) -> f64 {
    sink.completed_spans()
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.wall_ns as f64 / 1e9)
        .sum()
}

/// The condition-search counters of one traced fit.
pub fn rules_metrics(sink: &RecordingSink, search_s: f64, m: &mut Metrics) {
    let evaluated = sink.value(Counter::ConditionsEvaluated) as f64;
    let warm = sink.value(Counter::ViewWarmHits) as f64;
    let cold = sink.value(Counter::ViewColdBuilds) as f64;
    m.set("rules.conditions_evaluated", evaluated);
    if evaluated > 0.0 {
        m.set("rules.ns_per_condition", search_s * 1e9 / evaluated);
    }
    if warm + cold > 0.0 {
        m.set("rules.view_warm_ratio", warm / (warm + cold));
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, Failure> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        let t = Instant::now();
        ready = Some(setup(opts)?);
        setups.push(t.elapsed());
    }
    let ready = ready.ok_or_else(|| "no set-up ran".to_string())?;
    let artifact_path = opts.work.join("trained.artifact");
    let mut out = Outcome::default();
    let mut m = Metrics::default();
    m.set("setup_s", crate::setup_seconds(&setups));

    let (plain_len, traced_len) = opts.phases();
    let plain = passes(&ready, &artifact_path, plain_len, false)?;
    let totals: Vec<f64> = plain.iter().map(|p| p.total).collect();
    let train_s = measure::median(&totals).ok_or("no pass ran")?;
    m.set("latency_p50_ms", train_s * 1e3);
    m.set("rows_per_s", ROWS as f64 / train_s);
    m.set(
        "peak_rss_mb",
        crate::daemon::peak_rss_mb("/proc/self/status")?,
    );
    out.attempted = plain.len() as u64;

    if let Some(traced_len) = traced_len {
        let traced = passes(&ready, &artifact_path, traced_len, true)?;
        out.attempted += traced.len() as u64;
        let totals: Vec<f64> = traced.iter().map(|p| p.total).collect();
        let mid = &traced[measure::median_index(&totals).ok_or("no pass ran")?];
        let sink = mid.sink.as_deref().ok_or("traced pass without a sink")?;
        let traced_s = measure::median(&totals).ok_or("no pass ran")?;
        m.set("trace_overhead_frac", traced_s / train_s - 1.0);
        m.set("train_s", mid.total);
        m.set("latency_samples", traced.len() as f64);
        m.set("failed_frac", 0.0);
        m.set("data.ingest_s", mid.ingest);
        m.set("data.ingest_rows_per_s", ROWS as f64 / mid.ingest);
        let (pphase, nphase) = (
            span_s(sink, SpanKind::PPhase),
            span_s(sink, SpanKind::NPhase),
        );
        m.set("core.fit_s", span_s(sink, SpanKind::Fit));
        m.set("core.pphase_s", pphase);
        m.set("core.nphase_s", nphase);
        m.set("core.score_matrix_s", span_s(sink, SpanKind::ScoreMatrix));
        m.set("core.artifact_save_ms", mid.save * 1e3);
        m.set("core.artifact_load_ms", mid.load * 1e3);
        rules_metrics(sink, pphase + nphase, &mut m);
        let remainder = mid.total - (mid.ingest + mid.fit + mid.save + mid.load);
        m.set("train.remainder_s", remainder);
        out.detail(
            "breakdown",
            format!(
                "{{\"total\": \"train_s\", \"total_s\": {}, \"stages_s\": {{\"data.ingest\": {}, \
                 \"core.fit\": {}, \"core.artifact_save\": {}, \"core.artifact_load\": {}}}, \
                 \"remainder_s\": {}}}",
                measure::num(mid.total),
                measure::num(mid.ingest),
                measure::num(mid.fit),
                measure::num(mid.save),
                measure::num(mid.load),
                measure::num(remainder)
            ),
        );
    }
    out.metrics = m;
    out.detail(
        "samples",
        format!(
            "{{\"latency_p50_ms\": {}, \"setups\": {}}}",
            plain.len(),
            setups.len()
        ),
    );
    out.detail(
        "train",
        format!("{{\"rows\": {ROWS}, \"target\": \"{TARGET}\", \"max_p_rules\": 3, \"max_n_rules\": 4}}"),
    );
    Ok(out)
}
