//! End-to-end benchmark of the three PNrule user paths — serving, training
//! and drift refit — with a per-layer breakdown.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <serve_small|serve_bulk|train|refit> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Every run sets up several times (the
//! median is `setup_s`), measures for `--seconds`, checks every output
//! against an oracle, and prints as its last stdout line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` splits the time between an
//! untraced and a traced half and reports the per-layer metrics, the
//! stage breakdown and `trace_overhead_frac`. See `NOTES.md` for the
//! workloads and what each one stresses.

mod daemon;
mod json;
mod measure;
mod oracle;
mod refit;
mod serve;
mod train;

use measure::{quote, Metrics, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
}

impl Opts {
    /// The measured phases: the whole run untraced, or an untraced and a
    /// traced half.
    pub fn phases(&self) -> (Duration, Option<Duration>) {
        if self.trace {
            let half = Duration::from_secs_f64(self.seconds / 2.0);
            (half, Some(half))
        } else {
            (Duration::from_secs_f64(self.seconds), None)
        }
    }
}

/// Why a run produced no metrics.
#[derive(Debug)]
pub enum Failure {
    /// An output check failed: the program answered wrongly.
    Check(String),
    /// The benchmark could not run (I/O, start-up, bad arguments).
    Env(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Env(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Env(msg.to_string())
    }
}

/// Turns a failed output check into a [`Failure::Check`].
pub fn checked<T>(r: Result<T, String>) -> Result<T, Failure> {
    r.map_err(Failure::Check)
}

/// What a workload hands back: counts, metrics and detail records. A
/// failed operation fails its check and so the whole run, so a workload
/// that returns has no failed operations.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub metrics: Metrics,
    /// Extra JSON members for the run's `detail` line (already rendered
    /// as `"key": value`).
    pub details: Vec<String>,
}

impl Outcome {
    pub fn detail(&mut self, key: &str, value: String) {
        self.details.push(format!("{}: {value}", quote(key)));
    }
}

/// Median of a sample the run cannot report without.
pub fn med(values: &[f64]) -> Result<f64, Failure> {
    measure::median(values).ok_or_else(|| Failure::Env("no samples were taken".to_string()))
}

/// Median of the set-up times, in seconds.
pub fn setup_seconds(times: &[Duration]) -> f64 {
    let secs: Vec<f64> = times.iter().map(Duration::as_secs_f64).collect();
    measure::median(&secs).unwrap_or(0.0)
}

const WORKLOADS: &[&str] = &["serve_small", "serve_bulk", "train", "refit"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 600.0 => seconds = Some(s),
                _ => return Err("--seconds needs a number in (0, 600]".to_string()),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace is 0 or 1".to_string()),
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--daemon") {
        return match args.as_slice() {
            [_, model, addr_file] => match daemon::serve(Path::new(model), Path::new(addr_file)) {
                Ok(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
                Err(e) => {
                    eprintln!("daemon: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => ExitCode::FAILURE,
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work = match daemon::work_dir(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.clone(),
    };
    let started = Instant::now();
    let steal_before = host_steal_s();
    let result = match args.workload.as_str() {
        "serve_small" => serve::run(serve::Shape::Small, &opts),
        "serve_bulk" => serve::run(serve::Shape::Bulk, &opts),
        "train" => train::run(&opts),
        _ => refit::run(&opts),
    };
    if result.is_err() {
        print_daemon_logs(&work);
    }
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let steal = match (steal_before, host_steal_s()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    report(&args, result, started.elapsed(), steal)
}

/// CPU time the hypervisor gave to other guests while this guest's
/// processors wanted to run (`steal` of `/proc/stat`), summed over
/// processors, in seconds. Runs with much of it are slowed by the host,
/// not by the program.
fn host_steal_s() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = text.lines().next()?.strip_prefix("cpu ")?;
    let ticks: u64 = cpu.split_whitespace().nth(7)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

/// Copies the tail of every daemon log in `work` to stderr, so that a
/// failed run shows what the daemon saw.
fn print_daemon_logs(work: &Path) {
    let Ok(entries) = std::fs::read_dir(work) else {
        return;
    };
    for path in entries.flatten().map(|e| e.path()) {
        if path.extension().is_some_and(|x| x == "log") {
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            let lines: Vec<&str> = text.lines().collect();
            eprintln!("--- {} (last 20 lines)", path.display());
            for line in &lines[lines.len().saturating_sub(20)..] {
                eprintln!("{line}");
            }
        }
    }
}

fn report(args: &Args, result: Result<Outcome, Failure>, wall: Duration, steal_s: f64) -> ExitCode {
    let outcome = match result {
        Ok(o) => o,
        Err(Failure::Check(msg)) => {
            eprintln!("output check failed: {msg}");
            println!("{}", measure::result_line(false, 1, 1, &[]));
            return ExitCode::FAILURE;
        }
        Err(Failure::Env(msg)) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let set = if args.trace { PER_LAYER } else { END_TO_END };
    let (metrics, bypassed) = match outcome.metrics.select(set, args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |p| p.get());
    let bypassed: Vec<String> = bypassed.iter().map(|b| quote(b)).collect();
    let mut detail = vec![
        format!("\"workload\": {}", quote(&args.workload)),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", measure::num(args.seconds)),
        format!("\"trace\": {}", u8::from(args.trace)),
        format!("\"detected_parallelism\": {parallelism}"),
        format!("\"run_wall_s\": {}", measure::num(wall.as_secs_f64())),
        format!(
            "\"host_steal_frac\": {}",
            measure::num(steal_s / (wall.as_secs_f64() * parallelism.max(1) as f64))
        ),
        format!("\"bypassed\": [{}]", bypassed.join(", ")),
    ];
    detail.extend(outcome.details);
    println!("{{\"detail\": {{{}}}}}", detail.join(", "));
    let named: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("  {n} = {} {u}", measure::num(*v)))
        .collect();
    eprintln!("{}", named.join("\n"));
    println!(
        "{}",
        measure::result_line(true, outcome.attempted, 0, &metrics)
    );
    ExitCode::SUCCESS
}
