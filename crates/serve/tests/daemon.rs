//! Fault-injection integration suite for the scoring daemon: hot-swap
//! under sustained load, worker panics, corrupt swaps, backpressure,
//! deadlines, graceful drain, kill -9 recovery, and the serving-binary
//! exit-code convention — all driven over the real TCP protocol against
//! real `pnr-serve` / `pnr-loadgen` processes.

use serde::Content;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pnr_daemon_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Trains a tiny dos-vs-rest artifact (the same model every CLI test
/// uses) and saves it under `dir`.
fn make_artifact(dir: &Path, name: &str, seed: u64) -> PathBuf {
    let train = pnr_kddsim::generate_train(800, seed);
    let target = train.class_code("dos").unwrap();
    let params = pnr_core::PnruleParams::default();
    let (model, report) =
        pnr_core::PnruleLearner::new(params.clone()).fit_with_report(&train, target);
    let artifact =
        pnr_core::ModelArtifact::new(model, params, report, train.schema().clone()).unwrap();
    let path = dir.join(name);
    artifact.save(&path).unwrap();
    path
}

struct Daemon {
    child: Child,
    addr: String,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts `pnr-serve` with `args` and waits for its listening line.
    fn start(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pnr-serve"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        let addr = line
            .trim()
            .strip_prefix("pnr-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
            .to_string();
        Daemon {
            child,
            addr,
            stdout,
        }
    }

    /// Waits for exit and returns (exit code, remaining stdout).
    fn wait(mut self) -> (Option<i32>, String) {
        let status = self.child.wait().unwrap();
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut self.stdout, &mut rest).unwrap();
        (status.code(), rest)
    }

    fn kill9(mut self) {
        self.child.kill().unwrap(); // SIGKILL on unix
        self.child.wait().unwrap();
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        pnr_serve::write_line(&mut self.writer, line).unwrap();
    }

    /// Reads one reply line without parsing it.
    fn recv_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        assert!(!line.is_empty(), "daemon closed the connection");
        line
    }

    fn recv(&mut self) -> Content {
        let line = self.recv_line();
        serde_json::parse(line.trim()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
    }

    fn request(&mut self, line: &str) -> Content {
        self.send(line);
        self.recv()
    }

    /// Declares the KDD header; returns the hello reply.
    fn hello(&mut self) -> Content {
        let columns: Vec<String> = pnr_kddsim::ATTR_NAMES
            .iter()
            .map(|c| format!("\"{c}\""))
            .collect();
        let reply = self.request(&format!(
            "{{\"cmd\":\"hello\",\"columns\":[{}]}}",
            columns.join(",")
        ));
        assert!(is_ok(&reply), "{reply:?}");
        reply
    }

    /// Builds a `score` line with `batch` clean rows from `data`.
    fn score_line(data: &pnr_data::Dataset, id: usize, batch: usize) -> String {
        let rows: Vec<String> = (0..batch)
            .map(|j| {
                let fields = pnr_kddsim::row_fields(data, (id * batch + j) % data.n_rows());
                let quoted: Vec<String> = fields.iter().map(|f| format!("\"{f}\"")).collect();
                format!("[{}]", quoted.join(","))
            })
            .collect();
        format!(
            "{{\"cmd\":\"score\",\"id\":\"r{id}\",\"rows\":[{}]}}",
            rows.join(",")
        )
    }
}

fn is_ok(v: &Content) -> bool {
    v.get("ok") == Some(&Content::Bool(true))
}

fn ju64(v: &Content, key: &str) -> u64 {
    match v.get(key) {
        Some(Content::U64(n)) => *n,
        other => panic!("no u64 {key}: {other:?}"),
    }
}

fn jstr<'a>(v: &'a Content, key: &str) -> &'a str {
    match v.get(key) {
        Some(Content::Str(s)) => s,
        other => panic!("no string {key}: {other:?}"),
    }
}

fn counter(stats: &Content, name: &str) -> u64 {
    let counters = stats.get("counters").expect("counters in stats");
    ju64(counters, name)
}

#[test]
fn hot_swap_under_load_drops_and_misroutes_nothing() {
    let dir = temp_dir("swapload");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let a2 = make_artifact(&dir, "a2.artifact", 11);
    let daemon = Daemon::start(&["--model", a1.to_str().unwrap(), "--workers", "4"]);
    let data = pnr_kddsim::generate_train(400, 3);

    let mut client = Client::connect(&daemon.addr);
    client.hello();

    // a second connection swaps the model 3 times while traffic runs;
    // swaps fire at fixed request milestones so the interleaving is
    // deterministic regardless of machine speed
    let mut ctl = Client::connect(&daemon.addr);
    let swaps = [(50usize, &a2), (100, &a1), (150, &a2)];

    const REQUESTS: usize = 200;
    const BATCH: usize = 4;
    let mut epochs_seen = [0u64; 8];
    for i in 0..REQUESTS {
        if let Some(pos) = swaps.iter().position(|(at, _)| *at == i) {
            let reply = ctl.request(&format!(
                "{{\"cmd\":\"swap\",\"path\":\"{}\"}}",
                swaps[pos].1.display()
            ));
            assert!(is_ok(&reply), "swap {pos}: {reply:?}");
            assert_eq!(ju64(&reply, "epoch"), pos as u64 + 2);
        }
        let reply = client.request(&Client::score_line(&data, i, BATCH));
        assert!(is_ok(&reply), "request {i}: {reply:?}");
        assert_eq!(jstr(&reply, "id"), format!("r{i}"), "no misrouted reply");
        // zero dropped or misrouted records: every row of every batch
        // scores cleanly against whichever epoch served it
        assert_eq!(
            ju64(&reply, "scored"),
            BATCH as u64,
            "request {i}: {reply:?}"
        );
        assert_eq!(ju64(&reply, "errors"), 0, "request {i}: {reply:?}");
        let epoch = ju64(&reply, "epoch") as usize;
        assert!((1..=4).contains(&epoch), "request {i}: epoch {epoch}");
        epochs_seen[epoch] += 1;
    }
    assert!(
        epochs_seen[1] > 0 && epochs_seen.iter().skip(2).sum::<u64>() > 0,
        "traffic spanned the swaps: {epochs_seen:?}"
    );

    // per-epoch accounting: every request landed in exactly one epoch
    let stats = client.request("{\"cmd\":\"stats\"}");
    assert_eq!(counter(&stats, "requests_served"), REQUESTS as u64);
    assert_eq!(counter(&stats, "requests_shed"), 0);
    assert_eq!(counter(&stats, "worker_panics"), 0);
    assert_eq!(counter(&stats, "model_swaps"), 3);
    assert_eq!(counter(&stats, "swap_failures"), 0);
    let epochs = match stats.get("epochs") {
        Some(Content::Seq(s)) => s,
        other => panic!("no epochs: {other:?}"),
    };
    assert_eq!(epochs.len(), 4, "one entry per published epoch");
    let total: u64 = epochs.iter().map(|e| ju64(e, "served")).sum();
    assert_eq!(total, REQUESTS as u64, "per-epoch counts sum to the total");
    for (slot, e) in epochs.iter().enumerate() {
        assert_eq!(ju64(e, "epoch"), slot as u64 + 1);
        assert_eq!(
            ju64(e, "served"),
            epochs_seen[slot + 1],
            "epoch {}",
            slot + 1
        );
    }

    let reply = client.request("{\"cmd\":\"shutdown\"}");
    assert!(is_ok(&reply), "{reply:?}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_worker_panic_is_isolated_and_service_continues() {
    let dir = temp_dir("panic");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&[
        "--model",
        a1.to_str().unwrap(),
        "--workers",
        "2",
        "--enable-fault-injection",
    ]);
    let data = pnr_kddsim::generate_train(100, 3);
    let mut client = Client::connect(&daemon.addr);
    client.hello();

    let reply = client.request(&Client::score_line(&data, 0, 4));
    assert!(is_ok(&reply), "{reply:?}");

    let reply = client.request("{\"cmd\":\"panic\"}");
    assert!(!is_ok(&reply));
    assert_eq!(jstr(&reply, "error"), "worker_panic");
    assert!(
        jstr(&reply, "detail").contains("injected fault"),
        "panic message captured: {reply:?}"
    );

    // the respawned worker keeps serving
    for i in 1..10 {
        let reply = client.request(&Client::score_line(&data, i, 4));
        assert!(is_ok(&reply), "after panic, request {i}: {reply:?}");
    }
    let stats = client.request("{\"cmd\":\"stats\"}");
    assert_eq!(counter(&stats, "worker_panics"), 1);
    assert_eq!(ju64(&stats, "worker_respawns"), 1);
    assert_eq!(ju64(&stats, "workers_alive"), 2, "pool capacity restored");
    // the panicked request still counts as answered
    assert_eq!(counter(&stats, "requests_served"), 11);

    client.send("{\"cmd\":\"shutdown\"}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_corrupt_swap_is_a_logged_no_op_with_zero_failed_requests() {
    let dir = temp_dir("corrupt");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    // two corruption shapes: truncated garbage and a flipped checksum
    let garbage = dir.join("garbage.artifact");
    std::fs::write(&garbage, "pnrule-artifact v9999 {").unwrap();
    let flipped = dir.join("flipped.artifact");
    let mut bytes = std::fs::read(&a1).unwrap();
    let last = bytes.len() - 2;
    bytes[last] = bytes[last].wrapping_add(1);
    std::fs::write(&flipped, &bytes).unwrap();

    let daemon = Daemon::start(&["--model", a1.to_str().unwrap()]);
    let data = pnr_kddsim::generate_train(100, 3);
    let mut client = Client::connect(&daemon.addr);
    client.hello();

    for (k, bad) in [&garbage, &flipped, Path::new("/nonexistent/x.artifact")]
        .iter()
        .enumerate()
    {
        // traffic flows before, through, and after the failed swap
        let reply = client.request(&Client::score_line(&data, k, 4));
        assert!(is_ok(&reply), "{reply:?}");
        assert_eq!(ju64(&reply, "epoch"), 1, "old model keeps serving");

        let reply = client.request(&format!(
            "{{\"cmd\":\"swap\",\"path\":\"{}\"}}",
            bad.display()
        ));
        assert!(!is_ok(&reply), "corrupt swap {k} must fail: {reply:?}");
        assert_eq!(jstr(&reply, "error"), "swap_failed");

        let reply = client.request(&Client::score_line(&data, 100 + k, 4));
        assert!(is_ok(&reply), "{reply:?}");
        assert_eq!(ju64(&reply, "scored"), 4);
        assert_eq!(ju64(&reply, "errors"), 0, "zero failed requests");
    }

    let stats = client.request("{\"cmd\":\"stats\"}");
    assert_eq!(ju64(&stats, "epoch"), 1, "no epoch was published");
    assert_eq!(counter(&stats, "swap_failures"), 3);
    assert_eq!(counter(&stats, "model_swaps"), 0);
    assert_eq!(counter(&stats, "worker_panics"), 0);
    assert_eq!(counter(&stats, "requests_shed"), 0);

    client.send("{\"cmd\":\"shutdown\"}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overload_sheds_with_typed_rejections_and_exact_accounting() {
    let dir = temp_dir("overload");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&[
        "--model",
        a1.to_str().unwrap(),
        "--workers",
        "1",
        "--queue-capacity",
        "2",
        "--shed",
        "reject",
        "--enable-fault-injection",
    ]);
    let data = pnr_kddsim::generate_train(100, 3);
    let mut client = Client::connect(&daemon.addr);
    client.hello();

    // occupy the only worker, then fill the queue, then overflow it
    client.send("{\"cmd\":\"stall\",\"ms\":1000}");
    std::thread::sleep(Duration::from_millis(200)); // worker surely busy
    for i in 0..2 {
        client.send(&Client::score_line(&data, i, 2));
    }
    client.send(&Client::score_line(&data, 2, 2));

    let mut score_ok = 0;
    let mut stall_ok = 0;
    let mut rejected = Vec::new();
    for _ in 0..4 {
        let reply = client.recv();
        if is_ok(&reply) {
            match jstr(&reply, "reply") {
                "score" => score_ok += 1,
                "stall" => stall_ok += 1,
                other => panic!("unexpected reply {other}"),
            }
        } else {
            assert_eq!(jstr(&reply, "error"), "queue_full");
            assert!(
                ju64(&reply, "retry_after_ms") > 0,
                "rejection tells the client when to retry: {reply:?}"
            );
            rejected.push(jstr(&reply, "id").to_string());
        }
    }
    assert_eq!(stall_ok, 1);
    assert_eq!(score_ok, 2, "queued work survives the overload");
    assert_eq!(rejected, ["r2"], "exactly the overflow request was shed");

    // served + shed == submitted
    let stats = client.request("{\"cmd\":\"stats\"}");
    assert_eq!(counter(&stats, "requests_served"), 3);
    assert_eq!(counter(&stats, "requests_shed"), 1);

    client.send("{\"cmd\":\"shutdown\"}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drop_oldest_policy_evicts_the_oldest_queued_request() {
    let dir = temp_dir("dropoldest");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&[
        "--model",
        a1.to_str().unwrap(),
        "--workers",
        "1",
        "--queue-capacity",
        "2",
        "--shed",
        "drop-oldest",
        "--enable-fault-injection",
    ]);
    let data = pnr_kddsim::generate_train(100, 3);
    let mut client = Client::connect(&daemon.addr);
    client.hello();

    client.send("{\"cmd\":\"stall\",\"ms\":1000}");
    std::thread::sleep(Duration::from_millis(200));
    for i in 0..3 {
        client.send(&Client::score_line(&data, i, 2));
    }

    let mut score_ok = Vec::new();
    let mut shed = Vec::new();
    for _ in 0..4 {
        let reply = client.recv();
        if is_ok(&reply) {
            if jstr(&reply, "reply") == "score" {
                score_ok.push(jstr(&reply, "id").to_string());
            }
        } else {
            assert_eq!(jstr(&reply, "error"), "shed");
            shed.push(jstr(&reply, "id").to_string());
        }
    }
    assert_eq!(shed, ["r0"], "the oldest queued request was evicted");
    score_ok.sort();
    assert_eq!(score_ok, ["r1", "r2"], "the newest requests survived");

    client.send("{\"cmd\":\"shutdown\"}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deadlines_expire_with_a_typed_response() {
    let dir = temp_dir("deadline");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&[
        "--model",
        a1.to_str().unwrap(),
        "--workers",
        "1",
        "--enable-fault-injection",
    ]);
    let data = pnr_kddsim::generate_train(100, 3);
    let mut client = Client::connect(&daemon.addr);
    client.hello();

    client.send("{\"cmd\":\"stall\",\"ms\":600}");
    std::thread::sleep(Duration::from_millis(100));
    // queued behind a 600ms stall with a 100ms budget: must expire
    let line = Client::score_line(&data, 0, 2).replace("\"rows\"", "\"deadline_ms\":100,\"rows\"");
    client.send(&line);

    let stall = client.recv();
    assert!(is_ok(&stall), "{stall:?}");
    let reply = client.recv();
    assert!(!is_ok(&reply), "{reply:?}");
    assert_eq!(jstr(&reply, "error"), "deadline_exceeded");
    assert_eq!(jstr(&reply, "id"), "r0");

    // deadline_exceeded flows through telemetry
    let stats = client.request("{\"cmd\":\"stats\"}");
    assert_eq!(counter(&stats, "deadline_exceeded"), 1);
    assert_eq!(counter(&stats, "requests_served"), 2, "still answered");

    client.send("{\"cmd\":\"shutdown\"}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill9_restart_resumes_the_last_swapped_model() {
    let dir = temp_dir("kill9");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let a2 = make_artifact(&dir, "a2.artifact", 11);
    let state = dir.join("active.state");

    let daemon = Daemon::start(&[
        "--model",
        a1.to_str().unwrap(),
        "--state",
        state.to_str().unwrap(),
    ]);
    let mut client = Client::connect(&daemon.addr);
    let reply = client.request(&format!(
        "{{\"cmd\":\"swap\",\"path\":\"{}\"}}",
        a2.display()
    ));
    assert!(is_ok(&reply), "{reply:?}");
    assert_eq!(
        std::fs::read_to_string(&state).unwrap().trim(),
        a2.to_str().unwrap(),
        "state file tracks the activated artifact"
    );
    daemon.kill9();

    // restart with the STALE --model: the state file must win
    let daemon = Daemon::start(&[
        "--model",
        a1.to_str().unwrap(),
        "--state",
        state.to_str().unwrap(),
    ]);
    let mut client = Client::connect(&daemon.addr);
    client.hello();
    let stats = client.request("{\"cmd\":\"stats\"}");
    let epochs = match stats.get("epochs") {
        Some(Content::Seq(s)) => s,
        other => panic!("no epochs: {other:?}"),
    };
    assert_eq!(
        jstr(&epochs[0], "source"),
        a2.to_str().unwrap(),
        "restart resumed the swapped-in artifact, not the stale --model"
    );
    client.send("{\"cmd\":\"shutdown\"}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graceful_drain_answers_the_backlog_and_flushes_telemetry() {
    let dir = temp_dir("drain");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&[
        "--model",
        a1.to_str().unwrap(),
        "--workers",
        "1",
        "--enable-fault-injection",
    ]);
    let data = pnr_kddsim::generate_train(100, 3);
    let mut client = Client::connect(&daemon.addr);
    client.hello();

    // build a backlog behind a stall, then ask for shutdown immediately
    client.send("{\"cmd\":\"stall\",\"ms\":400}");
    std::thread::sleep(Duration::from_millis(100));
    for i in 0..3 {
        client.send(&Client::score_line(&data, i, 2));
    }
    client.send("{\"cmd\":\"shutdown\"}");

    // every queued job is still answered during the drain
    let mut score_ok = 0;
    let mut saw_shutdown = false;
    for _ in 0..5 {
        let reply = client.recv();
        if is_ok(&reply) {
            match jstr(&reply, "reply") {
                "score" => score_ok += 1,
                "shutdown" => saw_shutdown = true,
                _ => {}
            }
        }
    }
    assert_eq!(score_ok, 3, "backlog drained, not dropped");
    assert!(saw_shutdown);

    let (code, rest) = daemon.wait();
    assert_eq!(code, Some(0), "graceful drain exits 0");
    // the final telemetry report is NDJSON on stdout
    assert!(
        rest.contains("{\"record\":\"counter\",\"name\":\"requests_served\",\"value\":4}"),
        "telemetry flushed on drain: {rest}"
    );
    assert!(rest.contains("\"kind\":\"serve_request\""), "{rest}");
    for line in rest.lines().filter(|l| !l.trim().is_empty()) {
        assert!(serde_json::parse(line).is_ok(), "unparseable: {line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn requests_after_shutdown_are_refused_with_a_typed_error() {
    let dir = temp_dir("afterdrain");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&["--model", a1.to_str().unwrap()]);
    let data = pnr_kddsim::generate_train(100, 3);
    let mut client = Client::connect(&daemon.addr);
    client.hello();

    let reply = client.request("{\"cmd\":\"shutdown\"}");
    assert!(is_ok(&reply), "{reply:?}");
    let reply = client.request(&Client::score_line(&data, 0, 2));
    assert!(!is_ok(&reply), "{reply:?}");
    assert_eq!(jstr(&reply, "error"), "shutting_down");

    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loadgen_drives_hostile_traffic_swap_and_panic_end_to_end() {
    let dir = temp_dir("loadgen");
    // exercise the loadgen trainer too
    let a1 = dir.join("a1.artifact");
    let out = Command::new(env!("CARGO_BIN_EXE_pnr-loadgen"))
        .args(["train", "--out", a1.to_str().unwrap(), "--rows", "800"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let a2 = make_artifact(&dir, "a2.artifact", 11);

    let daemon = Daemon::start(&[
        "--model",
        a1.to_str().unwrap(),
        "--workers",
        "2",
        "--enable-fault-injection",
    ]);
    let out = Command::new(env!("CARGO_BIN_EXE_pnr-loadgen"))
        .args([
            "run",
            "--addr",
            &daemon.addr,
            "--requests",
            "60",
            "--batch",
            "4",
            "--qps",
            "500",
            "--malformed-rate",
            "0.15",
            "--drift-rate",
            "0.15",
            "--swap",
            a2.to_str().unwrap(),
            "--panic-mid-run",
            "--shutdown",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}\n{stdout}");

    let report = stdout
        .lines()
        .find(|l| l.contains("\"record\":\"loadgen\""))
        .unwrap_or_else(|| panic!("no loadgen record in {stdout}"));
    let report = serde_json::parse(report).unwrap();
    assert_eq!(ju64(&report, "score_ok"), 60, "{stdout}");
    assert_eq!(ju64(&report, "worker_panic"), 1);
    assert_eq!(ju64(&report, "swap_ok"), 1);
    assert!(ju64(&report, "row_errors") > 0, "hostile rows surfaced");
    assert!(stdout.contains("\"record\":\"traffic\""), "{stdout}");
    assert!(stdout.contains("\"kind\":\"client_request\""), "{stdout}");
    assert!(stderr.contains("fault census:"), "{stderr}");

    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0), "loadgen --shutdown drained the daemon");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serving_binaries_pin_the_exit_code_convention() {
    // usage errors: 2
    for args in [
        &[][..],
        &["--shed", "sometimes"][..],
        &["--model"][..],
        &["--workers", "0"][..],
        // an unknown flag is refused before the model is touched
        &["--model", "/nonexistent/x.artifact", "--turbo", "on"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pnr-serve"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: pnr-serve"),
            "{args:?}"
        );
    }
    for args in [
        &[][..],
        &["run"][..],
        &["train"][..],
        &["run", "--addr", "x", "--malformed-rate", "1.5"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pnr-loadgen"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }

    // data/model failures: 1, with a typed artifact error on stderr
    let out = Command::new(env!("CARGO_BIN_EXE_pnr-serve"))
        .args(["--model", "/nonexistent/x.artifact"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error:"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = Command::new(env!("CARGO_BIN_EXE_pnr-loadgen"))
        .args(["run", "--addr", "127.0.0.1:1", "--requests", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

/// The KDD header plus `more` columns, as a `hello` request line.
fn hello_line(more: &[&str]) -> String {
    let columns: Vec<String> = pnr_kddsim::ATTR_NAMES
        .iter()
        .chain(more)
        .map(|c| format!("\"{c}\""))
        .collect();
    format!("{{\"cmd\":\"hello\",\"columns\":[{}]}}", columns.join(","))
}

/// Pins the ok `hello` reply: the envelope plus exactly `epoch`,
/// `missing` and `extra`.
#[test]
fn hello_reply_schema_is_pinned() {
    let dir = temp_dir("helloschema");
    let model = make_artifact(&dir, "m.artifact", 23);
    let daemon = Daemon::start(&["--model", model.to_str().unwrap()]);
    let mut client = Client::connect(&daemon.addr);

    let reply = client.request(&hello_line(&["class"]));
    assert!(is_ok(&reply), "{reply:?}");
    let keys: Vec<&str> = match &reply {
        Content::Map(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected a map, got {other:?}"),
    };
    assert_eq!(
        keys,
        ["ok", "reply", "epoch", "missing", "extra"],
        "hello reply schema changed"
    );
    assert_eq!(jstr(&reply, "reply"), "hello");
    assert_eq!(ju64(&reply, "epoch"), 1);
    assert_eq!(ju64(&reply, "missing"), 0);
    assert_eq!(ju64(&reply, "extra"), 1);

    client.send("{\"cmd\":\"shutdown\"}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

/// A header naming a stored column twice cannot be reconciled: the
/// daemon refuses it as a schema mismatch, and the connection can still
/// declare a proper header afterwards.
#[test]
fn a_hello_naming_a_stored_column_twice_is_a_schema_mismatch() {
    let dir = temp_dir("hellodup");
    let model = make_artifact(&dir, "m.artifact", 23);
    let daemon = Daemon::start(&["--model", model.to_str().unwrap()]);
    let mut client = Client::connect(&daemon.addr);

    let twice = pnr_kddsim::ATTR_NAMES[0];
    let reply = client.request(&hello_line(&[twice]));
    assert!(!is_ok(&reply), "{reply:?}");
    assert_eq!(jstr(&reply, "error"), "schema_mismatch");
    assert!(
        jstr(&reply, "detail").contains(&format!("`{twice}`")),
        "{reply:?}"
    );
    // a duplicated column the model does not store stays ignored
    let reply = client.request(&hello_line(&["class", "class"]));
    assert!(is_ok(&reply), "{reply:?}");
    assert_eq!(ju64(&reply, "extra"), 2);

    client.send("{\"cmd\":\"shutdown\"}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

/// Pins the stats NDJSON schema the sentinel builds on: exact top-level
/// field set, one counter per telemetry name, sketch shapes, and counter
/// monotonicity across polling windows. A field rename here is a wire
/// contract break, not a refactor.
#[test]
fn stats_schema_is_pinned_and_counters_are_monotone() {
    let dir = temp_dir("statschema");
    let model = make_artifact(&dir, "m.artifact", 23);
    let daemon = Daemon::start(&["--model", model.to_str().unwrap()]);
    let data = pnr_kddsim::generate_train(200, 5);

    let mut client = Client::connect(&daemon.addr);
    client.hello();
    let mut ctl = Client::connect(&daemon.addr);

    let keys = |v: &Content| -> Vec<String> {
        match v {
            Content::Map(entries) => entries.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("expected a map, got {other:?}"),
        }
    };

    let stats = ctl.request("{\"cmd\":\"stats\"}");
    assert!(is_ok(&stats), "{stats:?}");
    assert_eq!(
        keys(&stats),
        [
            "ok",
            "reply",
            "epoch",
            "mode",
            "degraded_reason",
            "active_checksum",
            "lineage",
            "queue_len",
            "queue_capacity",
            "shed_policy",
            "workers",
            "workers_alive",
            "worker_respawns",
            "pending",
            "counters",
            "epochs",
            "score_hist",
            "p_first_match",
            "request_latency",
            "swap_latency",
        ],
        "stats top-level schema changed"
    );
    assert_eq!(jstr(&stats, "mode"), "normal");
    assert_eq!(stats.get("degraded_reason"), Some(&Content::Null));
    assert_eq!(
        stats.get("lineage"),
        Some(&Content::Null),
        "boot has no lineage"
    );
    assert!(!jstr(&stats, "active_checksum").is_empty());

    // every telemetry counter is exported under its stable name
    let exported = keys(stats.get("counters").unwrap());
    for c in pnr_telemetry::Counter::ALL {
        assert!(
            exported.iter().any(|k| k == c.name()),
            "counter {} missing from stats",
            c.name()
        );
    }
    assert_eq!(exported.len(), pnr_telemetry::Counter::ALL.len());

    // epochs entries carry the lineage-relevant fields
    match stats.get("epochs") {
        Some(Content::Seq(entries)) => {
            assert!(!entries.is_empty());
            for e in entries {
                assert_eq!(keys(e), ["epoch", "served", "source", "checksum"]);
            }
        }
        other => panic!("epochs not a sequence: {other:?}"),
    }

    // sketch shapes: 20 score bins, 32 p-first buckets plus a none count
    let bins_len = |v: &Content| match v {
        Content::Seq(s) => s.len(),
        other => panic!("expected bins, got {other:?}"),
    };
    assert_eq!(bins_len(stats.get("score_hist").unwrap()), 20);
    let pfm = stats.get("p_first_match").unwrap();
    assert_eq!(keys(pfm), ["bins", "none"]);
    assert_eq!(bins_len(pfm.get("bins").unwrap()), 32);

    // window boundaries: the counter delta between two polls is exactly
    // the traffic sent between them, and counters never decrease
    let before_rows = counter(&stats, "rows_scored");
    let before_checks = counter(&stats, "requests_served");
    const REQUESTS: usize = 10;
    const BATCH: usize = 20;
    for i in 0..REQUESTS {
        let reply = client.request(&Client::score_line(&data, i, BATCH));
        assert!(is_ok(&reply), "{reply:?}");
    }
    let after = ctl.request("{\"cmd\":\"stats\"}");
    let hist_mass: u64 = match after.get("score_hist") {
        Some(Content::Seq(s)) => s
            .iter()
            .map(|b| match b {
                Content::U64(n) => *n,
                other => panic!("non-u64 bin: {other:?}"),
            })
            .sum(),
        other => panic!("score_hist missing: {other:?}"),
    };
    assert_eq!(
        counter(&after, "rows_scored") - before_rows,
        (REQUESTS * BATCH) as u64,
        "rows_scored window delta"
    );
    assert_eq!(
        hist_mass,
        counter(&after, "rows_scored"),
        "every scored row lands in exactly one score bin"
    );
    assert!(counter(&after, "requests_served") > before_checks);
    for c in pnr_telemetry::Counter::ALL {
        assert!(
            counter(&after, c.name()) >= counter(&stats, c.name()),
            "counter {} regressed between polls",
            c.name()
        );
    }

    let reply = ctl.request("{\"cmd\":\"shutdown\"}");
    assert!(is_ok(&reply), "{reply:?}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_deeply_nested_line_is_a_bad_request_not_a_crash() {
    let dir = temp_dir("deepnest");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&["--model", a1.to_str().unwrap(), "--workers", "2"]);
    let data = pnr_kddsim::generate_train(100, 3);
    let mut client = Client::connect(&daemon.addr);

    // parsed on a connection thread's default-size stack
    let reply = client.request(&"[".repeat(100_000));
    assert!(!is_ok(&reply), "{reply:?}");
    assert_eq!(jstr(&reply, "error"), "bad_request");
    assert!(jstr(&reply, "detail").contains("nesting"), "{reply:?}");

    // the same daemon, and the same connection, keep scoring
    client.hello();
    let reply = client.request(&Client::score_line(&data, 0, 4));
    assert!(is_ok(&reply), "{reply:?}");
    assert_eq!(ju64(&reply, "scored"), 4);

    client.send("{\"cmd\":\"shutdown\"}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_utf8_character_split_across_reads_gets_a_typed_reply() {
    let dir = temp_dir("splitutf8");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&["--model", a1.to_str().unwrap(), "--workers", "2"]);
    let mut client = Client::connect(&daemon.addr);

    // the first byte of `é` arrives, then the daemon's 100 ms read
    // timeout fires (more than once) before the second byte does
    client.writer.write_all(b"{\"cmd\":\"x\xc3").unwrap();
    std::thread::sleep(Duration::from_millis(350));
    client.writer.write_all(b"\xa9\"}\n").unwrap();
    let reply = client.recv();
    assert_eq!(jstr(&reply, "error"), "bad_request", "{reply:?}");
    assert!(
        jstr(&reply, "detail").contains("unknown cmd \"xé\""),
        "{reply:?}"
    );

    // a line that is not UTF-8 at all is a typed error too, and the
    // connection stays open
    client.writer.write_all(b"{\"cmd\":\"\xff\"}\n").unwrap();
    let reply = client.recv();
    assert_eq!(jstr(&reply, "error"), "bad_request", "{reply:?}");
    assert!(jstr(&reply, "detail").contains("UTF-8"), "{reply:?}");
    client.hello();

    client.send("{\"cmd\":\"shutdown\"}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn per_row_round_trip_time_does_not_grow_with_batch_size() {
    let dir = temp_dir("batchshape");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&["--model", a1.to_str().unwrap(), "--workers", "2"]);
    let data = pnr_kddsim::generate_train(1_024, 3);
    let mut client = Client::connect(&daemon.addr);
    client.hello();

    // median per-row round trip over lockstep requests of `batch` rows;
    // replies are parsed after the clock stops
    let mut per_row_ms = |batch: usize| {
        let mut times: Vec<f64> = (0..24)
            .map(|i| {
                let line = Client::score_line(&data, i, batch);
                let t = Instant::now();
                client.send(&line);
                let reply = client.recv_line();
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let reply = serde_json::parse(reply.trim()).unwrap();
                assert_eq!(ju64(&reply, "scored"), batch as u64, "{reply:?}");
                ms / batch as f64
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[times.len() / 2]
    };
    per_row_ms(64); // warm-up
    let (small, large) = (per_row_ms(64), per_row_ms(512));
    // a cost that grows faster than the batch (a quadratic parse, or a
    // reply stalled behind a delayed ACK) shows up as a large ratio
    assert!(
        large <= 2.0 * small,
        "per-row round trip: {large:.4} ms at batch 512 vs {small:.4} ms at batch 64"
    );

    client.send("{\"cmd\":\"shutdown\"}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_right_behind_in_flight_scores_loses_no_reply() {
    let dir = temp_dir("drainreplies");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let data = pnr_kddsim::generate_train(16, 3);
    // every row's `duration` is 40 KB of junk that its per-row error
    // echoes, so the 8 replies (~5 MB) outgrow the socket buffers
    let junk = format!("\"{}\"", "x".repeat(40_000));
    let rows: Vec<String> = (0..16)
        .map(|r| {
            let mut fields: Vec<String> = pnr_kddsim::row_fields(&data, r)
                .iter()
                .map(|f| format!("\"{f}\""))
                .collect();
            fields[3] = junk.clone();
            format!("[{}]", fields.join(","))
        })
        .collect();
    const N: usize = 8;
    for iteration in 0..40 {
        let daemon = Daemon::start(&["--model", a1.to_str().unwrap(), "--workers", "2"]);
        let mut client = Client::connect(&daemon.addr);
        client.hello();
        for i in 0..N {
            client.send(&format!(
                "{{\"cmd\":\"score\",\"id\":{i},\"rows\":[{}]}}",
                rows.join(",")
            ));
        }
        client.send("{\"cmd\":\"shutdown\"}");
        // every other iteration the client reads late, so the daemon
        // drains while its replies wait behind a full socket
        if iteration % 2 == 1 {
            std::thread::sleep(Duration::from_millis(100));
        }
        // the daemon closes the connection when it exits: read to EOF
        let (mut scored, mut shutdown) = (0, 0);
        let mut line = String::new();
        while client.reader.read_line(&mut line).unwrap() > 0 {
            assert!(line.ends_with('\n'), "iteration {iteration}: cut reply");
            let reply = serde_json::parse(line.trim()).unwrap();
            assert!(is_ok(&reply), "iteration {iteration}: {reply:?}");
            match jstr(&reply, "reply") {
                "score" => {
                    assert_eq!(ju64(&reply, "errors"), 16);
                    scored += 1;
                }
                "shutdown" => shutdown += 1,
                other => panic!("iteration {iteration}: reply {other}"),
            }
            line.clear();
        }
        assert_eq!(
            (scored, shutdown),
            (N, 1),
            "iteration {iteration}: replies lost at shutdown"
        );
        let (code, _) = daemon.wait();
        assert_eq!(code, Some(0));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fields_sent_as_numbers_bools_null_and_escapes_score_like_plain_strings() {
    let dir = temp_dir("fieldforms");
    let a1 = make_artifact(&dir, "a1.artifact", 7);
    let daemon = Daemon::start(&["--model", a1.to_str().unwrap(), "--workers", "1"]);
    let data = pnr_kddsim::generate_train(64, 3);
    let mut client = Client::connect(&daemon.addr);
    client.hello();

    // every row twice: as plain strings, and with the same values as JSON
    // numbers, bools, null and `\u`-escaped strings
    let escaped = |s: &str| {
        let units: String = s.chars().map(|c| format!("\\u{:04x}", c as u32)).collect();
        format!("\"{units}\"")
    };
    let (mut plain_rows, mut typed_rows) = (Vec::new(), Vec::new());
    for r in 0..data.n_rows() {
        let (mut plain, mut typed) = (Vec::new(), Vec::new());
        for (i, field) in pnr_kddsim::row_fields(&data, r).iter().enumerate() {
            let numeric = data.schema().attr(i).is_numeric();
            let (p, t) = match (r % 4, i) {
                // a NonFinite unknown, and two unseen categories
                (1, 4) => ("\"inf\"".to_string(), "1e400".to_string()),
                (1, 1) => ("\"\"".to_string(), "null".to_string()),
                (1, 2) => ("\"true\"".to_string(), "true".to_string()),
                // an empty numeric field quarantines the row
                (2, 5) => ("\"\"".to_string(), "null".to_string()),
                // numbers render through Rust's formatting
                (3, 3) => ("\"-4\"".to_string(), "-4".to_string()),
                (3, 4) => ("\"2.5\"".to_string(), "2.50".to_string()),
                _ if numeric => (format!("\"{field}\""), field.clone()),
                _ => (format!("\"{field}\""), escaped(field)),
            };
            plain.push(p);
            typed.push(t);
        }
        plain_rows.push(format!("[{}]", plain.join(",")));
        typed_rows.push(format!("[{}]", typed.join(",")));
    }
    let counters = [
        "rows_scored",
        "rows_quarantined",
        "unseen_category_hits",
        "nan_numeric_hits",
        "decision_positives",
    ];
    let mut send = |rows: &[String]| {
        let before = client.request("{\"cmd\":\"stats\"}");
        let reply = client.request(&format!(
            "{{\"cmd\":\"score\",\"id\":\"x\",\"rows\":[{}]}}",
            rows.join(",")
        ));
        assert!(is_ok(&reply), "{reply:?}");
        let after = client.request("{\"cmd\":\"stats\"}");
        let deltas: Vec<u64> = counters
            .iter()
            .map(|c| counter(&after, c) - counter(&before, c))
            .collect();
        (reply, deltas)
    };
    let (plain, plain_deltas) = send(&plain_rows);
    let (typed, typed_deltas) = send(&typed_rows);
    assert_eq!(typed.get("results"), plain.get("results"));
    assert_eq!(ju64(&typed, "scored"), ju64(&plain, "scored"));
    assert_eq!(ju64(&typed, "errors"), ju64(&plain, "errors"));
    assert_eq!(typed_deltas, plain_deltas, "{counters:?}");
    // the batch really holds quarantines and both kinds of unknown
    assert_eq!(ju64(&plain, "errors"), 16, "{plain:?}");
    assert!(
        plain_deltas[2] >= 32 && plain_deltas[3] >= 16,
        "{plain_deltas:?}"
    );

    client.send("{\"cmd\":\"shutdown\"}");
    let (code, _) = daemon.wait();
    assert_eq!(code, Some(0));
    std::fs::remove_dir_all(&dir).ok();
}
