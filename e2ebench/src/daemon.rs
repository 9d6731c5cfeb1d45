//! The daemon under test as a child process, its `/proc` figures, and a
//! line-oriented client connection.
//!
//! The daemon is this benchmark's own executable re-entered in daemon
//! mode (see `main`), which calls `pnr_serve::run` exactly as the
//! `pnr-serve` binary does, so the daemon is built from the checkout's
//! source along with the benchmark and runs in its own process, whose
//! CPU time and peak memory `/proc` reports separately.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads the daemon runs with (the host has 2 cores).
pub const WORKERS: usize = 2;

/// Linux reports process CPU time in clock ticks of 1/100 s.
const TICKS_PER_SEC: f64 = 100.0;

/// How long a reply may take before the run is declared failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The daemon flags, recorded with every result.
pub fn flags() -> String {
    format!("--workers {WORKERS} (queue, shed, deadline, engine and policies at their defaults)")
}

/// Runs the daemon in this process until it drains. Called from `main`
/// when the executable is started in daemon mode.
pub fn serve(model: &Path, addr_file: &Path) -> Result<i32, String> {
    let config = pnr_serve::DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        addr_file: Some(addr_file.to_path_buf()),
        ..pnr_serve::DaemonConfig::default()
    };
    pnr_serve::run(model, config)
}

/// A running daemon child. Dropping it kills the process and waits for
/// it, so no error path leaves a daemon behind.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Starts a daemon serving `model` and waits until it listens.
    pub fn spawn(model: &Path, work: &Path, tag: &str) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let addr_file = work.join(format!("{tag}.addr"));
        let log = std::fs::File::create(work.join(format!("{tag}.log")))
            .map_err(|e| format!("daemon log: {e}"))?;
        let child = Command::new(exe)
            .arg("--daemon")
            .arg(model)
            .arg(&addr_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("cannot start daemon: {e}"))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let give_up = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if !text.trim().is_empty() {
                    daemon.addr = text.trim().to_string();
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > give_up {
                return Err("daemon never published its address".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU time of the whole daemon process, in ms.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line
        let rest = text
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or("malformed stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64)
                .ok_or_else(|| format!("stat field {i} missing"))
        };
        Ok((tick(11)? + tick(12)?) / TICKS_PER_SEC * 1000.0)
    }

    /// Peak resident set of the daemon process, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// Asks the daemon to drain and waits for it to exit with status 0.
    pub fn stop(mut self) -> Result<(), String> {
        let mut conn = Conn::connect(&self.addr)?;
        conn.send("{\"cmd\":\"shutdown\"}")?;
        // The reply may never come: once drained the daemon exits without
        // waiting for its connection threads, so the writer thread can be
        // cut off before it sends the reply (see NOTES.md). The exit
        // status is what shows a graceful drain.
        let _ = conn.recv();
        drop(conn);
        let give_up = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < give_up => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not drain".to_string()),
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    let kb = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line")?;
    Ok(kb / 1024.0)
}

/// One NDJSON connection to the daemon.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            out: Vec::new(),
        })
    }

    /// Writes one request line in a single write.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("write: {e}"))
    }

    /// Reads one reply line (without its newline).
    pub fn recv(&mut self) -> Result<String, String> {
        let mut buf = String::new();
        match self.reader.read_line(&mut buf) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => {
                buf.truncate(buf.trim_end().len());
                Ok(buf)
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    pub fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }
}

/// A fresh work directory under the checkout for one run's files.
pub fn work_dir(workload: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}
