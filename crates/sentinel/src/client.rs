//! NDJSON-over-TCP control client for the daemon.
//!
//! One lockstep request/reply per call — the sentinel is a control
//! plane, not a load generator, so simplicity beats pipelining. Connects
//! (and reconnects) under the shared [`pnr_core::retry`] bounded backoff
//! with seeded jitter, so a daemon that is still binding its port or
//! briefly restarting does not kill the monitor.

use crate::stats::{parse_stats, StatsSnapshot};
use pnr_core::ndjson::write_line;
use pnr_core::retry::{self, Backoff, RetryError};
use serde::Content;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// Reply to a publish (`swap`) attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PublishOutcome {
    /// The daemon swapped to the candidate.
    Swapped {
        /// New active epoch.
        epoch: u64,
        /// Candidate's envelope checksum as the daemon computed it.
        checksum: String,
    },
    /// The daemon rejected the candidate; the old model keeps serving.
    Rejected {
        /// Typed error kind (`swap_failed`, `lineage_mismatch`, ...).
        kind: String,
        /// Human-readable detail.
        detail: String,
    },
}

/// A connected control client.
#[derive(Debug)]
pub struct DaemonClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl DaemonClient {
    /// Connects with bounded, seeded-jitter retry: every refused or
    /// timed-out attempt backs off per `backoff` until exhaustion.
    pub fn connect(addr: &str, backoff: &Backoff) -> Result<DaemonClient, String> {
        let stream = retry::run(
            backoff,
            |_e: &String| true,
            |_attempt| TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}")),
        )
        .map_err(|e| match e {
            RetryError::Fatal(msg) => msg,
            RetryError::Exhausted { attempts, last } => {
                format!("gave up connecting after {attempts} attempt(s): {last}")
            }
        })?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("cannot set read timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?;
        Ok(DaemonClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one line, reads one reply line.
    fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        write_line(&mut self.writer, line).map_err(|e| format!("write failed: {e}"))?;
        let mut buf = String::new();
        loop {
            match self.reader.read_line(&mut buf) {
                Ok(0) => return Err("daemon closed the connection".to_string()),
                Ok(_) => {
                    let reply = buf.trim().to_string();
                    if reply.is_empty() {
                        buf.clear();
                        continue;
                    }
                    return Ok(reply);
                }
                Err(e) => return Err(format!("read failed: {e}")),
            }
        }
    }

    /// Fetches and parses a stats snapshot.
    pub fn stats(&mut self) -> Result<StatsSnapshot, String> {
        let reply = self.roundtrip("{\"cmd\":\"stats\"}")?;
        parse_stats(&reply)
    }

    /// Asks the daemon to hot-swap to the artifact at `path`. A rejected
    /// swap is an `Ok(Rejected {..})` — the request worked, the daemon
    /// said no — while transport failures are `Err`.
    pub fn swap(&mut self, path: &Path) -> Result<PublishOutcome, String> {
        let line = crate::render_cmd(vec![
            ("cmd", Content::Str("swap".to_string())),
            ("path", Content::Str(path.display().to_string())),
        ]);
        let reply = self.roundtrip(&line)?;
        let v = serde_json::parse(&reply).map_err(|e| format!("bad swap reply: {e}"))?;
        if v.get("ok") == Some(&Content::Bool(true)) {
            let epoch = match v.get("epoch") {
                Some(Content::U64(n)) => *n,
                _ => return Err(format!("swap reply lacks `epoch`: {reply}")),
            };
            let checksum = match v.get("checksum") {
                Some(Content::Str(s)) => s.clone(),
                _ => return Err(format!("swap reply lacks `checksum`: {reply}")),
            };
            Ok(PublishOutcome::Swapped { epoch, checksum })
        } else {
            let field = |k: &str| match v.get(k) {
                Some(Content::Str(s)) => s.clone(),
                _ => String::new(),
            };
            Ok(PublishOutcome::Rejected {
                kind: field("error"),
                detail: field("detail"),
            })
        }
    }

    /// Sets or clears the daemon's degraded mode.
    pub fn degrade(&mut self, on: bool, reason: &str) -> Result<(), String> {
        let line = crate::render_cmd(vec![
            ("cmd", Content::Str("degrade".to_string())),
            ("on", Content::Bool(on)),
            ("reason", Content::Str(reason.to_string())),
        ]);
        let reply = self.roundtrip(&line)?;
        let v = serde_json::parse(&reply).map_err(|e| format!("bad degrade reply: {e}"))?;
        if v.get("ok") == Some(&Content::Bool(true)) {
            Ok(())
        } else {
            Err(format!("degrade rejected: {reply}"))
        }
    }

    /// Asks the daemon to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.roundtrip("{\"cmd\":\"shutdown\"}").map(|_| ())
    }
}
