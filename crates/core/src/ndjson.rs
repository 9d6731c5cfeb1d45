//! NDJSON line framing shared by the daemon, its clients and the load
//! generator.
//!
//! A line and its terminating `'\n'` go out in one write. A newline
//! written on its own becomes a 1-byte TCP segment, and Nagle's algorithm
//! holds it until the peer's delayed ACK (~40 ms on Linux) — a stall the
//! reader pays on every reply larger than the writer's buffer.

use std::io::{self, Write};

/// Writes `line` and its `'\n'` in a single `write_all`.
pub fn write_line(w: &mut impl Write, line: &str) -> io::Result<()> {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    w.write_all(&framed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records each `write` call separately.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_sends_the_line_and_its_newline_in_one_write() {
        let mut w = Writes::default();
        let line = "x".repeat(40_000);
        write_line(&mut w, &line).unwrap();
        write_line(&mut w, "{}").unwrap();
        assert_eq!(w.0.len(), 2);
        assert_eq!(w.0[0], format!("{line}\n").into_bytes());
        assert_eq!(w.0[1], b"{}\n");
    }
}
