//! `ft watch` — tail the live trace-frame stream of a running fleet.
//!
//! Speaks the `WATCH` side of the metrics listener: one request line, then
//! a sequence of length-prefixed [`ft_fl::TraceEvent`] frames until the run
//! ends. Decoding goes through the shared [`ft_fl::read_trace_frame`]
//! reader, so a truncated or corrupt stream surfaces as a typed error and
//! an exit code — never a panic.

use crate::args::{die, Args};
use ft_fl::{read_trace_frame, TraceEvent, TraceStreamError};
use std::io::Write;
use std::net::TcpStream;

/// The options `ft watch` accepts.
pub const FLAGS: &[&str] = &["--limit"];

pub fn cmd_watch(argv: &[String]) -> i32 {
    let a = Args::new(argv);
    let positionals = a.positionals();
    let [addr] = positionals.as_slice() else {
        die("ft watch requires exactly one <addr>, e.g. 127.0.0.1:9090");
    };
    let limit: Option<usize> = a.get_parse("--limit");
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ft: connect {addr}: {e}");
            return 1;
        }
    };
    if let Err(e) = stream.write_all(b"WATCH\r\n") {
        eprintln!("ft: handshake with {addr}: {e}");
        return 1;
    }
    watch_stream(&mut stream, limit, &mut std::io::stdout())
}

/// Reads frames until EOF, error, or `limit`; split from the socket setup
/// so tests can drive it with an in-memory reader.
pub fn watch_stream<R: std::io::Read, W: Write>(
    reader: &mut R,
    limit: Option<usize>,
    out: &mut W,
) -> i32 {
    let mut seen = 0usize;
    loop {
        if limit.is_some_and(|n| seen >= n) {
            return 0;
        }
        match read_trace_frame(reader) {
            // Clean EOF at a frame boundary: the run finished.
            Ok(None) => return 0,
            Ok(Some(ev)) => {
                seen += 1;
                let _ = writeln!(out, "{}", format_event(&ev));
            }
            Err(TraceStreamError::Io(e)) => {
                eprintln!("ft: trace stream i/o error: {e}");
                return 1;
            }
            Err(TraceStreamError::Decode(e)) => {
                eprintln!("ft: trace stream corrupt: {e}");
                return 1;
            }
        }
    }
}

/// One RTT-style line per device-round arrival.
pub fn format_event(ev: &TraceEvent) -> String {
    format!(
        "round {:>4}  device {:>4}  {:>8.1}s -> {:>8.1}s  {}  stale {}",
        ev.round,
        ev.device,
        ev.start_secs,
        ev.finish_secs,
        if ev.applied { "applied" } else { "dropped" },
        ev.staleness,
    )
}
