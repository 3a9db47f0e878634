//! The closed-loop wire client: an in-process `sero-server` with the
//! default configuration, and one blocking connection per client stream.
//!
//! Each connection keeps exactly one request in flight, so a slow server
//! receives less load (a closed loop). Latency is the client-side round
//! trip from the first byte written to the last byte of the response
//! frame read.

use crate::gen::{content, Expect, Kind, Op};
use crate::report::peak_rss_mb;
use sero_fs::concurrent::ConcurrentFs;
use sero_fs::SeroFs;
use sero_proto::frame::{read_frame, FRAME_OVERHEAD_BYTES};
use sero_proto::{ErrorCode, FrameKind, Response, WireVerdict};
use sero_server::{SeroServer, ServerConfig, ServerHandle};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Responses kept per connection for the traced proto timings.
const KEPT_RESPONSES: usize = 256;
/// `VmHWM` is read once this many requests have completed (or at the
/// end of a shorter drive), so that a faster run, which ingests more,
/// does not read as using more memory.
pub const RSS_AFTER_REQUESTS: u64 = 3000;

/// Starts the daemon the way `sero-server` deploys it: the default
/// [`ServerConfig`] serving a shared [`ConcurrentFs`].
pub fn start_server(fs: &ConcurrentFs) -> std::io::Result<ServerHandle> {
    SeroServer::bind_shared("127.0.0.1:0", fs.clone(), ServerConfig::default())?.spawn()
}

/// Client-side spans of one traced request, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// `write_all` of the request frame.
    pub send_ns: u64,
    /// From the request written to the response frame read.
    pub wait_ns: u64,
    /// `Response::decode` of the payload.
    pub decode_ns: u64,
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Request kind.
    pub kind: Kind,
    /// Round trip, first byte written to last byte read.
    pub rtt_ns: u64,
    /// Client spans, when the request ran in the traced phase.
    pub spans: Option<Spans>,
}

/// Everything one drive over all connections produced.
#[derive(Debug, Default)]
pub struct DriveResult {
    /// Completed requests.
    pub samples: Vec<Sample>,
    /// Requests whose answer failed its check; each is also in `wrong`.
    pub failed: u64,
    /// Of those, the ones answered with an unexpected error response.
    pub errors: u64,
    /// Correctness violations (unexpected errors, wrong bytes, missed
    /// tamper, wrong shape, broken connections).
    pub wrong: Vec<String>,
    /// Request plus response frame bytes on the wire.
    pub bytes: u64,
    /// Host time from the first connection starting to the last one
    /// finishing.
    pub elapsed: Duration,
    /// A sample of decoded responses (traced runs only).
    pub responses: Vec<Response>,
    /// How many ops of each stream were sent (the replay prefix; more
    /// than the stream's length when it repeated).
    pub sent: Vec<usize>,
    /// `VmHWM` (MB) when [`RSS_AFTER_REQUESTS`] requests had completed,
    /// or at the end of a shorter drive.
    pub peak_rss_mb: f64,
}

/// When a drive stops and when its traced phase starts.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Stop sending new requests after this long (or when a stream ends).
    pub run_for: Duration,
    /// Record client spans for requests sent after this offset.
    pub trace_after: Option<Duration>,
    /// Start a stream again when it ends (streams of reads only).
    pub repeat: bool,
}

/// Plants the archive-ingest tamper: one magnetic write over the first
/// data block of `name`'s heated line, behind the protocol's back.
pub fn tamper_file(fs: &mut SeroFs, name: &str) -> Result<(), String> {
    let line = fs
        .stat(name)
        .map_err(|e| format!("stat {name}: {e}"))?
        .heated
        .ok_or_else(|| format!("{name} is not heated"))?;
    let pba = line.start() + 1;
    let probe = fs.device_mut().probe_mut();
    let mut data = probe.mrs(pba).map_err(|e| format!("mrs {pba}: {e}"))?.data;
    data[0] ^= 0xFF;
    probe
        .mws(pba, &data)
        .map_err(|e| format!("mws {pba}: {e}"))?;
    Ok(())
}

/// Checks `resp` against `expect`; `Err` says what was wrong. An
/// unexpected error response is wrong too.
pub fn check(seed: u64, expect: &Expect, resp: &Response) -> Result<(), String> {
    let ok = match (expect, resp) {
        (Expect::Tamper, Response::Error(e)) if e.code == ErrorCode::TamperDetected => true,
        (Expect::Tamper, other) => return Err(format!("planted tamper not detected: {other:?}")),
        (_, Response::Error(e)) => return Err(format!("unexpected error answer: {e:?}")),
        (Expect::Data { id, len }, Response::Data { bytes }) => *bytes == content(seed, *id, *len),
        (Expect::Created, Response::Created { .. })
        | (Expect::Written, Response::Written)
        | (Expect::Heated, Response::Heated { .. })
        | (Expect::Intact, Response::Verified(WireVerdict::Intact { .. })) => true,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("expected {expect:?}, got {}", short(resp)))
    }
}

fn short(resp: &Response) -> String {
    match resp {
        Response::Data { bytes } => format!("Data({} bytes, mismatched)", bytes.len()),
        other => format!("{other:?}"),
    }
}

/// Drives `streams` (one per connection) against the daemon at `addr`,
/// closed loop, until each stream ends or `plan.run_for` elapses.
pub fn drive(
    addr: SocketAddr,
    fs: &ConcurrentFs,
    streams: &[Vec<Op>],
    seed: u64,
    plan: Plan,
) -> std::io::Result<DriveResult> {
    let conns: Vec<TcpStream> = streams
        .iter()
        .map(|_| TcpStream::connect(addr))
        .collect::<std::io::Result<_>>()?;
    let barrier = Barrier::new(streams.len());
    let completed = AtomicU64::new(0);
    let peak = OnceLock::new();
    let parts: Vec<(DriveResult, Instant, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .zip(conns)
            .map(|(ops, conn)| {
                let (barrier, completed, peak) = (&barrier, &completed, &peak);
                s.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let on_done = || {
                        if completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_REQUESTS {
                            let _ = peak.set(peak_rss_mb());
                        }
                    };
                    let part = drive_one(conn, fs, ops, seed, start, plan, on_done);
                    (part, start, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let start = parts.iter().map(|p| p.1).min().expect("one connection");
    let end = parts.iter().map(|p| p.2).max().expect("one connection");
    let mut out = DriveResult {
        elapsed: end - start,
        peak_rss_mb: peak.get().copied().unwrap_or_else(peak_rss_mb),
        ..DriveResult::default()
    };
    for (part, _, _) in parts {
        out.samples.extend(part.samples);
        out.failed += part.failed;
        out.errors += part.errors;
        out.wrong.extend(part.wrong);
        out.bytes += part.bytes;
        out.responses.extend(part.responses);
        out.sent.extend(part.sent);
    }
    Ok(out)
}

fn drive_one(
    mut conn: TcpStream,
    fs: &ConcurrentFs,
    ops: &[Op],
    seed: u64,
    start: Instant,
    plan: Plan,
    on_done: impl Fn(),
) -> DriveResult {
    let mut out = DriveResult {
        samples: Vec::with_capacity(ops.len()),
        ..DriveResult::default()
    };
    let keep = plan.trace_after.is_some();
    let mut sent = 0;
    let rounds = if plan.repeat { usize::MAX } else { 1 };
    for op in std::iter::repeat_n(ops, rounds).flatten() {
        let since = start.elapsed();
        if since >= plan.run_for {
            break;
        }
        let traced = plan.trace_after.is_some_and(|t| since >= t);
        if let Some(name) = &op.tamper_before {
            if let Err(e) = fs.with_fs(|fs| tamper_file(fs, name)) {
                out.wrong.push(format!("planting tamper: {e}"));
                break;
            }
        }
        sent += 1;
        let t0 = Instant::now();
        if let Err(e) = conn.write_all(&op.frame) {
            out.wrong.push(format!("send: {e}"));
            break;
        }
        let t1 = Instant::now();
        let payload = match read_frame(&mut conn) {
            Ok(Some((FrameKind::Response, payload))) => payload,
            other => {
                out.wrong.push(format!("receive: {other:?}"));
                break;
            }
        };
        let t2 = Instant::now();
        let resp = match Response::decode(&payload) {
            Ok(resp) => resp,
            Err(e) => {
                out.wrong.push(format!("decode: {e}"));
                break;
            }
        };
        let t3 = Instant::now();
        out.bytes += (op.frame.len() + payload.len() + FRAME_OVERHEAD_BYTES) as u64;
        if let Err(e) = check(seed, &op.expect, &resp) {
            out.failed += 1;
            out.errors += matches!(resp, Response::Error(_)) as u64;
            out.wrong.push(format!("{} #{sent}: {e}", op.kind.name()));
        }
        out.samples.push(Sample {
            kind: op.kind,
            rtt_ns: (t2 - t0).as_nanos() as u64,
            spans: traced.then(|| Spans {
                send_ns: (t1 - t0).as_nanos() as u64,
                wait_ns: (t2 - t1).as_nanos() as u64,
                decode_ns: (t3 - t2).as_nanos() as u64,
            }),
        });
        on_done();
        if keep && out.responses.len() < KEPT_RESPONSES {
            out.responses.push(resp);
        }
    }
    out.sent.push(sent);
    out
}
