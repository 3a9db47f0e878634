//! The three workloads: set-up, the timed phase, and the end-to-end
//! metrics.
//!
//! * `serve-read` — reads only: reactor, wire codec, fs read path, `mrs`,
//!   the read channel and RS decode. No hashing, heating, allocation or
//!   cleaning.
//! * `archive-ingest` — the write-beside-read mix: create, write, read,
//!   heat and verify, with one tamper planted mid-run.
//! * `scrub-audit` — repeated full scrub passes over 256 heated lines,
//!   one of them tampered: the paper's detection-latency path, with no
//!   wire and no fs write path.

use crate::gen::{self, content, content_id, file_name, Kind, Op, AUDIT_BYTES, CONNS, SMALL_BYTES};
use crate::layers::{self, LayerInput};
use crate::report::{median, peak_rss_mb, quantile, ratio, rss_mb, Metrics};
use crate::wire::{self, tamper_file, DriveResult, Plan};
use sero_client::SeroClient;
use sero_core::admission::AdmissionStats;
use sero_core::device::SeroDevice;
use sero_core::line::Line;
use sero_core::scrub::ScrubConfig;
use sero_fs::concurrent::ConcurrentFs;
use sero_fs::fs::{FsConfig, FsStats, SeroFs};
use sero_fs::prelude::WriteClass;
use sero_probe::timing::OpCounters;
use sero_proto::frame::decode_frame;
use sero_proto::Request;
use std::time::{Duration, Instant};

/// Pings timed on the idle daemon for `server.ping_p50_us`.
const PINGS: usize = 200;
/// `serve-read` requests generated per connection. Reads change nothing,
/// so a connection that reaches the end of its stream starts it again:
/// the harness's memory does not grow with the run's length or speed.
const READ_STREAM: usize = 16_384;
/// `archive-ingest` cycles generated per connection. Every cycle stores
/// a heated 16-block line, so this caps what a run can ingest:
/// 2 × 2000 lines fill half of the 64 MiB device and leave the hot
/// files and the cleaner room (one connection replaying all of them
/// gets no error; `NoSpace` first shows near 2 × 2940). A run that
/// serves them all, about twice today's rate for 30 s, ends early.
const INGEST_CYCLES: usize = 2000;
/// `scrub-audit` reads `VmHWM` after this many passes, as the wire
/// workloads do after [`wire::RSS_AFTER_REQUESTS`] requests.
const RSS_AFTER_PASSES: usize = 2;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uniform-random wire reads of preloaded files.
    ServeRead,
    /// Create / write / read / heat / verify over the wire.
    ArchiveIngest,
    /// Full scrub passes over heated lines.
    ScrubAudit,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeRead,
        Workload::ArchiveIngest,
        Workload::ScrubAudit,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRead => "serve-read",
            Workload::ArchiveIngest => "archive-ingest",
            Workload::ScrubAudit => "scrub-audit",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::FULL`] is the benchmark; [`Scale::TINY`] keeps
/// the determinism tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Device size in 512-byte blocks.
    pub device_blocks: u64,
    /// `serve-read` preloaded files.
    pub read_files: u64,
    /// `archive-ingest` preloaded hot files.
    pub hot_files: u64,
    /// `scrub-audit` heated files.
    pub audit_files: u64,
    /// Least number of set-ups in each of a run's two set-up windows;
    /// `setup_s` is the median of all of them.
    pub setups: usize,
    /// Least host seconds each set-up window lasts.
    pub setup_secs: f64,
}

impl Scale {
    /// The benchmark's sizes: a 64 MiB device, as `sero-server` formats it.
    pub const FULL: Scale = Scale {
        device_blocks: 131_072,
        read_files: 4000,
        hot_files: 2000,
        audit_files: 256,
        setups: 2,
        setup_secs: 2.5,
    };

    /// Tiny sizes for tests.
    pub const TINY: Scale = Scale {
        device_blocks: 8192,
        read_files: 24,
        hot_files: 16,
        audit_files: 6,
        setups: 1,
        setup_secs: 0.0,
    };
}

/// How long the timed phase lasts.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Host seconds (the benchmark).
    Seconds(f64),
    /// A fixed count: requests per connection, or scrub passes.
    Ops(usize),
}

/// The request streams of `w`, one per connection. The length does not
/// depend on `--seconds`: see [`READ_STREAM`] and [`INGEST_CYCLES`].
pub fn streams(w: Workload, seed: u64, scale: &Scale, budget: Budget) -> Vec<Vec<Op>> {
    (0..CONNS)
        .map(|c| match w {
            Workload::ServeRead => {
                let n = match budget {
                    Budget::Ops(n) => n,
                    Budget::Seconds(_) => READ_STREAM,
                };
                gen::serve_read_stream(seed, c, scale.read_files, n)
            }
            Workload::ArchiveIngest => {
                // An op budget counts requests; a cycle has three to five.
                let cycles = match budget {
                    Budget::Ops(ops) => ops.div_ceil(3),
                    Budget::Seconds(_) => INGEST_CYCLES,
                };
                let mut ops = gen::ingest_stream(seed, c, scale.hot_files, cycles);
                if let Budget::Ops(max) = budget {
                    ops.truncate(max);
                }
                ops
            }
            Workload::ScrubAudit => Vec::new(),
        })
        .collect()
}

/// A freshly set-up file system, and the line tampered during set-up.
pub struct Prepared {
    /// The file system, as the timed phase starts.
    pub fs: SeroFs,
    /// `scrub-audit`'s planted line.
    pub planted: Option<Line>,
}

/// Formats the device and loads `w`'s files (and, for `scrub-audit`,
/// heats them and plants the tamper).
pub fn setup(w: Workload, seed: u64, scale: &Scale) -> Result<Prepared, String> {
    let dev = SeroDevice::with_blocks(scale.device_blocks);
    let mut fs = SeroFs::format(dev, FsConfig::default()).map_err(|e| format!("format: {e}"))?;
    let mut load = |prefix: &str, files: u64, len: &dyn Fn(u64) -> usize, class: WriteClass| {
        for i in 0..files {
            let name = file_name(prefix, i);
            fs.create(&name, &content(seed, content_id(i, 0), len(i)), class)
                .map_err(|e| format!("create {name}: {e}"))?;
        }
        Ok::<(), String>(())
    };
    let small = |_| SMALL_BYTES;
    let planted = match w {
        Workload::ServeRead => {
            load("r", scale.read_files, &small, WriteClass::Normal)?;
            None
        }
        Workload::ArchiveIngest => {
            load("h", scale.hot_files, &small, WriteClass::Normal)?;
            None
        }
        Workload::ScrubAudit => {
            let audit = |_| AUDIT_BYTES;
            load("s", scale.audit_files, &audit, WriteClass::Archival)?;
            for i in 0..scale.audit_files {
                let name = file_name("s", i);
                fs.heat(&name, format!("audit {i}").into_bytes(), i)
                    .map_err(|e| format!("heat {name}: {e}"))?;
            }
            let victim = file_name("s", gen::Rng::new(seed, 0xA0D1).below(scale.audit_files));
            tamper_file(&mut fs, &victim)?;
            fs.stat(&victim).map_err(|e| e.to_string())?.heated
        }
    };
    Ok(Prepared { fs, planted })
}

/// Device-side counters read around the timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Simulated device nanoseconds.
    pub device_ns: u128,
    /// Probe primitive counts.
    pub probe: OpCounters,
    /// File-system counters.
    pub fs: FsStats,
    /// Admission-scheduler counters (wire workloads).
    pub admission: AdmissionStats,
}

impl Counters {
    fn of(fs: &SeroFs) -> Counters {
        Counters {
            device_ns: fs.device().probe().clock().elapsed_ns(),
            probe: *fs.device().probe().counters(),
            fs: fs.stats(),
            admission: AdmissionStats::default(),
        }
    }

    fn of_shared(cfs: &ConcurrentFs) -> Counters {
        Counters {
            admission: cfs.admission_stats(),
            ..cfs.with_fs(|fs| Counters::of(fs))
        }
    }
}

/// What the timed phase did: samples plus counter deltas.
#[derive(Debug, Default)]
pub struct Timed {
    /// Completed units of work (requests, or lines verified).
    pub ops: u64,
    /// Answers that failed their check (also in `wrong`).
    pub failed: u64,
    /// Correctness violations.
    pub wrong: Vec<String>,
    /// Host time of the timed phase.
    pub elapsed: Duration,
    /// Latency samples (µs) of the workload's unit of work, by kind;
    /// `scrub-audit` records passes under `Kind::Verify`.
    pub latencies: Vec<(Kind, f64)>,
    /// Counters before and after.
    pub before: Counters,
    /// Counters after the timed phase.
    pub after: Counters,
    /// Wire drive details (wire workloads).
    pub drive: Option<DriveResult>,
    /// Scrub pass times, untraced then traced phase (µs).
    pub passes: Vec<(bool, f64)>,
    /// `VmHWM` (MB) once [`wire::RSS_AFTER_REQUESTS`] requests or
    /// [`RSS_AFTER_PASSES`] passes completed, or at the end.
    pub peak_rss_mb: f64,
}

/// One run: a window of set-ups, the timed phase, a second window of
/// set-ups, and the metrics. With `trace` the timed phase splits into an
/// untraced and a traced half and the per-layer metrics follow.
pub struct RunOutput {
    /// Units of work attempted.
    pub attempted: u64,
    /// Answers that failed their check.
    pub failed: u64,
    /// Correctness violations; empty on a correct run.
    pub wrong: Vec<String>,
    /// End-to-end metrics, detail included.
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs).
    pub layers: Metrics,
    /// Human-readable breakdown (traced runs).
    pub breakdown: String,
}

/// Runs workload `w`.
pub fn run(
    w: Workload,
    seed: u64,
    scale: &Scale,
    budget: Budget,
    trace: bool,
) -> Result<RunOutput, String> {
    let streams = streams(w, seed, scale, budget);
    // The harness's own share of the process's memory: the binary, the
    // allocator and the generated streams.
    let harness_rss_mb = rss_mb();
    // Before the timed set-ups, so its device copy is gone by then.
    let replay = match w {
        Workload::ScrubAudit => None,
        _ => Some(device_replay(w, seed, scale, &streams)?),
    };
    let mut setup_s = Vec::new();
    let Prepared { fs, planted } = timed_setups(w, seed, scale, &mut setup_s)?;
    let snapshot = trace.then(|| fs.clone());
    let (timed, post, ping_p50_us) = match w {
        Workload::ScrubAudit => {
            let mut fs = fs;
            let timed = scrub_phase(&mut fs, planted, scale, budget, trace)?;
            let cfs = ConcurrentFs::new(fs);
            let ping = trace.then(|| idle_ping_p50_us(&cfs)).transpose()?;
            let fs = cfs.try_into_fs().map_err(|_| "fs still shared")?;
            (timed, fs, ping)
        }
        _ => {
            let cfs = ConcurrentFs::new(fs);
            let server = wire::start_server(&cfs).map_err(|e| format!("server: {e}"))?;
            let timed = wire_phase(&cfs, server.addr(), &streams, seed, budget, trace);
            let ping = trace.then(|| ping_p50_us(server.addr()));
            server.shutdown();
            let timed = timed?;
            let ping = ping.transpose()?;
            let fs = cfs.try_into_fs().map_err(|_| "fs still shared")?;
            (timed, fs, ping)
        }
    };
    // Host speed drifts over seconds, so set-up is timed again after the
    // timed phase, and `setup_s` is the median of both windows.
    drop(timed_setups(w, seed, scale, &mut setup_s)?);
    let mut e2e = end_to_end(w, &timed, median(&setup_s), replay.as_ref());
    e2e.put("peak_rss_mb", timed.peak_rss_mb, "MB");
    e2e.put("harness_rss_mb", harness_rss_mb, "MB");
    e2e.put("server_rss_mb", timed.peak_rss_mb - harness_rss_mb, "MB");
    let (layers, breakdown) = match (trace, snapshot) {
        (true, Some(snapshot)) => {
            let input = LayerInput {
                workload: w,
                seed,
                snapshot: &snapshot,
                post: &post,
                streams: &streams,
                timed: &timed,
                replay: replay.as_ref(),
                ping_p50_us: ping_p50_us.unwrap_or(0.0),
            };
            layers::measure(&input)
        }
        _ => (Metrics::default(), String::new()),
    };
    Ok(RunOutput {
        attempted: timed.ops + timed.failed,
        failed: timed.failed,
        wrong: timed.wrong,
        e2e,
        layers,
        breakdown,
    })
}

/// Sets up `w` at least `scale.setups` times and for at least
/// `scale.setup_secs`, appending each set-up's host seconds to `times`;
/// returns the last set-up.
fn timed_setups(
    w: Workload,
    seed: u64,
    scale: &Scale,
    times: &mut Vec<f64>,
) -> Result<Prepared, String> {
    let window = Instant::now();
    let mut done = 0;
    let mut prepared = None;
    while done < scale.setups.max(1) || window.elapsed().as_secs_f64() < scale.setup_secs {
        // Free the previous copy first, so memory holds one device.
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(setup(w, seed, scale)?);
        times.push(t.elapsed().as_secs_f64());
        done += 1;
    }
    Ok(prepared.expect("at least one set-up"))
}

fn wire_phase(
    cfs: &ConcurrentFs,
    addr: std::net::SocketAddr,
    streams: &[Vec<Op>],
    seed: u64,
    budget: Budget,
    trace: bool,
) -> Result<Timed, String> {
    let run_for = match budget {
        Budget::Seconds(s) => Duration::from_secs_f64(s),
        Budget::Ops(_) => Duration::from_secs(3600),
    };
    let plan = Plan {
        run_for,
        trace_after: trace.then(|| run_for / 2),
        // Reads change nothing, so a read stream may start again; an op
        // budget ends with its stream.
        repeat: matches!(budget, Budget::Seconds(_))
            && streams.iter().flatten().all(|op| op.kind == Kind::Read),
    };
    let before = Counters::of_shared(cfs);
    let drive = wire::drive(addr, cfs, streams, seed, plan).map_err(|e| format!("drive: {e}"))?;
    let after = Counters::of_shared(cfs);
    Ok(Timed {
        ops: drive.samples.len() as u64 - drive.failed,
        failed: drive.failed,
        peak_rss_mb: drive.peak_rss_mb,
        wrong: drive.wrong.clone(),
        elapsed: drive.elapsed,
        latencies: drive
            .samples
            .iter()
            .map(|s| (s.kind, s.rtt_ns as f64 / 1e3))
            .collect(),
        before,
        after,
        drive: Some(drive),
        passes: Vec::new(),
    })
}

fn scrub_phase(
    fs: &mut SeroFs,
    planted: Option<Line>,
    scale: &Scale,
    budget: Budget,
    trace: bool,
) -> Result<Timed, String> {
    let before = Counters::of(fs);
    let mut timed = Timed {
        before,
        ..Timed::default()
    };
    let start = Instant::now();
    let config = ScrubConfig::default();
    loop {
        let since = start.elapsed();
        let done = match budget {
            Budget::Seconds(s) => since.as_secs_f64() >= s && timed.passes.len() >= 2,
            Budget::Ops(n) => timed.passes.len() >= n,
        };
        if done {
            break;
        }
        let traced = match budget {
            Budget::Seconds(s) => trace && since.as_secs_f64() >= s / 2.0,
            Budget::Ops(n) => trace && timed.passes.len() >= n / 2,
        };
        let t = Instant::now();
        let report = fs.scrub(&config).map_err(|e| format!("scrub: {e}"))?;
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        let found: Vec<Line> = report.tampered_lines().map(|l| l.line).collect();
        if report.summary.lines as u64 != scale.audit_files
            || found != planted.into_iter().collect::<Vec<_>>()
        {
            timed.wrong.push(format!(
                "scrub pass {}: {} lines, tampered {:?}, planted {:?}",
                timed.passes.len(),
                report.summary.lines,
                found,
                planted
            ));
            break;
        }
        timed.ops += report.summary.lines as u64;
        timed.passes.push((traced, us));
        timed.latencies.push((Kind::Verify, us));
        if timed.passes.len() == RSS_AFTER_PASSES {
            timed.peak_rss_mb = peak_rss_mb();
        }
    }
    timed.elapsed = start.elapsed();
    if timed.passes.len() < RSS_AFTER_PASSES {
        timed.peak_rss_mb = peak_rss_mb();
    }
    timed.after = Counters::of(fs);
    Ok(timed)
}

fn idle_ping_p50_us(cfs: &ConcurrentFs) -> Result<f64, String> {
    let server = wire::start_server(cfs).map_err(|e| format!("server: {e}"))?;
    let result = ping_p50_us(server.addr());
    server.shutdown();
    result
}

/// Median `SeroClient::ping` round trip on the idle daemon at `addr`.
pub fn ping_p50_us(addr: std::net::SocketAddr) -> Result<f64, String> {
    let mut client = SeroClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut samples = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        client.ping().map_err(|e| format!("ping: {e}"))?;
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(median(&samples))
}

fn end_to_end(w: Workload, t: &Timed, setup_s: f64, replay: Option<&Replay>) -> Metrics {
    let mut m = Metrics::default();
    let secs = t.elapsed.as_secs_f64();
    // The served run's device clock depends on how the two connections'
    // requests interleave (seek distances), so the wire workloads take
    // the device rate from the deterministic single-connection replay.
    let (ops, device_ns) = match replay {
        Some(r) => (r.ops as f64, r.after.device_ns - r.before.device_ns),
        None => (t.ops as f64, t.after.device_ns - t.before.device_ns),
    };
    let all: Vec<f64> = t.latencies.iter().map(|l| l.1).collect();
    m.put("setup_s", setup_s, "s");
    m.put("ops_per_s", ratio(t.ops as f64, secs), "ops/s");
    m.put("latency_p50_us", quantile(&all, 0.5), "us");
    m.put("latency_p95_us", quantile(&all, 0.95), "us");
    m.put(
        "device_ops_per_s",
        ratio(ops, device_ns as f64 / 1e9),
        "ops/s",
    );
    // Detail for the human-readable report: per-kind latencies.
    let of = |kinds: &[Kind]| -> Vec<f64> {
        t.latencies
            .iter()
            .filter(|l| kinds.contains(&l.0))
            .map(|l| l.1)
            .collect()
    };
    match w {
        Workload::ScrubAudit => m.put("pass_s", quantile(&all, 0.5) / 1e6, "s"),
        _ => {
            let reads = of(&[Kind::Read]);
            m.put("read_p50_us", quantile(&reads, 0.5), "us");
            m.put("read_p99_us", quantile(&reads, 0.99), "us");
            if w == Workload::ArchiveIngest {
                let writes = of(&[Kind::Create, Kind::Write]);
                m.put("write_p50_us", quantile(&writes, 0.5), "us");
                m.put("write_p99_us", quantile(&writes, 0.99), "us");
                for kind in [Kind::Heat, Kind::Verify] {
                    let v = of(&[kind]);
                    m.put(format!("{}_p50_us", kind.name()), quantile(&v, 0.5), "us");
                    m.put(format!("{}_p90_us", kind.name()), quantile(&v, 0.9), "us");
                }
            }
        }
    }
    m.put(
        "error_rate",
        ratio(
            t.drive.as_ref().map_or(0, |d| d.errors) as f64,
            (t.ops + t.failed) as f64,
        ),
        "ratio",
    );
    m
}

/// Requests replayed one at a time for `device_ops_per_s`: enough to
/// cover the planted tamper of `archive-ingest`.
const REPLAY_OPS: usize = 400;

/// The deterministic single-connection replay behind `device_ops_per_s`
/// and the exact per-request device counts.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// Requests replayed.
    pub ops: u64,
    /// Counters before the replay.
    pub before: Counters,
    /// Counters after it.
    pub after: Counters,
}

/// Replays the first [`REPLAY_OPS`] generated requests, alternating
/// between the connections' streams, one at a time through
/// `SeroFs::handle` on a fresh set-up, checking every answer.
fn device_replay(
    w: Workload,
    seed: u64,
    scale: &Scale,
    streams: &[Vec<Op>],
) -> Result<Replay, String> {
    let mut fs = setup(w, seed, scale)?.fs;
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let order = (0..longest)
        .flat_map(|i| streams.iter().filter_map(move |s| s.get(i)))
        .take(REPLAY_OPS);
    let before = Counters::of(&fs);
    let mut ops = 0;
    for op in order {
        if let Some(name) = &op.tamper_before {
            tamper_file(&mut fs, name)?;
        }
        let (_, payload, _) = decode_frame(&op.frame).map_err(|e| e.to_string())?;
        let request = Request::decode(payload).map_err(|e| e.to_string())?;
        let response = fs.handle(request);
        wire::check(seed, &op.expect, &response)
            .map_err(|e| format!("replay: {:?}: {e}", op.kind))?;
        ops += 1;
    }
    Ok(Replay {
        ops,
        before,
        after: Counters::of(&fs),
    })
}
