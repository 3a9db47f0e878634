//! The traced run's per-layer metrics and the wire-read breakdown.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each layer's public API, on copies of the workload's state: the
//! post-set-up snapshot for replays, the post-run device for primitive
//! timings. Nothing here touches the served file system.

use crate::gen::{Kind, Op};
use crate::report::{median, ratio, time_ns, Metrics};
use crate::wire::tamper_file;
use crate::workloads::{Counters, Replay, Timed, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sero_core::device::SeroDevice;
use sero_core::layout::HashBlockPayload;
use sero_core::line::Line;
use sero_core::scrub::{scrub_device, ScrubConfig};
use sero_crypto::sha256;
use sero_fs::concurrent::ConcurrentFs;
use sero_fs::SeroFs;
use sero_index::{IndexGeometry, MetaIndex, VecStore};
use sero_media::mfm::ReadChannel;
use sero_media::thermal::ThermalModel;
use sero_probe::sector::{SectorCodec, SECTOR_DOTS};
use sero_probe::SECTOR_DATA_BYTES;
use sero_proto::frame::{decode_frame, encode_request, encode_response, FrameAssembler};
use sero_proto::{Request, Response, WireClass};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Sectors sampled for the probe, media and codec timings.
const SAMPLE_SECTORS: usize = 48;
/// Order of the lines heated on a device copy: 16 blocks, the line an
/// archival 4 KiB or 7000 B file gets.
const LINE_ORDER: u32 = 4;
/// Lines heated (and verified) on a device copy.
const SAMPLE_LINES: usize = 6;
/// Host-time cap on the in-process `handle_batch` replay.
const REPLAY_FOR: Duration = Duration::from_secs(2);
/// Combining-window size of the replay and the probe: the connections.
const WINDOW: usize = 2;
/// Rounds of the synthetic fs probe.
const PROBE_ROUNDS: usize = 4;
/// Dot pitch of the default device, for its thermal model.
const PITCH_NM: f64 = 100.0;

/// A request and the answer it got.
type Exchange = (Request, Response);

/// What the traced run hands to the per-layer timings.
pub struct LayerInput<'a> {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// The file system right after set-up.
    pub snapshot: &'a SeroFs,
    /// The file system after the timed phase.
    pub post: &'a SeroFs,
    /// The generated request streams.
    pub streams: &'a [Vec<Op>],
    /// The timed phase.
    pub timed: &'a Timed,
    /// The single-connection replay (wire workloads).
    pub replay: Option<&'a Replay>,
    /// `SeroClient::ping` p50 on the idle daemon.
    pub ping_p50_us: f64,
}

/// Measures every per-layer metric; returns them with the printed
/// breakdown of a wire read.
pub fn measure(inp: &LayerInput) -> (Metrics, String) {
    let mut m = Metrics::default();
    let t = inp.timed;
    let (b, a) = (&t.before, &t.after);
    // Exact per-request counts come from the deterministic replay; the
    // served run's counts depend on how the connections interleaved.
    let (cb, ca, ops) = match inp.replay {
        Some(r) => (&r.before, &r.after, r.ops as f64),
        None => (b, a, t.ops as f64),
    };

    // server
    let submitted = (a.admission.submitted - b.admission.submitted) as f64;
    let batches = (a.admission.batches - b.admission.batches) as f64;
    m.put("server.ping_p50_us", inp.ping_p50_us, "us");
    m.put(
        "server.window_depth",
        ratio(submitted, batches),
        "ops/batch",
    );

    // fs, then proto (which may need the fs probe's requests)
    let (replay, probe) = replay(inp);
    proto(inp, &mut m, &probe);
    for kind in Kind::ALL {
        let v: Vec<f64> = replay.iter().filter(|r| r.0 == kind).map(|r| r.1).collect();
        m.put(format!("fs.{}_us", kind.name()), median(&v), "us");
    }
    let fs_delta = |f: fn(&Counters) -> u64| ratio((f(ca) - f(cb)) as f64, ops);
    m.put(
        "fs.blocks_read_per_op",
        fs_delta(|c| c.fs.blocks_read),
        "count",
    );
    m.put(
        "fs.blocks_written_per_op",
        fs_delta(|c| c.fs.blocks_written),
        "count",
    );
    m.put(
        "fs.cleaner_copied_per_op",
        fs_delta(|c| c.fs.cleaner_copied),
        "count",
    );

    // core
    let merged = (a.admission.reads_merged - b.admission.reads_merged) as f64;
    m.put(
        "core.reads_merged_per_batch",
        ratio(merged, batches),
        "ops/batch",
    );
    m.put(
        "core.blocks_deduped",
        (a.admission.blocks_deduped - b.admission.blocks_deduped) as f64,
        "count",
    );
    let (heat_us, verify_us) = heat_and_verify(inp.post.device());
    m.put("core.heat_line_us", heat_us, "us");
    m.put("core.verify_line_us", verify_us, "us");
    let mut serial = inp.post.device().clone();
    let serial_before = *serial.probe().counters();
    let started = Instant::now();
    let serial_lines =
        scrub_device(&mut serial, &ScrubConfig::with_workers(1)).map_or(0, |r| r.summary.lines);
    m.put("core.scrub_serial_s", started.elapsed().as_secs_f64(), "s");
    let serial_after = *serial.probe().counters();
    drop(serial);
    m.put(
        "core.device_clone_ms",
        time_ns(3, || inp.post.device().clone()) / 1e6,
        "ms",
    );
    let device_ns = (ca.device_ns - cb.device_ns) as f64;
    m.put("core.device_us_per_op", ratio(device_ns / 1e3, ops), "us");

    // probe, media, codec
    primitives(inp, &mut m);
    // A sharded scrub counts on per-worker device copies and merges only
    // the clock back, so scrub-audit's counts come from the serial pass.
    let (pa, pb, ops) = match inp.workload {
        Workload::ScrubAudit => (&serial_after, &serial_before, serial_lines as f64),
        _ => (&ca.probe, &cb.probe, ops),
    };
    for (name, after, before) in [
        ("mrs", pa.mrs, pb.mrs),
        ("mws", pa.mws, pb.mws),
        ("ers", pa.ers, pb.ers),
        ("ews", pa.ews, pb.ews),
        ("seeks", pa.seeks, pb.seeks),
        ("mrb", pa.mrb, pb.mrb),
    ] {
        m.put(
            format!("probe.{name}_per_op"),
            ratio((after - before) as f64, ops),
            "count",
        );
    }

    // crypto
    let mib = vec![0xA5u8; 1 << 20];
    let sha_ns = time_ns(9, || sha256(&mib));
    m.put("crypto.sha256_mib_per_s", ratio(1e9, sha_ns), "MiB/s");

    // index
    index(inp.post, &mut m);

    let breakdown = breakdown(inp, &mut m);
    (m, breakdown)
}

/// The requests the run sent, decoded exactly as the daemon decodes them.
fn sent_requests<'a>(inp: &LayerInput<'a>) -> Vec<Vec<(&'a Op, Request)>> {
    let sent = inp.timed.drive.as_ref().map_or(&[][..], |d| &d.sent[..]);
    inp.streams
        .iter()
        .zip(sent)
        .map(|(ops, &n)| {
            let ops = ops.iter().cycle().take(n);
            ops.map(|op| (op, decode(&op.frame))).collect()
        })
        .collect()
}

fn decode(frame: &[u8]) -> Request {
    let (_, payload, _) = decode_frame(frame).expect("generated frames decode");
    Request::decode(payload).expect("generated requests decode")
}

/// Times the wire codec on the run's own requests and answers, or, for a
/// workload that sends none, on the synthetic probe's.
fn proto(inp: &LayerInput, m: &mut Metrics, probe: &[Exchange]) {
    let sent: Vec<Request> = sent_requests(inp)
        .into_iter()
        .flat_map(|s| s.into_iter().take(256).map(|(_, r)| r))
        .collect();
    let kept = inp
        .timed
        .drive
        .as_ref()
        .map_or(&[][..], |d| &d.responses[..]);
    let (requests, responses): (Vec<Request>, Vec<Response>) = if sent.is_empty() {
        probe.iter().cloned().unzip()
    } else {
        (sent, kept.to_vec())
    };
    let frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| encode_request(r).expect("fits"))
        .collect();
    let payloads: Vec<Vec<u8>> = responses.iter().map(Response::encode).collect();
    let per = |total_ns: f64, n: usize| ratio(total_ns, n as f64);
    let enc_req = time_ns(5, || {
        for r in &requests {
            std::hint::black_box(encode_request(r).expect("fits"));
        }
    });
    let dec_req = time_ns(5, || {
        let mut asm = FrameAssembler::new();
        for frame in &frames {
            asm.push(frame);
            let (_, payload) = asm.next_frame().expect("valid").expect("complete");
            std::hint::black_box(Request::decode(&payload).expect("valid"));
        }
    });
    let enc_resp = time_ns(5, || {
        for r in &responses {
            std::hint::black_box(encode_response(r).expect("fits"));
        }
    });
    let dec_resp = time_ns(5, || {
        for p in &payloads {
            std::hint::black_box(Response::decode(p).expect("valid"));
        }
    });
    let (n_req, n_resp) = (requests.len(), responses.len());
    m.put("proto.request_encode_ns", per(enc_req, n_req), "ns");
    m.put("proto.request_decode_ns", per(dec_req, n_req), "ns");
    m.put("proto.response_encode_ns", per(enc_resp, n_resp), "ns");
    m.put("proto.response_decode_ns", per(dec_resp, n_resp), "ns");
    let (bytes, n) = inp
        .timed
        .drive
        .as_ref()
        .map_or((0, 0), |d| (d.bytes, d.samples.len()));
    m.put("proto.bytes_per_op", ratio(bytes as f64, n as f64), "B");
}

/// The synthetic probe's requests of round `round`, by kind, one window
/// of [`WINDOW`] each: create, overwrite, read, heat and verify fresh
/// 1 KiB archival files.
fn probe_round(round: usize) -> [(Kind, Vec<Request>); 5] {
    let names: Vec<String> = (0..WINDOW)
        .map(|c| format!("perfbench-probe-{round}-{c}"))
        .collect();
    let each = |f: &dyn Fn(&String) -> Request| names.iter().map(f).collect::<Vec<_>>();
    let data = |v: usize| vec![(round + v) as u8; 1024];
    [
        (
            Kind::Create,
            each(&|n| Request::Create {
                name: n.clone(),
                data: data(0),
                class: WireClass::Archival,
            }),
        ),
        (
            Kind::Write,
            each(&|n| Request::Write {
                name: n.clone(),
                data: data(1),
                class: WireClass::Archival,
            }),
        ),
        (Kind::Read, each(&|n| Request::Read { name: n.clone() })),
        (
            Kind::Heat,
            each(&|n| Request::Heat {
                name: n.clone(),
                metadata: b"perfbench".to_vec(),
                timestamp: round as u64,
            }),
        ),
        (Kind::Verify, each(&|n| Request::Verify { name: n.clone() })),
    ]
}

/// Replays the run's own requests in-process on the post-set-up
/// snapshot, one `handle_batch` window per request index across the
/// connections (window size = connections), then runs the synthetic
/// probe for the kinds the run did not send. Returns per-request host µs
/// of windows whose requests are all one kind, and the probe's requests
/// with their answers.
fn replay(inp: &LayerInput) -> (Vec<(Kind, f64)>, Vec<Exchange>) {
    let streams = sent_requests(inp);
    let len = streams.iter().map(Vec::len).min().unwrap_or(0);
    let cfs = ConcurrentFs::new(inp.snapshot.clone());
    let started = Instant::now();
    let mut out = Vec::new();
    for i in 0..len {
        if started.elapsed() >= REPLAY_FOR {
            break;
        }
        let window: Vec<&(&Op, Request)> = streams.iter().map(|s| &s[i]).collect();
        for (op, _) in &window {
            if let Some(name) = &op.tamper_before {
                let _ = cfs.with_fs(|fs| tamper_file(fs, name));
            }
        }
        let kind = window[0].0.kind;
        let same = window.iter().all(|(op, _)| op.kind == kind);
        let batch: Vec<Request> = window.iter().map(|(_, r)| r.clone()).collect();
        let t = Instant::now();
        std::hint::black_box(cfs.handle_batch(batch));
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        if same {
            out.push((kind, us / window.len() as f64));
        }
    }
    let missing: Vec<Kind> = Kind::ALL
        .into_iter()
        .filter(|k| !out.iter().any(|(kind, _)| kind == k))
        .collect();
    let mut probe = Vec::new();
    for round in 0..PROBE_ROUNDS {
        for (kind, batch) in probe_round(round) {
            let t = Instant::now();
            let answers = cfs.handle_batch(batch.clone());
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            if missing.contains(&kind) {
                out.push((kind, us / WINDOW as f64));
            }
            probe.extend(batch.into_iter().zip(answers));
        }
    }
    (out, probe)
}

/// Free, unheated, aligned 16-block lines from the device's tail.
fn free_lines(dev: &SeroDevice, count: usize) -> Vec<Line> {
    let len = 1u64 << LINE_ORDER;
    let mut out = Vec::new();
    let mut start = (dev.block_count() / len - 1) * len;
    while out.len() < count && start > 0 {
        if (start..start + len).all(|pba| dev.line_of(pba).is_none()) {
            out.push(Line::new(start, LINE_ORDER).expect("aligned"));
        }
        start -= len;
    }
    out
}

/// Median `heat_line` and `verify_line` host µs on a device copy.
fn heat_and_verify(dev: &SeroDevice) -> (f64, f64) {
    let mut dev = dev.clone();
    let lines = free_lines(&dev, SAMPLE_LINES);
    let (mut heats, mut verifies) = (Vec::new(), Vec::new());
    for (i, line) in lines.iter().enumerate() {
        for pba in line.data_blocks() {
            let _ = dev.write_block(pba, &[i as u8; SECTOR_DATA_BYTES]);
        }
        let t = Instant::now();
        let heated = dev
            .heat_line(*line, b"perfbench".to_vec(), i as u64)
            .is_ok();
        let heat_us = t.elapsed().as_nanos() as f64 / 1e3;
        let t = Instant::now();
        let verified = dev.verify_line(*line).is_ok();
        let verify_us = t.elapsed().as_nanos() as f64 / 1e3;
        if heated && verified {
            heats.push(heat_us);
            verifies.push(verify_us);
        }
    }
    (median(&heats), median(&verifies))
}

/// `mrs`/`mws`/`ers`/`ews` on the workload's sectors, the read channel
/// and thermal model on its medium, and the sector codec on its data.
fn primitives(inp: &LayerInput, m: &mut Metrics) {
    let mut dev = inp.post.device().clone();
    // Written sectors: heated lines' data blocks first, then the first
    // that decode from segment 1 on, skipping hash blocks (they hold
    // Manchester cells, not sectors).
    let mut sectors = Vec::new();
    let hash_block = |pba| dev.line_of(pba).is_some_and(|l| l.hash_block() == pba);
    let candidates: Vec<u64> = dev
        .heated_lines()
        .flat_map(|r| r.line.data_blocks())
        .chain((64..dev.block_count()).filter(|&pba| !hash_block(pba)))
        .take(8 * SAMPLE_SECTORS)
        .collect();
    for pba in candidates {
        if sectors.len() == SAMPLE_SECTORS {
            break;
        }
        if let Ok(s) = dev.probe_mut().mrs(pba) {
            sectors.push((pba, s.data));
        }
    }
    let hash_blocks: Vec<u64> = dev
        .heated_lines()
        .take(SAMPLE_SECTORS)
        .map(|r| r.line.hash_block())
        .collect();
    let ers_targets: Vec<u64> = if hash_blocks.is_empty() {
        sectors.iter().map(|s| s.0).collect()
    } else {
        hash_blocks
    };
    let probe = dev.probe_mut();
    let each = |f: &mut dyn FnMut(usize) -> bool, n: usize| -> f64 {
        let v: Vec<f64> = (0..n)
            .filter_map(|i| {
                let t = Instant::now();
                let ok = f(i);
                let us = t.elapsed().as_nanos() as f64 / 1e3;
                ok.then_some(us)
            })
            .collect();
        median(&v)
    };
    let mrs_us = each(&mut |i| probe.mrs(sectors[i].0).is_ok(), sectors.len());
    let mws_us = each(
        &mut |i| probe.mws(sectors[i].0, &sectors[i].1).is_ok(),
        sectors.len(),
    );
    let ers_us = each(
        &mut |i| probe.ers(ers_targets[i]).is_ok(),
        ers_targets.len(),
    );
    m.put("probe.mrs_us", mrs_us, "us");
    m.put("probe.mws_us", mws_us, "us");
    m.put("probe.ers_us", ers_us, "us");
    let lines = free_lines(&dev, SAMPLE_LINES);
    let bits: Vec<Vec<bool>> = lines
        .iter()
        .map(|l| {
            HashBlockPayload::new(*l, sha256(b"perfbench"), 1, b"perfbench".to_vec())
                .expect("small payload")
                .to_bits()
        })
        .collect();
    let probe = dev.probe_mut();
    let ews_us = each(
        &mut |i| probe.ews(lines[i].hash_block(), &bits[i]).is_ok(),
        lines.len(),
    );
    m.put("probe.ews_us", ews_us, "us");

    // media: one sector's dots through the read channel; heat pulses on
    // a copy of the medium, in a free line.
    let medium = dev.probe().medium().clone();
    let channel = ReadChannel::default();
    let mut rng = StdRng::seed_from_u64(inp.seed);
    let first = |pba: u64| dev.probe().block_first_dot(pba);
    let t = Instant::now();
    for (pba, _) in &sectors {
        let dots = first(*pba)..first(*pba) + SECTOR_DOTS as u64;
        std::hint::black_box(channel.detect_run(&medium, dots, &mut rng));
    }
    let dots = (sectors.len() * SECTOR_DOTS) as f64;
    m.put(
        "media.detect_ns_per_dot",
        ratio(t.elapsed().as_nanos() as f64, dots),
        "ns",
    );
    let mut medium = medium;
    let thermal = ThermalModel::well_designed(PITCH_NM);
    let tail = free_lines(&dev, 1).first().map_or(0, |l| first(l.start()));
    let dots = 2048u64;
    let t = Instant::now();
    for dot in (tail..tail + dots * 2).step_by(2) {
        std::hint::black_box(thermal.heat_dot(&mut medium, dot, &mut rng));
    }
    m.put(
        "media.heat_ns_per_dot",
        t.elapsed().as_nanos() as f64 / dots as f64,
        "ns",
    );

    // codec
    let codec = SectorCodec::new();
    let raws: Vec<(u64, Vec<u8>)> = sectors
        .iter()
        .map(|(p, d)| (*p, codec.encode(*p, d)))
        .collect();
    let enc = each(
        &mut |i| !std::hint::black_box(codec.encode(sectors[i].0, &sectors[i].1)).is_empty(),
        sectors.len(),
    );
    let dec = each(
        &mut |i| codec.decode(raws[i].0, &raws[i].1, &[]).is_ok(),
        raws.len(),
    );
    m.put("codec.sector_encode_us", enc, "us");
    m.put("codec.sector_decode_us", dec, "us");
}

/// `MetaIndex::put`/`get` over a counted `VecStore` loaded with the
/// workload's file names.
fn index(fs: &SeroFs, m: &mut Metrics) {
    let (put, get, reads) = index_costs(&fs.list()).unwrap_or_default();
    m.put("index.put_us", put, "us");
    m.put("index.get_us", get, "us");
    m.put("index.get_reads", reads, "count");
}

/// Mean µs per `put`, µs per `get` and pages read per `get` over `names`.
fn index_costs(names: &[String]) -> Option<(f64, f64, f64)> {
    const PAGES: u64 = 4096;
    let mut store = VecStore::new(PAGES);
    let geom = IndexGeometry::for_pages(PAGES).ok()?;
    let mut index = MetaIndex::format(&mut store, geom).ok()?;
    let t = Instant::now();
    for (i, name) in names.iter().enumerate() {
        index
            .put(&mut store, name.as_bytes(), &(i as u64).to_le_bytes())
            .ok()?;
    }
    let put = t.elapsed().as_nanos() as f64 / 1e3;
    store.reset_counters();
    let t = Instant::now();
    for name in names {
        index.get(&mut store, name.as_bytes()).ok()??;
    }
    let get = t.elapsed().as_nanos() as f64 / 1e3;
    let n = names.len() as f64;
    Some((ratio(put, n), ratio(get, n), ratio(store.reads() as f64, n)))
}

/// Splits the traced wire read p50 into layers and prints the table;
/// records the untraced p50, the tracing overhead and the residual.
fn breakdown(inp: &LayerInput, m: &mut Metrics) -> String {
    // Unit of work per phase: reads on the wire workloads, passes on
    // scrub-audit.
    let (untraced, traced): (Vec<f64>, Vec<f64>) = match &inp.timed.drive {
        Some(d) => {
            let reads = d.samples.iter().filter(|s| s.kind == Kind::Read);
            let split = |want: bool| -> Vec<f64> {
                reads
                    .clone()
                    .filter(|s| s.spans.is_some() == want)
                    .map(|s| s.rtt_ns as f64 / 1e3)
                    .collect()
            };
            (split(false), split(true))
        }
        None => {
            let split = |want: bool| -> Vec<f64> {
                inp.timed
                    .passes
                    .iter()
                    .filter(|p| p.0 == want)
                    .map(|p| p.1)
                    .collect()
            };
            (split(false), split(true))
        }
    };
    let traced_p50 = median(&traced);
    let untraced_p50 = median(&untraced);
    m.put("trace.latency_p50_us", traced_p50, "us");
    m.put("trace.untraced_latency_p50_us", untraced_p50, "us");
    m.put("trace.overhead_us", traced_p50 - untraced_p50, "us");
    let get = |name: &str| m.get(name).unwrap_or(0.0);

    let ping = get("server.ping_p50_us");
    let proto = (get("proto.request_encode_ns")
        + get("proto.request_decode_ns")
        + get("proto.response_encode_ns")
        + get("proto.response_decode_ns"))
        / 1e3;
    let fs_read = get("fs.read_us");
    let mrs = get("probe.mrs_us") * get("probe.mrs_per_op");
    let detect = get("media.detect_ns_per_dot") * SECTOR_DOTS as f64 / 1e3;
    let decode = get("codec.sector_decode_us");
    let mrs_each = get("probe.mrs_us");
    let mrs_per_op = get("probe.mrs_per_op");
    // What the attributed layers leave of the traced p50: for a wire
    // read, everything but transport, codec and the fs call; for a scrub
    // pass, everything but the lines' verifications spread over the
    // workers (device clones, sharding, merging).
    let (residual, attributed) = match inp.workload {
        Workload::ScrubAudit => {
            let lines = inp.post.device().heated_lines().count();
            let workers = ScrubConfig::default().effective_workers(lines);
            let verify = get("core.verify_line_us") * lines as f64 / workers as f64;
            (traced_p50 - verify, "verify_line_us x lines / workers")
        }
        _ => (
            traced_p50 - ping - proto - fs_read,
            "server.ping_p50_us + proto + fs.read_us",
        ),
    };
    m.put("trace.residual_us", residual, "us");

    let mut out = String::new();
    let w = inp.workload.name();
    if inp.workload != Workload::ServeRead {
        let _ = writeln!(
            out,
            "{w}: traced p50 {traced_p50:.1} us, untraced {untraced_p50:.1} us, \
             tracing overhead {:.1} us; residual after {attributed}: {residual:.1} us",
            traced_p50 - untraced_p50
        );
        return out;
    }
    let spans: Vec<_> = inp
        .timed
        .drive
        .iter()
        .flat_map(|d| d.samples.iter().filter_map(|s| s.spans))
        .collect();
    let span_p50 = |f: fn(&crate::wire::Spans) -> u64| {
        median(&spans.iter().map(|s| f(s) as f64 / 1e3).collect::<Vec<_>>())
    };
    let row = |out: &mut String, depth: usize, name: &str, us: f64, of: f64| {
        let _ = writeln!(
            out,
            "  {:indent$}{name:<width$} {us:>10.1} us {:>6.1}%",
            "",
            100.0 * ratio(us, of),
            indent = depth * 2,
            width = 44 - depth * 2
        );
    };
    let _ = writeln!(
        out,
        "where a {w} wire read's host microseconds go (traced p50):"
    );
    row(&mut out, 0, "read_p50_us (traced)", traced_p50, traced_p50);
    row(
        &mut out,
        1,
        "server.ping_p50_us (transport + reactor)",
        ping,
        traced_p50,
    );
    row(
        &mut out,
        1,
        "proto encode/decode (req + resp)",
        proto,
        traced_p50,
    );
    row(
        &mut out,
        1,
        "fs.read_us (handle_batch, window 2)",
        fs_read,
        traced_p50,
    );
    row(
        &mut out,
        2,
        "probe.mrs_us x probe.mrs_per_op",
        mrs,
        traced_p50,
    );
    row(
        &mut out,
        3,
        "media.detect_ns_per_dot x dots",
        detect * mrs_per_op,
        traced_p50,
    );
    row(
        &mut out,
        3,
        "codec.sector_decode_us",
        decode * mrs_per_op,
        traced_p50,
    );
    row(
        &mut out,
        3,
        "residual (probe self time)",
        (mrs_each - detect - decode) * mrs_per_op,
        traced_p50,
    );
    row(
        &mut out,
        2,
        "residual (fs self time)",
        fs_read - mrs,
        traced_p50,
    );
    row(
        &mut out,
        1,
        "residual (queueing, combiner wait, syscalls)",
        residual,
        traced_p50,
    );
    let _ = writeln!(
        out,
        "  client spans p50: send {:.1} us, wait {:.1} us, decode {:.1} us (decode is outside the round trip)",
        span_p50(|s| s.send_ns),
        span_p50(|s| s.wait_ns),
        span_p50(|s| s.decode_ns)
    );
    let _ = writeln!(
        out,
        "  untraced read p50 {untraced_p50:.1} us; tracing overhead {:.1} us ({:.1}%)",
        traced_p50 - untraced_p50,
        100.0 * ratio(traced_p50 - untraced_p50, untraced_p50)
    );
    out
}
