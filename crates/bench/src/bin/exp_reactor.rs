//! EXP-REACTOR — readiness batching on real sockets.
//!
//! The daemon is a readiness-driven reactor: every request readable in
//! one event-loop sweep dispatches as a *single*
//! [`ConcurrentFs::handle_batch`](sero_fs::concurrent::ConcurrentFs::handle_batch)
//! combining window, so n concurrent clients form the depth-n admission
//! batches the flat combiner wants. `exp_concurrency` owns the
//! in-process depth curve; this experiment checks that the wire delivers
//! it and answers exactly what the file system does:
//!
//! * **Framed tamper drill** (the compared `"metrics"`): a heated line is
//!   tampered through the raw probe; the framed `verify` must answer
//!   `TAMPER-DETECTED` — the detection guarantee survives reassembly.
//! * **Byte-identity against the serial replay**: an 11-command script —
//!   reads, a heat, a raw-write tamper into the heated line, its verify,
//!   and status queries — runs over a real socket against a reactor
//!   daemon and in-process through [`SeroFs::handle`] on an identical
//!   file system. Every response payload must match byte-for-byte
//!   (`responses_identical`), and the tampered verify must answer
//!   `TAMPER-DETECTED`.
//! * **Reactor swarm** (the informational `"host"`): real `sero-client`
//!   swarms of 1/2/4/8/16 closed-loop connections against a reactor
//!   daemon, plus an idle-connection axis (0/128/256 silent sockets held
//!   open alongside 8 active clients). Wall numbers land under `"host"`;
//!   the **blocking** acceptance check is the in-binary assertion that
//!   the 8-client swarm's ops per *device*-second reaches ≥ 0.8× the
//!   simulated depth-8 point of the shared hot-read curve
//!   ([`sero_bench::hot_reads`]) — the swarm must track the admission
//!   curve instead of flatlining at the hand-off rate.
//!
//! Emits `BENCH_reactor.json` (schema `sero-bench/v1`, compared
//! **blocking** in CI) and `reactor_trace.json` (per-swarm latency
//! tails; a CI artifact, never compared). `SERO_BENCH_FAST=1` shrinks
//! only the host swarms — the deterministic phases are identical in both
//! modes.

use sero_bench::hot_reads::{
    archive_name, build_fs, hot_name, read_script, run_depth, Lcg, ARCHIVE_BYTES, DEVICE_BLOCKS,
    HOT_BYTES, HOT_FILES, SWEEP_OPS,
};
use sero_bench::json::Json;
use sero_bench::{
    bench_out_path, device_clock_ns, fast_mode, ns_to_us as us, percentile_ns as percentile, row,
    trace_out_path,
};
use sero_client::SeroClient;
use sero_fs::SeroFs;
use sero_proto::frame::{encode_request, read_frame, write_frame, FrameAssembler, FrameKind};
use sero_proto::{ErrorCode, Request, Response};
use sero_server::{SeroServer, ServerConfig};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Archival files for the tamper drill and the wire script.
const ARCHIVE_FILES: usize = 4;

/// Position of the tampered file's verify in the wire script's answers:
/// the archive reads, the heat, the raw write, then the verify.
const TAMPERED_VERIFY: usize = ARCHIVE_FILES + 2;

/// The swarm the acceptance bar applies to, and its simulated twin.
const TRACKED_CLIENTS: usize = 8;

/// Blocking bar: the 8-client swarm's ops per device-second must reach
/// this fraction of the simulated depth-8 admission curve.
const TRACKING_FLOOR: f64 = 0.8;

/// The framed tamper drill: heat an archive file, rewrite one protected
/// block through the raw probe, and drive `verify` through the frame
/// codec. Returns 1 if (and only if) the evidence surfaced.
fn run_framed_tamper() -> u64 {
    let cfs = build_fs(ARCHIVE_FILES);
    let line = match cfs.handle(Request::Heat {
        name: archive_name(0),
        metadata: b"exp-reactor".to_vec(),
        timestamp: 1_199_145_600,
    }) {
        Response::Heated { line } => line.to_line().expect("wire line"),
        other => panic!("heat refused: {other:?}"),
    };
    cfs.with_fs(|fs| {
        fs.device_mut()
            .probe_mut()
            .mws(line.start() + 1, &[0xEE; 512])
            .expect("raw write");
    });
    let framed = encode_request(&Request::Verify {
        name: archive_name(0),
    })
    .expect("bench request fits a frame");
    let mut asm = FrameAssembler::new();
    asm.push(&framed);
    let (_, payload) = asm
        .next_frame()
        .expect("own frame decodes")
        .expect("complete frame");
    let verdict = cfs.handle(Request::decode(&payload).expect("own payload"));
    match verdict {
        Response::Error(e) if e.code == ErrorCode::TamperDetected => 1,
        other => panic!("tampered line verified clean: {other:?}"),
    }
}

/// The wire script: archive reads, a heat, a raw-write tamper into the
/// heated line, its verify, and status queries. `call` answers each
/// request with its encoded response payload; the payloads come back in
/// script order.
fn wire_script(mut call: impl FnMut(&Request) -> Vec<u8>) -> Vec<Vec<u8>> {
    let mut outs = Vec::new();
    for i in 0..ARCHIVE_FILES {
        outs.push(call(&Request::Read {
            name: archive_name(i),
        }));
    }
    let heat_payload = call(&Request::Heat {
        name: archive_name(1),
        metadata: b"wire-script".to_vec(),
        timestamp: 1_199_145_601,
    });
    let line = match Response::decode(&heat_payload).expect("heat response") {
        Response::Heated { line } => line.to_line().expect("wire line"),
        other => panic!("heat refused: {other:?}"),
    };
    outs.push(heat_payload);
    outs.push(call(&Request::RawWrite {
        pba: line.start() + 1,
        data: vec![0xEE; 512],
    }));
    outs.push(call(&Request::Verify {
        name: archive_name(1),
    }));
    outs.push(call(&Request::Verify {
        name: archive_name(2),
    }));
    outs.push(call(&Request::Stat {
        name: archive_name(1),
    }));
    outs.push(call(&Request::list_all()));
    outs.push(call(&Request::FleetStatus));
    outs
}

/// The wire script over a real socket against a reactor daemon that
/// serves raw writes.
fn run_reactor_script() -> Vec<Vec<u8>> {
    let server = SeroServer::bind_shared(
        "127.0.0.1:0",
        build_fs(ARCHIVE_FILES),
        ServerConfig {
            allow_raw: true,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let handle = server.spawn().expect("spawn");
    let mut conn = TcpStream::connect(handle.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("deadline");
    let outs = wire_script(|req| {
        write_frame(&mut conn, FrameKind::Request, &req.encode()).expect("send");
        let (_, payload) = read_frame(&mut conn).expect("recv").expect("response");
        payload
    });
    drop(conn);
    handle.shutdown();
    outs
}

/// The wire script in-process: one [`SeroFs::handle`] call per request
/// on an identical file system, no socket, no combiner.
fn run_serial_script() -> Vec<Vec<u8>> {
    let mut fs: SeroFs = build_fs(ARCHIVE_FILES)
        .try_into_fs()
        .ok()
        .expect("sole owner");
    wire_script(|req| fs.handle(req.clone()).encode())
}

struct Swarm {
    clients: usize,
    idle: usize,
    ops: usize,
    wall_ms: f64,
    device_ns: u128,
    latencies: Vec<u128>,
}

impl Swarm {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.wall_ms / 1e3)
    }

    fn ops_per_device_s(&self) -> f64 {
        self.ops as f64 / (self.device_ns as f64 / 1e9)
    }
}

/// Runs `clients` closed-loop read clients (plus `idle` silent held
/// sockets) against a reactor daemon sharing our `ConcurrentFs`, so
/// the simulated device clock is observable from outside.
fn run_swarm(clients: usize, ops_per_client: usize, idle: usize) -> Swarm {
    let cfs = build_fs(ARCHIVE_FILES);
    let shared = cfs.clone();
    shared.with_fs(|fs| fs.device_mut().probe_mut().park_at(0));
    let server = SeroServer::bind_shared(
        "127.0.0.1:0",
        cfs,
        ServerConfig {
            max_connections: 2048,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let handle = server.spawn().expect("spawn");
    let addr: SocketAddr = handle.addr();

    // The idle population: connected, silent, and held open throughout.
    let mut idle_conns: Vec<TcpStream> = (0..idle)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();

    let device_start = shared.with_fs(|fs| device_clock_ns(fs));
    let wall = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = SeroClient::connect(addr).expect("connect");
                let mut lcg = Lcg(0xFEED ^ c as u64);
                let mut latencies = Vec::with_capacity(ops_per_client);
                for _ in 0..ops_per_client {
                    let name = hot_name((lcg.draw() % HOT_FILES as u64) as usize);
                    let t = Instant::now();
                    client.read(&name).expect("read");
                    latencies.push(t.elapsed().as_nanos());
                }
                latencies
            })
        })
        .collect();
    let latencies: Vec<u128> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("swarm client"))
        .collect();
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let device_ns = shared.with_fs(|fs| device_clock_ns(fs)) - device_start;

    // The idle sockets must have survived the whole swarm: a sampled few
    // still answer a ping each.
    for conn in idle_conns.iter_mut().take(16) {
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("deadline");
        write_frame(conn, FrameKind::Request, &Request::Ping.encode()).expect("idle ping");
        let (_, payload) = read_frame(conn).expect("idle recv").expect("idle response");
        assert_eq!(
            Response::decode(&payload).expect("pong"),
            Response::Pong,
            "an idle connection went dead under load"
        );
    }
    drop(idle_conns);
    handle.shutdown();
    Swarm {
        clients,
        idle,
        ops: clients * ops_per_client,
        wall_ms,
        device_ns,
        latencies,
    }
}

fn swarm_json(s: &Swarm) -> Json {
    Json::obj()
        .set("ops", s.ops)
        .set("wall_ms", s.wall_ms)
        .set("ops_per_s", s.ops_per_s())
        .set("device_ms", s.device_ns as f64 / 1e6)
        .set("ops_per_device_s", s.ops_per_device_s())
        .set("p50_us", us(percentile(&s.latencies, 0.50)))
        .set("p99_us", us(percentile(&s.latencies, 0.99)))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fast = fast_mode();
    let ops_per_client = if fast { 150 } else { 400 };
    let idle_ops_per_client = if fast { 80 } else { 200 };
    let swarm_sizes = [1usize, 2, 4, 8, 16];
    let idle_sizes = [0usize, 128, 256];
    println!(
        "EXP-REACTOR: {HOT_FILES} hot files, swarms {swarm_sizes:?} x {ops_per_client} ops{}\n",
        if fast { " (fast mode)" } else { "" },
    );

    // --- simulated depth-8 reference (deterministic) -----------------------
    let sim8 = run_depth(build_fs(ARCHIVE_FILES), TRACKED_CLIENTS, &read_script());
    let sim8_ops_per_device_s = sim8.ops_per_device_s();
    println!(
        "  simulated depth-{TRACKED_CLIENTS}: {SWEEP_OPS} reads in {:.2} ms device \
         ({sim8_ops_per_device_s:.0} ops/dev-s)",
        sim8.device_ns as f64 / 1e6,
    );

    // --- framed tamper drill ----------------------------------------------
    let tampered = run_framed_tamper();
    println!("  framed tamper drill: evidence found ({tampered} line)");

    // --- byte-identity against the serial replay ---------------------------
    let reactor_outs = run_reactor_script();
    let serial_outs = run_serial_script();
    assert_eq!(
        reactor_outs, serial_outs,
        "reactor responses must be byte-identical to the serial SeroFs::handle replay"
    );
    match Response::decode(&reactor_outs[TAMPERED_VERIFY]).expect("verify response") {
        Response::Error(e) if e.code == ErrorCode::TamperDetected => {}
        other => panic!("tamper evidence missing over the wire: {other:?}"),
    }
    let wire_script_commands = reactor_outs.len() as u64;
    println!(
        "  wire script: {wire_script_commands} commands byte-identical between the reactor \
         and the serial replay (tamper evidence included)\n"
    );

    // --- reactor swarms (host) --------------------------------------------
    let swarms: Vec<Swarm> = swarm_sizes
        .iter()
        .map(|&n| run_swarm(n, ops_per_client, 0))
        .collect();
    let widths = [10, 8, 12, 12, 14, 12];
    println!(
        "{}",
        row(
            &["clients", "ops", "p50", "p99", "ops/dev-s", "ops/s"],
            &widths
        )
    );
    for s in &swarms {
        println!(
            "{}",
            row(
                &[
                    &format!("{}", s.clients),
                    &format!("{}", s.ops),
                    &format!("{:.0} us", us(percentile(&s.latencies, 0.50))),
                    &format!("{:.0} us", us(percentile(&s.latencies, 0.99))),
                    &format!("{:.0}", s.ops_per_device_s()),
                    &format!("{:.0}", s.ops_per_s()),
                ],
                &widths
            )
        );
    }

    // The acceptance bar: the 8-client swarm must track the simulated
    // depth-8 admission curve on the only fair axis — device time.
    let swarm8 = swarms
        .iter()
        .find(|s| s.clients == TRACKED_CLIENTS)
        .expect("tracked swarm present");
    let tracking = swarm8.ops_per_device_s() / sim8_ops_per_device_s;
    println!(
        "\n  tracking: swarm-8 {:.0} ops/dev-s vs simulated depth-8 {:.0} ops/dev-s \
         = {tracking:.2}x (floor: {TRACKING_FLOOR})",
        swarm8.ops_per_device_s(),
        sim8_ops_per_device_s,
    );
    assert!(
        tracking >= TRACKING_FLOOR,
        "the swarm must track the simulated depth-8 admission curve within 20%, \
         got {tracking:.2}x — readiness batching is not forming deep windows"
    );

    // --- idle-connection axis (host) --------------------------------------
    let idle_swarms: Vec<Swarm> = idle_sizes
        .iter()
        .map(|&idle| run_swarm(TRACKED_CLIENTS, idle_ops_per_client, idle))
        .collect();
    for s in &idle_swarms {
        println!(
            "  idle axis: {} idle + {} active -> {:.0} ops/s, p99 {:.0} us",
            s.idle,
            s.clients,
            s.ops_per_s(),
            us(percentile(&s.latencies, 0.99)),
        );
    }

    let doc = Json::obj()
        .set("schema", "sero-bench/v1")
        .set("bench", "reactor")
        .set("fast_mode", fast)
        .set(
            "device",
            Json::obj()
                .set("blocks", DEVICE_BLOCKS)
                .set("hot_files", HOT_FILES)
                .set("hot_bytes", HOT_BYTES)
                .set("archive_files", ARCHIVE_FILES)
                .set("archive_bytes", ARCHIVE_BYTES)
                .set("sweep_ops", SWEEP_OPS)
                .set("ops_per_client", ops_per_client)
                .set("idle_ops_per_client", idle_ops_per_client),
        )
        .set(
            "metrics",
            Json::obj()
                .set("sim_depth8_ops_per_device_s", sim8_ops_per_device_s)
                .set("wire_script_commands", wire_script_commands)
                .set("responses_identical", 1u64)
                .set("tampered", tampered),
        )
        .set("host", {
            let mut host = Json::obj().set(
                "tracking",
                Json::obj()
                    .set("swarm_8_ops_per_device_s", swarm8.ops_per_device_s())
                    .set("sim_depth8_ops_per_device_s", sim8_ops_per_device_s)
                    .set("ratio", tracking)
                    .set("floor", TRACKING_FLOOR),
            );
            for s in &swarms {
                host = host.set(&format!("swarm_{}", s.clients), swarm_json(s));
            }
            for s in &idle_swarms {
                host = host.set(&format!("idle_{}", s.idle), swarm_json(s));
            }
            host
        });
    let path = bench_out_path("reactor");
    std::fs::write(&path, doc.render())?;
    println!("\n  wrote {}", path.display());

    // Latency tails per swarm — a CI artifact for humans, never compared.
    let entries: Vec<Json> = swarms
        .iter()
        .chain(idle_swarms.iter())
        .map(|s| {
            Json::obj()
                .set("clients", s.clients)
                .set("idle", s.idle)
                .set("ops", s.ops)
                .set("p50_us", us(percentile(&s.latencies, 0.50)))
                .set("p90_us", us(percentile(&s.latencies, 0.90)))
                .set("p99_us", us(percentile(&s.latencies, 0.99)))
                .set("max_us", us(*s.latencies.iter().max().expect("ops")))
                .set("wall_ms", s.wall_ms)
                .set("ops_per_s", s.ops_per_s())
                .set("ops_per_device_s", s.ops_per_device_s())
        })
        .collect();
    let trace = Json::obj()
        .set("schema", "sero-bench-trace/v1")
        .set("bench", "reactor")
        .set("swarms", Json::Arr(entries));
    let trace_path = trace_out_path("reactor_trace.json");
    std::fs::write(&trace_path, trace.render())?;
    println!("  wrote {}", trace_path.display());

    Ok(())
}
