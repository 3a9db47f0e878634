//! EXP-CONCURRENCY — queue depth against the single-mutex baseline.
//!
//! The command path is re-entrant: the `sero-server` reactor and any
//! in-process caller share one
//! [`ConcurrentFs`](sero_fs::concurrent::ConcurrentFs), whose combiner
//! drains staged requests through the admission scheduler
//! ([`sero_core::admission`]) instead of serializing every caller on a
//! global file-system mutex. This experiment measures what that buys on
//! the only axis a one-sled device has — **device time** — and proves it
//! costs nothing on the axis that matters most, the tamper evidence.
//!
//! * **Depth sweep** (the compared `"metrics"`): the shared hot-read
//!   script ([`sero_bench::hot_reads`]) replays against identical file
//!   systems at queue depths 1, 2, 4, 8 and 16 (`handle_batch` models
//!   `n` clients arriving within one combining window). This is the
//!   repository's one depth curve; `exp_reactor` checks its real-socket
//!   swarm against the depth-8 point. Depth 1 *is* the old global-mutex
//!   schedule: one op per batch, nothing to merge. Deeper queues let the
//!   admission scheduler coalesce reads into elevator sweeps; the sweep's
//!   simulated device nanoseconds are the metric. `throughput_x8` — the
//!   depth-1 over depth-8 device time — is asserted **≥ 2.5×**. Every
//!   depth must produce byte-identical responses.
//! * **Scrub interleaving**: a budgeted scrub pass ticks between read
//!   batches at depth 8, with one heated line tampered mid-workload. The
//!   identical request sequence replays serialized (depth 1); both runs
//!   must find the planted evidence, answer every read and verify
//!   byte-identically, and finish with byte-identical line registries —
//!   the "evidence ≡ serialized schedule" invariant, asserted here on
//!   top of the `concurrency_props` proptests.
//! * **Thread swarm** (the informational `"host"`): 8 real threads
//!   hammering one `ConcurrentFs` versus the same workload behind a
//!   plain `Mutex<SeroFs>` — wall-clock ops/s, never compared in CI.
//!
//! Emits `BENCH_concurrency.json` (schema `sero-bench/v1`, compared
//! **blocking** in CI). `SERO_BENCH_FAST=1` shrinks only the host swarm —
//! the deterministic phases are identical in both modes.

use sero_bench::hot_reads::{
    archive_name, build_fs, hot_name, read_script, run_depth, Lcg, ARCHIVE_BYTES, DEVICE_BLOCKS,
    HOT_BYTES, HOT_FILES, SWEEP_OPS,
};
use sero_bench::json::Json;
use sero_bench::{bench_out_path, device_clock_ns, fast_mode, row};
use sero_core::device::LineRecord;
use sero_proto::{ErrorCode, Request, Response, WireSchedState};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Archival files heated (and one tampered) for the scrub phase.
const ARCHIVE_FILES: usize = 16;

/// Device-time budget per scrub slice in the interleaved phase.
const SCRUB_BUDGET_NS: u64 = 300_000;

/// One scrub-interleaved replay at the given depth: heat the archive,
/// tamper one line raw, start a budgeted pass, then alternate read
/// windows with scrub ticks until the pass completes. Returns the
/// foreground responses, the post-scrub verify responses, the final
/// registry, the tick count, and the phase's device ns.
fn run_scrub_phase(
    depth: usize,
    script: &[Request],
) -> (Vec<Response>, Vec<Response>, Vec<LineRecord>, u64, u128) {
    let cfs = build_fs(ARCHIVE_FILES);
    let mut lines = Vec::new();
    for i in 0..ARCHIVE_FILES {
        match cfs.handle(Request::Heat {
            name: archive_name(i),
            metadata: b"exp-concurrency".to_vec(),
            timestamp: 1_199_145_600 + i as u64,
        }) {
            Response::Heated { line } => lines.push(line.to_line().expect("wire line")),
            other => panic!("heat refused: {other:?}"),
        }
    }
    // The §5 insider rewrites one protected block through the raw probe.
    cfs.with_fs(|fs| {
        fs.device_mut()
            .probe_mut()
            .mws(lines[ARCHIVE_FILES / 2].start() + 1, &[0xEE; 512])
            .expect("raw write");
    });
    cfs.with_fs(|fs| fs.device_mut().probe_mut().park_at(0));
    let start = cfs.with_fs(|fs| device_clock_ns(fs));
    match cfs.handle(Request::ScrubStart {
        budget_ns: SCRUB_BUDGET_NS,
        quantum_ns: 0,
        incremental: false,
    }) {
        Response::ScrubStarted { pending, .. } => assert_eq!(pending as usize, ARCHIVE_FILES),
        other => panic!("scrub start refused: {other:?}"),
    }

    let mut responses = Vec::new();
    let mut ticks = 0u64;
    let mut cursor = 0usize;
    loop {
        let window: Vec<Request> = (0..8)
            .map(|_| {
                let req = script[cursor % script.len()].clone();
                cursor += 1;
                req
            })
            .collect();
        for chunk in window.chunks(depth) {
            responses.extend(cfs.handle_batch(chunk.to_vec()));
        }
        ticks += 1;
        assert!(ticks < 10_000, "budgeted pass failed to converge");
        match cfs.handle(Request::ScrubTick) {
            Response::ScrubTicked { status, .. } => {
                if status.state == WireSchedState::Complete {
                    assert_eq!(status.verified as usize, ARCHIVE_FILES);
                    assert_eq!(status.tampered, 1, "the planted evidence must be found");
                    break;
                }
            }
            other => panic!("scrub tick refused: {other:?}"),
        }
    }
    let elapsed = cfs.with_fs(|fs| device_clock_ns(fs)) - start;

    let verdicts: Vec<Response> = (0..ARCHIVE_FILES)
        .map(|i| {
            cfs.handle(Request::Verify {
                name: archive_name(i),
            })
        })
        .collect();
    let mut registry: Vec<LineRecord> =
        cfs.with_fs(|fs| fs.device().heated_lines().cloned().collect());
    registry.sort_by_key(|r| r.line.start());
    (responses, verdicts, registry, ticks, elapsed)
}

/// Wall-clock ops/s for `threads` workers draining `ops_each` reads
/// through `work`.
fn swarm<F>(threads: usize, ops_each: usize, work: F) -> f64
where
    F: Fn(usize) + Send + Sync + 'static,
{
    let work = Arc::new(work);
    let wall = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let work = Arc::clone(&work);
            std::thread::spawn(move || {
                let mut lcg = Lcg(0xBEEF ^ t as u64);
                for _ in 0..ops_each {
                    work((lcg.draw() % HOT_FILES as u64) as usize);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("swarm worker");
    }
    (threads * ops_each) as f64 / wall.elapsed().as_secs_f64()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fast = fast_mode();
    let swarm_ops = if fast { 60 } else { 250 };
    println!(
        "EXP-CONCURRENCY: {HOT_FILES} hot files, {SWEEP_OPS}-op script, depths 1/2/4/8/16{}\n",
        if fast { " (fast mode)" } else { "" },
    );

    // --- depth sweep ------------------------------------------------------
    let script = read_script();
    let depths = [1usize, 2, 4, 8, 16];
    let mut device_ns = Vec::new();
    let mut baseline_responses: Option<Vec<Response>> = None;
    let mut merged_at_8 = (0u64, 0u64);
    let widths = [8, 14, 14, 12, 12];
    println!(
        "{}",
        row(
            &["depth", "device ms", "ops/dev-s", "merged", "deduped"],
            &widths
        )
    );
    for &depth in &depths {
        let run = run_depth(build_fs(ARCHIVE_FILES), depth, &script);
        if depth == 8 {
            merged_at_8 = (run.reads_merged, run.blocks_deduped);
        }
        println!(
            "{}",
            row(
                &[
                    &format!("{depth}"),
                    &format!("{:.2}", run.device_ns as f64 / 1e6),
                    &format!("{:.0}", run.ops_per_device_s()),
                    &format!("{}", run.reads_merged),
                    &format!("{}", run.blocks_deduped),
                ],
                &widths
            )
        );
        device_ns.push(run.device_ns);
        match &baseline_responses {
            None => baseline_responses = Some(run.responses),
            Some(base) => assert_eq!(
                base, &run.responses,
                "depth {depth} changed a response — merging must be invisible"
            ),
        }
    }
    let ratio = |d: usize| {
        device_ns[0] as f64 / device_ns[depths.iter().position(|&x| x == d).unwrap()] as f64
    };
    let (x2, x4, x8, x16) = (ratio(2), ratio(4), ratio(8), ratio(16));
    println!("\n  depth-8 throughput: {x8:.2}x the single-mutex schedule (bar: >= 2.5x)");
    assert!(
        x8 >= 2.5,
        "admission merging must clear the 2.5x acceptance bar, got {x8:.2}x"
    );

    // --- scrub interleaving ----------------------------------------------
    let (fg8, verdicts8, registry8, ticks8, scrub8_ns) = run_scrub_phase(8, &script);
    let (fg1, verdicts1, registry1, ticks1, scrub1_ns) = run_scrub_phase(1, &script);
    assert_eq!(
        fg8, fg1,
        "foreground responses must match the serialized schedule"
    );
    assert_eq!(
        verdicts8, verdicts1,
        "verify verdicts must match the serialized schedule"
    );
    assert_eq!(
        registry8, registry1,
        "the line registry — the tamper evidence — must be byte-identical"
    );
    let tampered = verdicts8
        .iter()
        .filter(|v| matches!(v, Response::Error(e) if e.code == ErrorCode::TamperDetected))
        .count();
    assert_eq!(tampered, 1, "exactly the planted line is tampered");
    println!(
        "  scrub interleaved at depth 8: {ticks8} ticks, {:.2} ms device \
         (serial: {ticks1} ticks, {:.2} ms); evidence identical, 1 tampered line found",
        scrub8_ns as f64 / 1e6,
        scrub1_ns as f64 / 1e6,
    );

    // --- host thread swarm ------------------------------------------------
    let concurrent = build_fs(ARCHIVE_FILES);
    let concurrent_ops_s = swarm(8, swarm_ops, move |i| {
        assert!(matches!(
            concurrent.handle(Request::Read { name: hot_name(i) }),
            Response::Data { .. }
        ));
    });
    let mutexed = Arc::new(Mutex::new(
        build_fs(ARCHIVE_FILES)
            .try_into_fs()
            .ok()
            .expect("sole owner"),
    ));
    let mutexed_ops_s = swarm(8, swarm_ops, move |i| {
        let mut fs = mutexed.lock().expect("unpoisoned");
        assert!(matches!(
            fs.handle(Request::Read { name: hot_name(i) }),
            Response::Data { .. }
        ));
    });
    println!(
        "  host swarm (8 threads): {concurrent_ops_s:.0} ops/s combined vs \
         {mutexed_ops_s:.0} ops/s mutexed (wall clock, informational)"
    );

    let doc = Json::obj()
        .set("schema", "sero-bench/v1")
        .set("bench", "concurrency")
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
                .set("scrub_budget_ns", SCRUB_BUDGET_NS)
                .set("swarm_ops_per_thread", swarm_ops),
        )
        .set(
            "metrics",
            Json::obj()
                .set("depth_1_device_ms", device_ns[0] as f64 / 1e6)
                .set("depth_2_device_ms", device_ns[1] as f64 / 1e6)
                .set("depth_4_device_ms", device_ns[2] as f64 / 1e6)
                .set("depth_8_device_ms", device_ns[3] as f64 / 1e6)
                .set("depth_16_device_ms", device_ns[4] as f64 / 1e6)
                .set("throughput_x2", x2)
                .set("throughput_x4", x4)
                .set("throughput_x8", x8)
                .set("throughput_x16", x16)
                .set("reads_merged_at_8", merged_at_8.0)
                .set("blocks_deduped_at_8", merged_at_8.1)
                .set("scrub_depth8_device_ms", scrub8_ns as f64 / 1e6)
                .set("scrub_serial_device_ms", scrub1_ns as f64 / 1e6)
                .set("scrub_ticks_depth8", ticks8)
                .set("scrub_ticks_serial", ticks1)
                .set("lines_verified", ARCHIVE_FILES)
                .set("tampered", 1u64)
                .set("evidence_identical", 1u64),
        )
        .set(
            "host",
            Json::obj()
                .set("concurrent_ops_per_s", concurrent_ops_s)
                .set("mutexed_ops_per_s", mutexed_ops_s)
                .set("swarm_speedup", concurrent_ops_s / mutexed_ops_s),
        );
    let path = bench_out_path("concurrency");
    std::fs::write(&path, doc.render())?;
    println!("\n  wrote {}", path.display());
    Ok(())
}
