//! EXP-SCRUB — whole-device scrub: sharded parallel verify vs the serial
//! `verify_line` loop.
//!
//! The paper's §5.2 argument assumes whole-device verification is routine;
//! this experiment puts numbers on it. A 64 MiB simulated device gets a
//! population of heated lines, then every line is verified twice: once as
//! the serial one-line-at-a-time loop, once sharded over parallel scrub
//! workers (each modelling an independent probe-region controller with its
//! own channel and clock). Both times are **simulated device time**, so
//! the speedup is deterministic and host-independent; host wall times are
//! reported alongside for reference.
//!
//! After the full pass the experiment keeps going: it heats a small
//! *delta* of new lines, tampers with one of them, and runs an
//! **incremental** scrub (see [`sero_core::scrub::ScrubMode`]) against a
//! full pass on a clone — the incremental pass must verify ≥10× fewer
//! lines while reporting identical tamper evidence.
//!
//! Memory is barred too: every clone — the serial reference, the eight
//! workers, the full-pass twin — shares the medium's dot pages
//! copy-on-write, so the process peak (`VmHWM`) must stay within twice
//! the resident set after set-up, i.e. within two devices' worth.
//!
//! Emits `BENCH_scrub.json` (schema `sero-bench/v1`, see `sero-bench`'s
//! crate docs). `SERO_BENCH_FAST=1` heats fewer lines for CI; the device
//! stays ≥ 64 MiB either way.

use sero_bench::json::Json;
use sero_bench::{bench_out_path, fast_mode, row};
use sero_core::device::SeroDevice;
use sero_core::line::Line;
use sero_core::scrub::{scrub_device, ScrubConfig};
use sero_probe::sector::SECTOR_DATA_BYTES;
use std::time::Instant;

/// 64 MiB of 512-byte blocks.
const DEVICE_BLOCKS: u64 = 131_072;
const LINE_ORDER: u32 = 4; // 16-block lines: 1 hash + 15 data
const WORKERS: usize = 8;

/// A `/proc/self/status` field in MB (`VmRSS`, `VmHWM`), or `None` where
/// the file cannot be read.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kb / 1024.0)
}

fn fill_and_heat(
    dev: &mut SeroDevice,
    first_line: u64,
    lines: u64,
) -> Result<Vec<Line>, Box<dyn std::error::Error>> {
    let line_len = 1u64 << LINE_ORDER;
    let mut heated = Vec::with_capacity(lines as usize);
    let mut requests = Vec::with_capacity(lines as usize);
    for i in first_line..first_line + lines {
        let line = Line::new(i * line_len, LINE_ORDER)?;
        let pbas: Vec<u64> = line.data_blocks().collect();
        let sectors: Vec<[u8; SECTOR_DATA_BYTES]> = pbas
            .iter()
            .map(|&pba| {
                let mut s = [0u8; SECTOR_DATA_BYTES];
                for (j, b) in s.iter_mut().enumerate() {
                    *b = (pba as u8).wrapping_mul(37).wrapping_add(j as u8);
                }
                s
            })
            .collect();
        dev.write_blocks(&pbas, &sectors)?;
        requests.push((line, b"scrub-bench".to_vec(), 1_199_145_600));
        heated.push(line);
    }
    for result in dev.heat_lines(requests) {
        result?;
    }
    Ok(heated)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fast = fast_mode();
    let lines_to_heat: u64 = if fast { 96 } else { 1024 };
    let line_len = 1u64 << LINE_ORDER;
    let device_bytes = DEVICE_BLOCKS * SECTOR_DATA_BYTES as u64;

    println!(
        "EXP-SCRUB: {} MiB device, {lines_to_heat} heated lines of {line_len} blocks, {WORKERS} workers{}\n",
        device_bytes / (1024 * 1024),
        if fast { " (fast mode)" } else { "" },
    );

    // --- populate: fill and heat the line region ------------------------
    let host_setup = Instant::now();
    let mut dev = SeroDevice::with_blocks(DEVICE_BLOCKS);
    fill_and_heat(&mut dev, 0, lines_to_heat)?;
    let setup_ms = host_setup.elapsed().as_secs_f64() * 1e3;
    let setup_rss_mb = status_mb("VmRSS");

    // --- serial reference: the one-line-at-a-time verify loop -----------
    let mut serial_dev = dev.clone();
    let host_serial = Instant::now();
    let serial = scrub_device(&mut serial_dev, &ScrubConfig::with_workers(1))?;
    let serial_host_ms = host_serial.elapsed().as_secs_f64() * 1e3;
    let serial_ns = serial.summary.device_ns;

    // --- sharded scrub ---------------------------------------------------
    let host_parallel = Instant::now();
    let report = scrub_device(&mut dev, &ScrubConfig::with_workers(WORKERS))?;
    let parallel_host_ms = host_parallel.elapsed().as_secs_f64() * 1e3;
    let parallel_ns = report.summary.device_ns;

    // Sharding must not change what verification sees.
    assert_eq!(report.outcomes.len(), serial.outcomes.len());
    for (p, s) in report.outcomes.iter().zip(serial.outcomes.iter()) {
        assert_eq!(p, s, "parallel scrub diverged from serial on {}", p.line);
    }

    // --- incremental pass after a small delta ---------------------------
    // The full pass above completed epoch 1. Heat a small delta of new
    // lines, tamper with one of them, and compare an incremental pass (the
    // delta only) against a full pass on a clone (everything).
    let delta_lines: u64 = lines_to_heat / 12;
    let delta = fill_and_heat(&mut dev, lines_to_heat, delta_lines)?;
    let victim = delta[delta.len() / 2];
    dev.probe_mut().mws(victim.start() + 1, &[0xEE; 512])?;

    let mut full_dev = dev.clone();
    let full_after = scrub_device(&mut full_dev, &ScrubConfig::with_workers(WORKERS))?;
    let incr_t0 = dev.probe().clock().elapsed_ns();
    let incremental = scrub_device(&mut dev, &ScrubConfig::incremental(WORKERS))?;
    let incremental_ns = dev.probe().clock().elapsed_ns() - incr_t0;

    // The incremental pass covers exactly the delta and reports the same
    // tamper evidence the full pass finds.
    assert_eq!(incremental.summary.lines as u64, delta_lines);
    assert_eq!(incremental.summary.skipped as u64, lines_to_heat);
    assert_eq!(incremental.summary.tampered, 1);
    assert_eq!(full_after.summary.tampered, 1);
    let incr_tampered: Vec<_> = incremental.tampered_lines().collect();
    let full_tampered: Vec<_> = full_after.tampered_lines().collect();
    assert_eq!(
        incr_tampered, full_tampered,
        "incremental evidence diverged from the full pass"
    );
    let reduction = full_after.summary.lines as f64 / incremental.summary.lines as f64;
    let peak_rss_mb = status_mb("VmHWM");

    let speedup = serial_ns as f64 / parallel_ns as f64;
    let parallel_s = parallel_ns as f64 / 1e9;
    let data_mib = report.summary.data_bytes as f64 / (1024.0 * 1024.0);

    let widths = [26, 16, 16, 10];
    println!(
        "{}",
        row(&["path", "device time", "host time", "lines/s"], &widths)
    );
    for (name, ns, host_ms, lines) in [
        (
            "serial verify_line loop",
            serial_ns,
            serial_host_ms,
            serial.summary.lines,
        ),
        (
            "sharded scrub (8 workers)",
            parallel_ns,
            parallel_host_ms,
            report.summary.lines,
        ),
    ] {
        println!(
            "{}",
            row(
                &[
                    name,
                    &format!("{:.1} ms", ns as f64 / 1e6),
                    &format!("{host_ms:.0} ms"),
                    &format!("{:.0}", lines as f64 / (ns as f64 / 1e9)),
                ],
                &widths
            )
        );
    }
    println!(
        "\n  intact {} / tampered {} / {:.1} MiB of protected data re-hashed",
        report.summary.intact, report.summary.tampered, data_mib
    );
    println!(
        "  device-time speedup: {speedup:.2}x (acceptance bar: >= 3x) : {}",
        if speedup >= 3.0 { "PASS" } else { "FAIL" }
    );
    println!(
        "  incremental pass: {} verified / {} skipped in {:.1} ms — {reduction:.1}x fewer lines than full (bar: >= 10x) : {}",
        incremental.summary.lines,
        incremental.summary.skipped,
        incremental_ns as f64 / 1e6,
        if reduction >= 10.0 { "PASS" } else { "FAIL" }
    );
    // Host-time and memory figures stay out of "metrics": they vary by
    // host. The RSS bar is asserted; sharded ≤ serial host time is only
    // recorded, since a host-time assert fails on a loaded machine.
    let rss_bar = setup_rss_mb.zip(peak_rss_mb);
    match rss_bar {
        Some((setup, peak)) => println!(
            "  peak RSS: {peak:.1} MB vs {setup:.1} MB after set-up (bar: <= 2x one device) : {}",
            if peak <= 2.0 * setup { "PASS" } else { "FAIL" }
        ),
        None => println!("  peak RSS: /proc/self/status unreadable, bar skipped"),
    }
    let sharded_le_serial = parallel_host_ms <= serial_host_ms;
    println!(
        "  sharded host time {parallel_host_ms:.0} ms vs serial {serial_host_ms:.0} ms: sharded <= serial {sharded_le_serial} (recorded, not asserted)"
    );

    let mut host = Json::obj()
        .set("setup_ms", setup_ms)
        .set("serial_ms", serial_host_ms)
        .set("parallel_ms", parallel_host_ms)
        .set("sharded_le_serial", sharded_le_serial);
    if let Some((setup, peak)) = rss_bar {
        host = host.set("setup_rss_mb", setup).set("peak_rss_mb", peak);
    }
    let doc = Json::obj()
        .set("schema", "sero-bench/v1")
        .set("bench", "scrub")
        .set("fast_mode", fast)
        .set(
            "device",
            Json::obj()
                .set("blocks", DEVICE_BLOCKS)
                .set("bytes", device_bytes)
                .set("heated_lines", lines_to_heat)
                .set("line_order", LINE_ORDER as u64)
                .set("delta_lines", delta_lines)
                .set("workers", WORKERS),
        )
        .set(
            "metrics",
            Json::obj()
                .set("serial_device_ms", serial_ns as f64 / 1e6)
                .set("parallel_device_ms", parallel_ns as f64 / 1e6)
                .set("speedup", speedup)
                .set("lines", report.summary.lines)
                .set("lines_per_s", report.summary.lines as f64 / parallel_s)
                .set("mib_per_s", data_mib / parallel_s)
                .set("intact", report.summary.intact)
                .set("tampered", report.summary.tampered)
                .set("incremental_device_ms", incremental_ns as f64 / 1e6)
                .set("incremental_verified", incremental.summary.lines)
                .set("incremental_skipped", incremental.summary.skipped)
                .set("incremental_tampered", incremental.summary.tampered)
                .set("incremental_reduction", reduction),
        )
        .set("host", host);
    let path = bench_out_path("scrub");
    std::fs::write(&path, doc.render())?;
    println!("  wrote {}", path.display());

    assert!(
        speedup >= 3.0,
        "sharded scrub speedup {speedup:.2}x below the 3x acceptance bar"
    );
    assert!(
        reduction >= 10.0,
        "incremental scrub verified only {reduction:.1}x fewer lines than full, below the 10x bar"
    );
    if let Some((setup, peak)) = rss_bar {
        assert!(
            peak <= 2.0 * setup,
            "peak RSS {peak:.1} MB exceeds twice the {setup:.1} MB after set-up"
        );
    }
    Ok(())
}
