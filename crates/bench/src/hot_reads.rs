//! The hot-read depth curve shared by `exp_concurrency` and `exp_reactor`.
//!
//! One population — [`HOT_FILES`] single-block hot files followed by a
//! caller-sized archival set — and one shuffled read script, replayed at a
//! queue depth through
//! [`ConcurrentFs::handle_batch`](sero_fs::concurrent::ConcurrentFs::handle_batch).
//! `exp_concurrency` sweeps the depths and compares the curve;
//! `exp_reactor` takes the depth-8 point as the reference its real-socket
//! swarm must track.

use crate::device_clock_ns;
use sero_core::device::SeroDevice;
use sero_fs::concurrent::ConcurrentFs;
use sero_fs::fs::{FsConfig, SeroFs};
use sero_proto::{Request, Response, WireClass};

/// Blocks on the benchmark device.
pub const DEVICE_BLOCKS: u64 = 8192;

/// Small hot files: one data block each, so the depth curve is dominated
/// by head movement (the thing queue depth can actually save) rather
/// than by streaming the payloads themselves.
pub const HOT_FILES: usize = 384;
/// Bytes per hot file.
pub const HOT_BYTES: usize = 400;

/// Bytes per archival file.
pub const ARCHIVE_BYTES: usize = 1100;

/// Reads in the depth-curve script (divisible by every swept depth).
pub const SWEEP_OPS: usize = 192;

/// Deterministic shuffle source.
pub struct Lcg(pub u64);

impl Lcg {
    /// The next 31-bit draw.
    pub fn draw(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Name of hot file `i`.
pub fn hot_name(i: usize) -> String {
    format!("hot-{i:03}")
}

/// Name of archival file `i`.
pub fn archive_name(i: usize) -> String {
    format!("arch-{i:02}")
}

/// A fresh file system with the benchmark population: the hot
/// single-block files spread along the log, then `archive_files`
/// archival files behind them.
///
/// # Panics
///
/// Panics if the device refuses a create (it is sized so it never does).
pub fn build_fs(archive_files: usize) -> ConcurrentFs {
    let fs = SeroFs::format(SeroDevice::with_blocks(DEVICE_BLOCKS), FsConfig::default())
        .expect("format succeeds");
    let cfs = ConcurrentFs::new(fs);
    for i in 0..HOT_FILES {
        let resp = cfs.handle(Request::Create {
            name: hot_name(i),
            data: vec![i as u8 + 1; HOT_BYTES],
            class: WireClass::Normal,
        });
        assert!(matches!(resp, Response::Created { .. }), "{resp:?}");
    }
    for i in 0..archive_files {
        let resp = cfs.handle(Request::Create {
            name: archive_name(i),
            data: vec![0x40 | i as u8; ARCHIVE_BYTES],
            class: WireClass::Archival,
        });
        assert!(matches!(resp, Response::Created { .. }), "{resp:?}");
    }
    cfs
}

/// The shuffled [`SWEEP_OPS`]-read script every depth replays
/// identically.
pub fn read_script() -> Vec<Request> {
    let mut lcg = Lcg(0x5EC0_2008);
    (0..SWEEP_OPS)
        .map(|_| Request::Read {
            name: hot_name((lcg.draw() % HOT_FILES as u64) as usize),
        })
        .collect()
}

/// One replay of the read script at one queue depth.
pub struct DepthRun {
    /// Simulated device time the replay took.
    pub device_ns: u128,
    /// Every response, in script order.
    pub responses: Vec<Response>,
    /// Reads the admission scheduler merged into sweeps.
    pub reads_merged: u64,
    /// Blocks read once for several merged requests.
    pub blocks_deduped: u64,
}

impl DepthRun {
    /// Script reads per simulated device second.
    pub fn ops_per_device_s(&self) -> f64 {
        self.responses.len() as f64 / (self.device_ns as f64 / 1e9)
    }
}

/// Replays `script` against `cfs` in windows of `depth` requests, each
/// one [`ConcurrentFs::handle_batch`] call — `depth` clients arriving
/// within one combining window. Depth 1 is the one-op-at-a-time
/// schedule.
pub fn run_depth(cfs: ConcurrentFs, depth: usize, script: &[Request]) -> DepthRun {
    // Population leaves the sled at the log head, far past the hot set.
    // Park it at track 0 so every depth starts from the same resting
    // position and the metric measures the steady-state schedule, not one
    // shared warm-up seek.
    cfs.with_fs(|fs| fs.device_mut().probe_mut().park_at(0));
    let start = cfs.with_fs(|fs| device_clock_ns(fs));
    let mut responses = Vec::with_capacity(script.len());
    for window in script.chunks(depth) {
        responses.extend(cfs.handle_batch(window.to_vec()));
    }
    let device_ns = cfs.with_fs(|fs| device_clock_ns(fs)) - start;
    let stats = cfs.admission_stats();
    DepthRun {
        device_ns,
        responses,
        reads_merged: stats.reads_merged,
        blocks_deduped: stats.blocks_deduped,
    }
}
