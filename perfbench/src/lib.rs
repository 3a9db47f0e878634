//! Host-time benchmark of the SERO stack as `sero-server` deploys it.
//!
//! Three workloads ([`workloads::Workload`]) each load some layers and
//! bypass others; a traced run ([`layers`]) times calls into every
//! layer's public API on copies of the workload's state. See the
//! README beside this crate for the metrics and what each should move.

pub mod gen;
pub mod layers;
pub mod report;
pub mod wire;
pub mod workloads;

/// End-to-end metrics, emitted by every untraced run (`--trace 0`).
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "latency_p50_us",
    "peak_rss_mb",
];

/// Per-layer metrics, emitted by every traced run (`--trace 1`).
pub const PER_LAYER: &[&str] = &[
    "server.ping_p50_us",
    "server.window_depth",
    "proto.request_encode_ns",
    "proto.request_decode_ns",
    "proto.response_encode_ns",
    "proto.response_decode_ns",
    "proto.bytes_per_op",
    "fs.read_us",
    "fs.write_us",
    "fs.create_us",
    "fs.heat_us",
    "fs.verify_us",
    "fs.blocks_read_per_op",
    "fs.blocks_written_per_op",
    "fs.cleaner_copied_per_op",
    "core.reads_merged_per_batch",
    "core.blocks_deduped",
    "core.heat_line_us",
    "core.verify_line_us",
    "core.scrub_serial_s",
    "core.device_clone_ms",
    "core.device_us_per_op",
    "probe.mrs_us",
    "probe.mws_us",
    "probe.ers_us",
    "probe.ews_us",
    "probe.mrs_per_op",
    "probe.mws_per_op",
    "probe.ers_per_op",
    "probe.ews_per_op",
    "probe.seeks_per_op",
    "probe.mrb_per_op",
    "media.detect_ns_per_dot",
    "media.heat_ns_per_dot",
    "codec.sector_decode_us",
    "codec.sector_encode_us",
    "crypto.sha256_mib_per_s",
    "index.put_us",
    "index.get_us",
    "index.get_reads",
    "trace.latency_p50_us",
    "trace.untraced_latency_p50_us",
    "trace.overhead_us",
    "trace.residual_us",
];
