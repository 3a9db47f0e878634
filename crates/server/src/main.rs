//! `sero-server` — serve a freshly formatted SERO device over TCP.
//!
//! ```text
//! sero-server [--addr HOST:PORT] [--blocks N] [--allow-raw]
//!             [--max-connections N]
//!             [--read-timeout-ms N] [--write-timeout-ms N]
//! ```
//!
//! One readiness-driven event loop on a single thread serves every
//! connection.
//!
//! `--max-connections` caps live connections: a newcomer past the cap is
//! answered with a typed `server-busy` refusal frame and closed instead
//! of silently queueing.
//!
//! `--read-timeout-ms` / `--write-timeout-ms` set the per-connection
//! deadlines (0 disables); an idle or stalled peer past its read
//! deadline is reaped rather than holding an event-loop slot.
//!
//! `--allow-raw` additionally serves the raw-write attack surface, for
//! tamper drills (the CI smoke test heats a file, raw-writes into its
//! line, and expects the next verify to answer TAMPER-DETECTED).

use sero_core::device::SeroDevice;
use sero_fs::fs::{FsConfig, SeroFs};
use sero_server::{SeroServer, ServerConfig};
use std::process::ExitCode;

struct Args {
    addr: String,
    blocks: u64,
    config: ServerConfig,
}

fn parse_timeout_ms(s: &str) -> Result<Option<std::time::Duration>, String> {
    let ms: u64 = s.parse().map_err(|e| format!("{e}"))?;
    Ok((ms > 0).then(|| std::time::Duration::from_millis(ms)))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:4150".to_string(),
        blocks: 4096,
        config: ServerConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} wants a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--blocks" => {
                args.blocks = value("--blocks")?
                    .parse()
                    .map_err(|e| format!("--blocks: {e}"))?;
            }
            "--max-connections" => {
                args.config.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?;
            }
            "--allow-raw" => args.config.allow_raw = true,
            "--read-timeout-ms" => {
                args.config.read_timeout = parse_timeout_ms(&value("--read-timeout-ms")?)
                    .map_err(|e| format!("--read-timeout-ms: {e}"))?;
            }
            "--write-timeout-ms" => {
                args.config.write_timeout = parse_timeout_ms(&value("--write-timeout-ms")?)
                    .map_err(|e| format!("--write-timeout-ms: {e}"))?;
            }
            "--help" | "-h" => {
                return Err("usage: sero-server [--addr HOST:PORT] [--blocks N] \
                     [--allow-raw] [--max-connections N] \
                     [--read-timeout-ms N] [--write-timeout-ms N]"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let fs = match SeroFs::format(SeroDevice::with_blocks(args.blocks), FsConfig::default()) {
        Ok(fs) => fs,
        Err(e) => {
            eprintln!("format failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match SeroServer::bind(&args.addr, fs, args.config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {} failed: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("listening on {addr}"),
        Err(e) => {
            eprintln!("local_addr failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = server.run() {
        eprintln!("server failed: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
