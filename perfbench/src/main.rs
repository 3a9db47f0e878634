//! `sero-perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints every metric by name and unit, then, as the last line, one JSON
//! object: `correct`, `attempted`, `failed` and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits non-zero
//! when a correctness check fails. `--workload all` runs each workload
//! in its own process, so each `peak_rss_mb` is that workload's own.

use sero_perfbench::report::result_line;
use sero_perfbench::workloads::{run, Budget, Scale, Workload};
use sero_perfbench::{END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn run_all() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("current_exe: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        println!("== {}", w.name());
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        if let Some(i) = args.iter().position(|a| a == "--workload") {
            args[i + 1] = w.name().to_string();
        }
        match Command::new(&exe).args(&args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{}: {status}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("unknown workload {}", args.workload);
        return ExitCode::FAILURE;
    };
    let out = match run(
        workload,
        args.seed,
        &Scale::FULL,
        Budget::Seconds(args.seconds),
        args.trace,
    ) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    if !out.wrong.is_empty() {
        for w in &out.wrong {
            eprintln!("{}: INCORRECT: {w}", workload.name());
        }
        if let Some(rate) = out.e2e.get("error_rate") {
            eprintln!("{}: error_rate {rate:.6}", workload.name());
        }
        println!(
            "{}",
            result_line(false, out.attempted, out.failed, &Default::default())
        );
        return ExitCode::FAILURE;
    }
    let (metrics, names) = if args.trace {
        print!("{}", out.breakdown);
        (&out.layers, PER_LAYER)
    } else {
        (&out.e2e, END_TO_END)
    };
    for (name, value, unit) in &metrics.0 {
        println!("{name:<32} {value:>14.4} {unit}");
    }
    println!(
        "{}",
        result_line(true, out.attempted, out.failed, &metrics.select(names))
    );
    ExitCode::SUCCESS
}
