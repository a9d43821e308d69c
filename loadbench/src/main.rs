//! Client→server load benchmark for the `iyp` binary.
//!
//! Starts the release `iyp` as a child process, drives it over loopback
//! with the shipped `iyp_server::Client` on two closed-loop
//! connections, checks every answer against a reference computed
//! in-process, and prints one JSON result line last. See `README.md`
//! for the workloads, the metrics, and how the per-layer metrics map
//! onto the end-to-end ones.
//!
//! ```text
//! loadbench --iyp PATH --workload paper_mix|cached_mix --seed N
//!           --seconds N --trace 0|1
//! ```

mod child;
mod reference;
mod run;
mod stats;
mod stream;
mod trace;

use run::{Config, Report, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(argv: impl IntoIterator<Item = String>) -> Result<Config, String> {
    let mut argv = argv.into_iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut iyp) = (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?)
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seconds must be an integer")?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--iyp" => iyp = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds < 2 {
        return Err("--seconds must be at least 2".into());
    }
    let trace = trace.unwrap_or(false);
    let run_dir = PathBuf::from(".loadbench_run");
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        iyp: iyp.ok_or("--iyp is required")?,
        work: run_dir.join(format!("work-{}", std::process::id())),
        spans: run_dir.join(format!("spans-{}-{seed}.jsonl", workload.name())),
    })
}

fn print(report: &Report) {
    println!("facts {}", report.facts);
    for (name, value, unit) in &report.metrics {
        println!("  {name:<36} {value:>14.4} {unit}");
    }
    let metrics: serde_json::Map<String, serde_json::Value> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                serde_json::json!({ "value": value, "unit": unit }),
            )
        })
        .collect();
    let result = serde_json::json!({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    });
    println!("{result}");
}

fn main() -> ExitCode {
    let cfg = match parse(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("loadbench: create {}: {e}", cfg.work.display());
        return ExitCode::FAILURE;
    }
    let outcome = run::run(&cfg);
    if outcome.is_err() {
        if let Ok(log) = std::fs::read_to_string(cfg.work.join("server.log")) {
            let tail: Vec<&str> = log.lines().rev().take(20).collect();
            for line in tail.iter().rev() {
                eprintln!("iyp serve: {line}");
            }
        }
    }
    let cleaned = std::fs::remove_dir_all(&cfg.work);
    match outcome {
        Ok(report) => {
            if let Err(e) = cleaned {
                eprintln!("loadbench: remove {}: {e}", cfg.work.display());
            }
            print(&report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loadbench: {e}");
            ExitCode::FAILURE
        }
    }
}
