//! The benchmark's command line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <interfaces|timing> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints people-readable lines (prefixed `#`), then, as the last line, one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`.

use lis_perfbench::{end_to_end, measure, per_layer, profile, Report, Size};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, seed, seconds, trace })
}

fn host() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| s.lines().find(|l| l.starts_with("model name")).map(|l| l.to_string()))
        .and_then(|l| l.split_once(':').map(|(_, m)| m.trim().to_string()))
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("cpu {cpu}; nproc {nproc}; {}", env!("PERFBENCH_RUSTC"))
}

fn result_line(r: &Report, trace: bool) -> String {
    let catalog = if trace { per_layer() } else { end_to_end() };
    let mut metrics = lis_core::JsonObj::new();
    for m in &catalog {
        let &(value, unit) =
            r.metrics.get(&m.name).unwrap_or_else(|| panic!("metric {} was measured", m.name));
        assert_eq!(unit, m.unit, "unit of {}", m.name);
        assert!(value.is_finite(), "metric {} is finite", m.name);
        let mut o = lis_core::JsonObj::new();
        // Every digit as measured: `Display` prints the shortest form
        // that reads back as the same f64.
        o.raw("value", &value.to_string()).str("unit", unit);
        metrics.raw(&m.name, &o.finish());
    }
    let mut o = lis_core::JsonObj::new();
    o.bool("correct", r.checks.failed == 0 && r.checks.attempted > 0)
        .u64("attempted", r.checks.attempted)
        .u64("failed", r.checks.failed)
        .raw("metrics", &metrics.finish());
    o.finish()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: lis-perfbench --workload <interfaces|timing> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        profile(&args.workload, args.seed, Size::Full)
    } else {
        measure(&args.workload, args.seed, args.seconds, Size::Full)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("# host: {}", host());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for n in &report.notes {
        println!("# {n}");
    }
    for (w, d) in &report.digests {
        println!("# digest {w} {d}");
    }
    println!(
        "# failed_ratio {} ({} of {} operations)",
        report.checks.failed as f64 / report.checks.attempted.max(1) as f64,
        report.checks.failed,
        report.checks.attempted
    );
    for f in &report.checks.first {
        println!("# FAILED: {f}");
    }
    println!("{}", result_line(&report, args.trace));
    ExitCode::SUCCESS
}
