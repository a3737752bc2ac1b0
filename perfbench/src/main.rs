//! Command-line entry point of the benchmark.
//!
//! ```text
//! perfbench --workload <nmea_ingest|fusion_adapt|fleet_soak> --seed <n>
//!           --seconds <s> --trace <0|1> [--size <full|small>]
//! ```
//!
//! Prints a report, a metadata line, and as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics traced. Exits 1 when an output
//! check failed, 2 on a usage error.

use std::process::ExitCode;

use perfbench::{stats, Config, Outcome, Size, Workload, END_TO_END, PER_LAYER};
use perpos_core::prelude::machine_parallelism;

const USAGE: &str = "usage: perfbench --workload <nmea_ingest|fusion_adapt|fleet_soak> \
                     --seed <n> --seconds <s> --trace <0|1> [--size <full|small>]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "small" => Size::Small,
                    _ => return Err(format!("--size takes full or small, got {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        size,
    })
}

/// The result object: the declared metrics of the mode, in declared
/// order. A per-layer metric the workload does not exercise reads 0; a
/// missing end-to-end metric is a failure.
fn result_line(cfg: &Config, out: &mut Outcome) -> String {
    let declared = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let value = match out.value(name) {
            Some(v) if v.is_finite() => v,
            found => {
                if !cfg.trace || found.is_some() {
                    out.check(false, || format!("metric {name} not measured: {found:?}"));
                }
                0.0
            }
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = perfbench::run(&cfg);
    let result = result_line(&cfg, &mut out);

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for line in &out.notes {
        println!("  {line}");
    }
    for m in &out.metrics {
        println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<40} {:>16.4} ratio",
        "error_ratio",
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for failure in &out.failures {
        println!("  FAILED: {failure}");
    }
    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"size\": \"{:?}\", \"cores\": {}, \"commit\": \"{}\", \"profile\": \"{}\"}}}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.size,
        machine_parallelism(),
        stats::commit(),
        stats::profile()
    );
    println!("{result}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
