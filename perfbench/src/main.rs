//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--prj-serve PATH]`
//!
//! `--prj-serve` names the `prj-serve` executable the cluster workload
//! spawns its workers from (default: next to this executable); `run.sh`
//! builds both.
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`), each with
//! its unit. A readable report goes to standard error. Exits 1 on any wrong
//! answer, 2 on a bad command line or a stack that cannot be set up.

use perfbench::{run, Budget, Config, Report, Size, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut prj_serve = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_string()),
                })
            }
            "--prj-serve" => prj_serve = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let trace = trace.unwrap_or(false);
    let worker_exe = match prj_serve {
        Some(path) => path,
        None => std::env::current_exe()
            .map_err(|e| format!("current_exe: {e}"))?
            .with_file_name("prj-serve"),
    };
    Ok(Config {
        workload,
        seed,
        budget: Budget::Seconds(seconds.ok_or("--seconds is required")?),
        trace,
        size: Size::full(workload),
        worker_exe,
        span_file: trace.then(|| {
            PathBuf::from(format!(
                "perfbench/out/spans-{}-seed{seed}.tsv",
                workload.name()
            ))
        }),
        corrupt_one_answer: false,
    })
}

fn print_report(config: &Config, report: &Report) {
    eprintln!(
        "perfbench {} seed {} ({})",
        config.workload.name(),
        config.seed,
        if config.trace { "traced" } else { "untraced" }
    );
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if let Some(value) = report.metrics.get(name) {
            eprintln!("  {name:<32} {value:>14.4} {unit}");
        }
    }
    for note in &report.notes {
        eprintln!("  # {note}");
    }
    if !report.layers.is_empty() {
        eprintln!(
            "  {:<28} {:>8} {:>14} {:>14}",
            "span", "count", "mean_us", "self_mean_us"
        );
        for (name, row) in &report.layers {
            let per = |ns: u64| ns as f64 / row.count.max(1) as f64 / 1e3;
            eprintln!(
                "  {name:<28} {:>8} {:>14.2} {:>14.2}",
                row.count,
                per(row.total_ns),
                per(row.self_ns)
            );
        }
    }
}

fn json(config: &Config, report: &Report) -> String {
    let names = if config.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
                report.get(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&config) {
        Ok(report) => {
            print_report(&config, &report);
            println!("{}", json(&config, &report));
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: wrong answers; see failed_ratio");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
