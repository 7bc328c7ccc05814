//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The metric names and units come from
//! `BENCHMARK.json` there. With `--trace 0` the run reports every
//! end-to-end metric, with `--trace 1` every per-layer metric, measured
//! from spans the benchmark records around each call into a layer; the
//! spans go to `.perfbench_out/`. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for the workloads and the metric map.

mod attn;
mod dse_grid;
mod host;
mod outcome;
mod serving;
mod span;
mod stats;

use outcome::Outcome;
use span::Tracer;
use std::fmt::Write as _;
use std::process::ExitCode;

const SPEC_FILE: &str = "BENCHMARK.json";
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| {
                    format!("--seed expects a non-negative integer, got {value:?}")
                })?);
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds expects a positive number, got {value:?}"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A metric declared in `BENCHMARK.json`.
struct Declared {
    name: String,
    unit: String,
}

struct Spec {
    workloads: Vec<String>,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

fn load_spec() -> Result<Spec, String> {
    let text =
        std::fs::read_to_string(SPEC_FILE).map_err(|e| format!("cannot read {SPEC_FILE}: {e}"))?;
    let v: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{SPEC_FILE}: {e}"))?;
    let list = |key: &str| -> Result<Vec<serde_json::Value>, String> {
        v.get(key)
            .and_then(serde_json::Value::as_array)
            .cloned()
            .ok_or_else(|| format!("{SPEC_FILE}: missing list {key:?}"))
    };
    let field = |item: &serde_json::Value, key: &str| -> Result<String, String> {
        item.get(key)
            .and_then(serde_json::Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("{SPEC_FILE}: entry without {key:?}"))
    };
    let metrics = |key: &str| -> Result<Vec<Declared>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(Declared {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                })
            })
            .collect()
    };
    Ok(Spec {
        workloads: list("workloads")?
            .iter()
            .map(|w| field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

fn run_workload(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    // The FMA peak is the base of the stage peak fractions; it is measured
    // in traced runs only, so it never shares a run with end-to-end timing.
    let fma_peak = if args.trace {
        host::fma_peak_gflops()
    } else {
        0.0
    };
    let (seed, secs) = (args.seed, args.seconds);
    let mut out = match args.workload.as_str() {
        "dse_grid" => dse_grid::run(seed, secs, tr),
        "serve_chat" => serving::serve_chat(seed, secs, tr),
        "fleet_prefix" => serving::fleet_prefix(seed, secs, tr),
        "attn_prefill" => attn::run(seed, secs, fma_peak, tr),
        other => return Err(format!("workload {other:?} has no implementation")),
    };
    out.put("peak_rss_mb", host::peak_rss_mib(), "MiB", 1);
    if args.trace {
        out.put("host.fma_peak_gflops", fma_peak, "GFLOP/s", 5);
    }
    Ok(out)
}

/// The declared metrics in order, from the outcome. An end-to-end metric
/// the run did not produce is an error; a per-layer metric of a layer the
/// workload does not exercise reads 0 with 0 samples.
fn select(
    out: &Outcome,
    declared: &[Declared],
    required: bool,
) -> Result<Vec<outcome::Metric>, String> {
    declared
        .iter()
        .map(|d| match out.get(&d.name) {
            Some(m) if m.unit == d.unit => Ok(m.clone()),
            Some(m) => Err(format!(
                "{}: measured in {} but declared in {}",
                d.name, m.unit, d.unit
            )),
            None if required => Err(format!("{}: not measured by this workload", d.name)),
            None => Ok(outcome::Metric {
                name: d.name.clone(),
                value: 0.0,
                unit: "",
                samples: 0,
            }),
        })
        .collect()
}

fn write_spans(args: &Args, tr: &Tracer) -> std::io::Result<String> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!("{OUT_DIR}/spans-{}-seed{}.json", args.workload, args.seed);
    std::fs::write(&path, tr.to_json())?;
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match load_spec() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if !spec.workloads.contains(&args.workload) {
        eprintln!(
            "error: unknown workload {:?} (expected one of {})",
            args.workload,
            spec.workloads.join("|")
        );
        return ExitCode::from(2);
    }
    println!("host {}", host::fingerprint());

    let mut tr = Tracer::new(args.trace);
    let out = match run_workload(&args, &mut tr) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (declared, required) = if args.trace {
        (&spec.per_layer, false)
    } else {
        (&spec.end_to_end, true)
    };
    let metrics = match select(&out, declared, required) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        match write_spans(&args, &tr) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => eprintln!("warning: spans not written: {e}"),
        }
    }
    for why in &out.failures {
        println!("FAILED: {why}");
    }
    println!(
        "{:<44} {:>16} {:<8} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &metrics {
        println!(
            "{:<44} {:>16.6} {:<8} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "{:<44} {:>16.6} {:<8} {:>8}",
        "error_rate",
        out.error_rate(),
        "ratio",
        out.attempted
    );

    let finite = metrics.iter().all(|m| m.value.is_finite());
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0 && finite,
        out.attempted,
        out.failed
    );
    for (i, (m, d)) in metrics.iter().zip(declared).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values are not JSON; they already fail `correct`.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv("--workload dse_grid --seed 7 --seconds 10 --trace 1"))
            .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("dse_grid", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse_args(&argv("--workload x --seed -1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1")).is_err());
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error() {
        let mut out = Outcome::default();
        out.put("a", 1.0, "s", 1);
        let declared = [
            Declared {
                name: "a".into(),
                unit: "s".into(),
            },
            Declared {
                name: "b".into(),
                unit: "s".into(),
            },
        ];
        assert!(select(&out, &declared, true).is_err());
        let layer = select(&out, &declared, false).expect("per-layer defaults to 0");
        assert_eq!((layer[1].value, layer[1].samples), (0.0, 0));
    }
}
