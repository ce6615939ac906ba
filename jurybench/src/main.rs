//! `jurybench` — the repository's end-to-end benchmark (see README.md).
//!
//! ```console
//! $ cargo run --release --manifest-path jurybench/Cargo.toml -- \
//!     --workload warm_http --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Lines before it that
//! start with `#` are ungated diagnostics.

mod hostspeed;
mod inputs;
mod layers;
mod lifecycle;
mod stats;

use lifecycle::{Hooks, Metric, Outcome};
use std::process::ExitCode;

const USAGE: &str = "usage: jurybench --workload <warm_http|cold_build|checkpoint_churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static lifecycle::Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    lifecycle::shape(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The result line. A metric without samples is a failure: it prints as
/// 0 and the run is marked incorrect.
fn result_line(outcome: &Outcome) -> String {
    let missing = outcome.metrics.iter().filter(|m| m.value.is_none()).count() as u64;
    let correct = outcome.tally.failed == 0 && missing == 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|Metric { name, unit, value }| {
            let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.attempted.max(1),
        outcome.tally.failed + missing,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome =
        lifecycle::run(args.workload, args.seed, args.seconds, args.trace, Hooks::default());
    for line in &outcome.diagnostics {
        println!("# {line}");
    }
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// Metric names `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = serde::json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(key)
            .and_then(Value::as_array)
            .expect("a metric list")
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).expect("a name").to_string())
            .collect()
    }

    fn tiny_run(name: &str, trace: bool, hooks: Hooks) -> Outcome {
        let shape = lifecycle::shape(name).expect("a listed workload").tiny();
        lifecycle::run(&shape, 7, 0.4, trace, hooks)
    }

    #[test]
    fn every_workload_prints_every_declared_metric() {
        for shape in &lifecycle::WORKLOADS {
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let outcome = tiny_run(shape.name, trace, Hooks::default());
                let printed: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
                assert_eq!(printed, declared(key), "{} trace={trace}", shape.name);
                assert_eq!(outcome.tally.failed, 0, "{}: {:?}", shape.name, outcome.tally.notes);
                let line = result_line(&outcome);
                let parsed = serde::json::parse(&line).expect("the result line is JSON");
                assert_eq!(parsed.get("correct").and_then(Value::as_bool), Some(true), "{line}");
                if !trace {
                    for m in &outcome.metrics {
                        assert!(
                            m.value.is_some_and(|v| v > 0.0),
                            "{}: {} is {:?}",
                            shape.name,
                            m.name,
                            m.value
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn an_injected_answer_mismatch_is_a_failed_operation() {
        let outcome = tiny_run("warm_http", false, Hooks { corrupt_answer: true });
        assert_eq!(outcome.tally.failed, 1, "{:?}", outcome.tally.notes);
        let line = result_line(&outcome);
        assert!(line.starts_with("{\"correct\": false, "), "{line}");
    }

    #[test]
    fn bad_arguments_are_refused() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse(&args("--workload warm_http --seed 1 --seconds 10 --trace 0")).is_ok());
        assert!(parse(&args("--workload nope --seed 1 --seconds 10 --trace 0")).is_err());
        assert!(parse(&args("--workload warm_http --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse(&args("--workload warm_http --seed 1 --seconds 10 --trace 2")).is_err());
        assert!(parse(&args("--workload warm_http --seed 1 --seconds 10")).is_err());
    }
}
