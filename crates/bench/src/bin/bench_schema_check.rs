//! `bench_schema_check` — CI guard for `BENCH_service.json`'s shape.
//!
//! Every service emitter owns one section of `BENCH_service.json` and
//! re-inserts only that section. A refactor that silently drops a
//! previously-present section would erase a perf trajectory without anyone
//! noticing, so CI runs this check after the smoke emitters: it fails
//! (non-zero exit) unless every required section is present and
//! non-trivial.
//!
//! ```console
//! $ cargo run --release -p jury-bench --bin bench_schema_check
//! ```

use serde::{json, Value};
use std::process::ExitCode;

/// Every section an emitter has ever published, with the emitter that
/// owns it. Grows monotonically: removing an entry here is a reviewed
/// decision, not an accident.
const REQUIRED_SECTIONS: [(&str, &str); 8] = [
    ("results", "service_throughput"),
    ("staircase", "staircase_throughput"),
    ("altrm", "altrm_throughput"),
    ("multi_tenant", "multi_tenant_throughput"),
    ("frontend", "frontend_throughput"),
    ("insert", "insert_throughput"),
    ("restart", "restart_throughput"),
    ("failover", "failover_throughput"),
];

fn main() -> ExitCode {
    let path = "BENCH_service.json";
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("[schema] cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(Value::Object(fields)) = json::parse(&text).ok() else {
        eprintln!("[schema] {path} is not a JSON object");
        return ExitCode::FAILURE;
    };
    let mut missing = Vec::new();
    for (section, emitter) in REQUIRED_SECTIONS {
        let present = fields.iter().any(|(key, value)| {
            key == section
                && match value {
                    // Sections are objects with a non-empty "results"
                    // array, except the top-level results array itself.
                    Value::Array(rows) => !rows.is_empty(),
                    Value::Object(inner) => inner.iter().any(|(k, v)| {
                        k == "results" && matches!(v, Value::Array(rows) if !rows.is_empty())
                    }),
                    _ => false,
                }
        });
        if !present {
            missing.push((section, emitter));
        }
    }
    // Field-level guard: every "restart" row must carry the
    // incremental-checkpoint figures, not just the restore ones — a
    // regression to the full-rewrite emitter would otherwise keep the
    // section present while silently dropping the trajectory.
    let restart_rows_ok = fields.iter().any(|(key, value)| {
        key == "restart"
            && match value {
                Value::Object(inner) => inner.iter().any(|(k, v)| {
                    k == "results"
                        && matches!(v, Value::Array(rows) if !rows.is_empty()
                            && rows.iter().all(row_has_checkpoint_fields))
                }),
                _ => false,
            }
    });

    if missing.is_empty() && restart_rows_ok {
        println!("[schema] {path}: all {} sections present", REQUIRED_SECTIONS.len());
        return ExitCode::SUCCESS;
    }
    for (section, emitter) in &missing {
        eprintln!("[schema] {path}: section \"{section}\" missing or empty (re-run {emitter})");
    }
    if !restart_rows_ok {
        eprintln!(
            "[schema] {path}: \"restart\" rows lack the incremental-checkpoint fields \
             {CHECKPOINT_FIELDS:?} (re-run restart_throughput)"
        );
    }
    ExitCode::FAILURE
}

/// The incremental-checkpoint figures every restart row must report.
const CHECKPOINT_FIELDS: [&str; 4] = [
    "checkpoint_written",
    "checkpoint_full_secs",
    "checkpoint_incremental_secs",
    "checkpoint_speedup",
];

fn row_has_checkpoint_fields(row: &Value) -> bool {
    match row {
        Value::Object(fields) => {
            CHECKPOINT_FIELDS.iter().all(|want| fields.iter().any(|(key, _)| key == want))
        }
        _ => false,
    }
}
