//! Runs the suite binary in `--smoke` size (sf 0.01, two rounds, probes at
//! 1 %) on every workload in both trace modes, the way the benchmark
//! driver runs it, and checks the output against `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

use accordion_common::json::Json;

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn names(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// One smoke run; returns the parsed last line of stdout.
fn smoke(workload: &str, trace: u8, out: &Path) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_accordion-suite"))
        .args(["--smoke", "--workload", workload, "--seed", "7"])
        .args(["--trace", &trace.to_string()])
        .arg("--out")
        .arg(out)
        .output()
        .expect("suite binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout.trim_end().lines().last().expect("a result line");
    Json::parse(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {line}"))
}

fn value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing or not a number"))
}

/// Every metric the spec names is there, finite, with the spec's unit —
/// and nothing else is.
fn check_metrics(result: &Json, expected: &[(String, String)], context: &str) {
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{context}"
    );
    assert_eq!(
        result.get("correct").unwrap().as_bool(),
        Some(true),
        "{context}"
    );
    assert_eq!(result.get("failed").unwrap().as_u64(), Some(0), "{context}");
    assert!(result.get("attempted").unwrap().as_u64().unwrap() >= 1);
    let got = result.get("metrics").unwrap().as_obj().unwrap();
    for (name, unit) in expected {
        let m = got
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("{context}: metric {name} missing"));
        assert!(
            value(result, name).is_finite(),
            "{context}: {name} not finite"
        );
        assert_eq!(
            m.1.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{context}: unit of {name}"
        );
    }
    assert_eq!(
        got.len(),
        expected.len(),
        "{context}: metrics the spec does not name"
    );
}

fn check_trace_file(out: &Path, workload: &str) {
    let path = out.join(format!("trace_{workload}.json"));
    let trace = Json::parse(&std::fs::read_to_string(&path).expect("trace file written")).unwrap();
    let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
    assert!(!spans.is_empty(), "{workload}: no spans");
    let field = |s: &Json, k: &str| s.get(k).and_then(Json::as_u64).unwrap();
    for s in spans {
        assert!(field(s, "end_ns") >= field(s, "start_ns"));
        assert!(field(s, "self_ns") <= field(s, "end_ns") - field(s, "start_ns"));
        if let Some(p) = s.get("parent").and_then(Json::as_u64) {
            let parent = &spans[p as usize];
            assert!(field(s, "start_ns") >= field(parent, "start_ns"));
            assert!(field(s, "end_ns") <= field(parent, "end_ns"));
            assert_eq!(field(s, "stmt_id"), field(parent, "stmt_id"));
        }
    }
}

#[test]
fn every_workload_reports_every_metric_of_the_spec() {
    let spec = spec();
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    let workloads: Vec<String> = names_of_workloads(&spec);
    assert_eq!(
        workloads,
        accordion_suite::workloads::all()
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
    );
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("suite_smoke");
    let mut traced = Vec::new();
    for w in &workloads {
        check_metrics(&smoke(w, 0, &out), &end_to_end, &format!("{w} --trace 0"));
        let result = smoke(w, 1, &out);
        check_metrics(&result, &per_layer, &format!("{w} --trace 1"));
        check_trace_file(&out, w);
        traced.push(result);
    }
    // The workloads separate: shuffles move at least ten times the bytes
    // of the scan-and-aggregate round, only the deadline workload may
    // retune, only the distributed one leaves the process.
    let of = |w: &str, name: &str| {
        value(
            &traced[workloads.iter().position(|x| x == w).unwrap()],
            name,
        )
    };
    assert!(
        of("join_shuffle", "net.exchange_bytes") >= 10.0 * of("scan_agg", "net.exchange_bytes")
    );
    assert_eq!(of("scan_agg", "cluster.retunes_per_query"), 0.0);
    assert_eq!(of("join_shuffle", "cluster.retunes_per_query"), 0.0);
    assert_eq!(of("dist_shuffle", "cluster.retunes_per_query"), 0.0);
    assert!(
        of("dist_shuffle", "net.remote_slots") >= 4.0,
        "one per statement"
    );
    assert_eq!(of("join_shuffle", "net.remote_slots"), 0.0);
    assert!(of("dist_shuffle", "span.core.fleet_run_sql_frac") > 0.5);
    assert_eq!(of("scan_agg", "span.core.fleet_run_sql_frac"), 0.0);
}

fn names_of_workloads(spec: &Json) -> Vec<String> {
    spec.get("workloads")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json has workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

/// A bare directory with only the benchmark's files must fail without a
/// result; here the cheap half of that: a bad argument prints no result.
#[test]
fn a_bad_invocation_fails_without_a_result_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_accordion-suite"))
        .args(["--workload", "no_such_workload"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown workload"), "{stderr}");
}
