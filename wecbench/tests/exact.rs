//! End-to-end checks of the benchmark binary on its real inputs, with the
//! smallest work quotas (`--seconds 1`): every workload answers correctly
//! in both modes, and the exact metrics (ratios of charged costs) repeat
//! bit for bit across runs and across `WEC_THREADS` 1 and 2.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["oracle_build", "cc_dense", "query_cold", "wire_hot"];
const EXACT: [&str; 4] = [
    "writes_per_edge",
    "work_per_edge",
    "reads_per_query",
    "writes_per_query",
];

/// Run one workload and return its result line.
fn result_line(workload: &str, threads: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_wecbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace])
        .env("WEC_THREADS", threads)
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success(), "{workload}: exit {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    assert!(
        last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0,"),
        "{workload} (trace {trace}): {last}"
    );
    last
}

/// The printed value text of `name` in a result line.
fn value<'a>(line: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
    line[at..].split(',').next().expect("a value")
}

#[test]
fn exact_metrics_repeat_across_runs_and_thread_counts() {
    for w in WORKLOADS {
        let runs = [
            result_line(w, "2", "0"),
            result_line(w, "2", "0"),
            result_line(w, "1", "0"),
        ];
        for name in EXACT {
            let first = value(&runs[0], name);
            assert!(
                first.parse::<f64>().is_ok_and(|v| v > 0.0),
                "{w}: {name} = {first}"
            );
            assert_eq!(
                first,
                value(&runs[1], name),
                "{w}: {name} differs between runs"
            );
            assert_eq!(
                first,
                value(&runs[2], name),
                "{w}: {name} differs at 1 thread"
            );
        }
    }
}

#[test]
fn traced_runs_are_correct_and_report_their_overhead() {
    for w in WORKLOADS {
        let line = result_line(w, "2", "1");
        assert!(
            value(&line, "trace.overhead_pct").parse::<f64>().is_ok(),
            "{w}"
        );
        assert!(
            !line.contains("\"qps\""),
            "{w}: end-to-end metric in a traced run"
        );
    }
}
