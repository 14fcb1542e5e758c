//! `BENCHMARK.json` lists exactly the workloads and metrics the benchmark
//! prints, with the same units, and the result line has the agreed shape.

use pimbench::report::{Metrics, RunReport, E2E, LAYER};
use pimbench::workloads::WORKLOADS;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
}

/// Every `"key": "value"` string pair of `key` in `text`, in order.
fn strings(text: &str, key: &str) -> Vec<String> {
    let pat = format!("\"{key}\": \"");
    text.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &text[i + pat.len()..];
            rest[..rest.find('"').expect("a closed string")].to_string()
        })
        .collect()
}

fn section<'a>(text: &'a str, from: &str, to: Option<&str>) -> &'a str {
    let start = text.find(from).expect("section present");
    let end = to.map_or(text.len(), |t| text.find(t).expect("section present"));
    &text[start..end]
}

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let text = benchmark_json();
    let workloads = section(&text, "\"workloads\"", Some("\"end_to_end\""));
    assert_eq!(strings(workloads, "name"), WORKLOADS);
    let e2e = section(&text, "\"end_to_end\"", Some("\"per_layer\""));
    let want: Vec<(String, String)> =
        E2E.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    let got: Vec<(String, String)> =
        strings(e2e, "name").into_iter().zip(strings(e2e, "unit")).collect();
    assert_eq!(got, want);
    let layer = section(&text, "\"per_layer\"", None);
    let want: Vec<(String, String)> =
        LAYER.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    let got: Vec<(String, String)> =
        strings(layer, "name").into_iter().zip(strings(layer, "unit")).collect();
    assert_eq!(got, want);
}

#[test]
fn the_result_line_carries_every_metric_of_the_run_kind() {
    let mut m = Metrics::default();
    m.e2e("query_p50_ms", 0.5, 10);
    let report = RunReport::new("ssb-stream", m, pimbench::check::Accounting::new(10));
    let untraced = report.json(false);
    assert!(untraced
        .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
    for (name, unit) in E2E {
        assert!(untraced.contains(&format!("\"{name}\": {{\"value\": ")), "{name}");
        assert!(untraced.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
    }
    let traced = report.json(true);
    assert!(LAYER.iter().all(|(name, _)| traced.contains(&format!("\"{name}\""))));
    assert!(!traced.contains("query_p50_ms"));
}
