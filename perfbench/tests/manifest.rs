//! `BENCHMARK.json` names exactly the metrics the benchmark reports.

use perfbench::report::{per_layer_metrics, END_TO_END};
use serde::Deserialize;

#[derive(Deserialize)]
struct Metric {
    name: String,
    unit: String,
    better: String,
}

#[derive(Deserialize)]
struct Manifest {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn manifest() -> Manifest {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn end_to_end_metrics_match() {
    let listed: Vec<(String, String)> = manifest()
        .end_to_end
        .into_iter()
        .map(|m| {
            assert_eq!(m.better, "lower", "{}", m.name);
            (m.name, m.unit)
        })
        .collect();
    let reported: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed, reported);
}

#[test]
fn per_layer_metrics_match() {
    let listed: Vec<(String, String, String)> = manifest()
        .per_layer
        .into_iter()
        .map(|m| (m.name, m.unit, m.better))
        .collect();
    let reported: Vec<(String, String, String)> = per_layer_metrics()
        .into_iter()
        .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
        .collect();
    assert_eq!(listed, reported);
}
