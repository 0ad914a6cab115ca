//! `BENCHMARK.json` at the repository root names exactly the workloads
//! and metrics this benchmark runs and prints.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workloads::Workload;
use serde_json::Value;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).expect("a string field")
}

fn list<'a>(m: &'a Value, key: &str) -> &'a Value {
    m.get(key).expect("a top-level list")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a metric list")
        .iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect()
}

fn expected(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn manifest_lists_every_workload() {
    let m = manifest();
    let names: Vec<&str> = list(&m, "workloads")
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn manifest_lists_every_metric_with_its_unit() {
    let m = manifest();
    assert_eq!(
        names_and_units(list(&m, "end_to_end")),
        expected(END_TO_END)
    );
    assert_eq!(names_and_units(list(&m, "per_layer")), expected(PER_LAYER));
}
