//! `BENCHMARK.json` and the benchmark's own tables must name the same
//! workloads and metrics with the same units.

use promips_benchmark::spec::{Workload, END_TO_END, PER_LAYER};

fn manifest() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root")
}

/// The `"name": ..., "unit": ...` pairs of one top-level array.
fn pairs(json: &str, key: &str) -> Vec<(String, String)> {
    let array = json
        .split(&format!("\"{key}\": ["))
        .nth(1)
        .expect("key present");
    let array = array.split("\n  ]").next().unwrap();
    let field = |obj: &str, name: &str| {
        obj.split(&format!("\"{name}\": \""))
            .nth(1)
            .map(|rest| rest.split('"').next().unwrap().to_string())
    };
    array
        .split('{')
        .skip(1)
        .map(|obj| {
            (
                field(obj, "name").expect("name"),
                field(obj, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn manifest_matches_the_tables() {
    let json = manifest();
    assert_eq!(pairs(&json, "end_to_end"), owned(END_TO_END));
    assert_eq!(pairs(&json, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = pairs(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}
