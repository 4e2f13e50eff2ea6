//! `BENCHMARK.json` must list exactly what the crate measures.

use base_benchmark::json::Json;
use base_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};
use base_benchmark::workloads::WORKLOADS;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn check_metrics(listed: &Json, defs: &[MetricDef], bounded: bool) {
    let listed = listed.as_array().expect("a list of metrics");
    assert_eq!(listed.len(), defs.len(), "metric count");
    for (entry, def) in listed.iter().zip(defs) {
        let field = |k: &str| {
            entry
                .get(k)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{k} of {}", def.name))
        };
        assert_eq!(field("name"), def.name);
        assert_eq!(field("unit"), def.unit, "{}", def.name);
        assert_eq!(field("better"), def.better.as_str(), "{}", def.name);
        assert!(name_ok(def.name) && unit_ok(def.unit), "{}", def.name);
        let keys = entry.as_object().expect("object").len();
        if bounded {
            let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
            assert_eq!(Some(bound), def.bound, "{}", def.name);
            assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
            assert_eq!(keys, 4);
        } else {
            assert_eq!(keys, 3, "{} carries no bound", def.name);
        }
    }
}

#[test]
fn manifest_matches_the_metric_tables() {
    let m = manifest();
    let keys: Vec<&str> = m
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    check_metrics(m.get("end_to_end").expect("end_to_end"), END_TO_END, true);
    check_metrics(m.get("per_layer").expect("per_layer"), PER_LAYER, false);
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);

    let workloads = m
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    for w in workloads {
        let why = w.get("why").and_then(Json::as_str).expect("why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }
    let mut all: Vec<&str> = names.clone();
    all.extend(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name));
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "a name is used twice");

    let seconds = m
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    assert_eq!(seconds, RUN_SECONDS as f64);
    // 4 + 22 runs per workload, plus two builds, inside the driver's cap.
    assert!((4.0 + 22.0 * WORKLOADS.len() as f64) * (seconds + 2.0) + 2.0 * 120.0 <= 3420.0);
    let paths = m.get("paths").and_then(Json::as_array).expect("paths");
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));
}
