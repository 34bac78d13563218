//! Self-test: a reduced shape of every workload, untraced and traced, must
//! emit every metric `BENCHMARK.json` lists, with its unit, and pass every
//! output check. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use pwu_perfbench::{end_to_end_catalog, per_layer_catalog, run, Scale, Workload};

#[test]
fn every_workload_emits_every_metric_and_passes_every_check() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run(workload, 7, Scale::Tiny, trace).expect("the workload runs");
            let label = format!("{} (trace {trace})", workload.name());
            let failed: Vec<_> = report.checks.iter().filter(|c| !c.passed).collect();
            assert!(failed.is_empty(), "{label}: failed checks {failed:?}");
            assert!(
                report.correct(),
                "{label}: a metric is missing or not finite"
            );
            let json = report.json();
            let rendered = report.render();
            assert_eq!(rendered.lines().last(), Some(json.as_str()), "{label}");
            assert!(
                json.starts_with(r#"{"correct": true, "attempted": "#),
                "{label}: {json}"
            );
            let catalog = if trace {
                per_layer_catalog()
            } else {
                end_to_end_catalog()
            };
            for (name, unit) in catalog {
                let value = report
                    .metric(&name)
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                let entry = format!(r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#);
                assert!(json.contains(&entry), "{label}: no {entry} in {json}");
                if !trace {
                    assert!(value > 0.0, "{label}: end-to-end metric {name} is {value}");
                }
            }
        }
    }
}

#[test]
fn the_catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    for workload in Workload::ALL {
        let entry = format!(r#"{{"name": "{}", "why": "#, workload.name());
        assert!(
            text.contains(&entry),
            "BENCHMARK.json lacks workload {entry}"
        );
    }
    let listed = text.matches(r#""unit": "#).count();
    let catalog: Vec<_> = end_to_end_catalog()
        .into_iter()
        .chain(per_layer_catalog())
        .collect();
    assert_eq!(listed, catalog.len(), "metric counts differ");
    for (name, unit) in catalog {
        let entry = format!(r#"{{"name": "{name}", "unit": "{unit}", "better": "#);
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
