//! Golden test for the `meda profile` observability pipeline: the
//! telemetry JSON export must keep a schema-stable key set, the span tree
//! must attribute ≥90% of the run to named stages, and the hot-path
//! counters instrumented across the workspace must actually fire.
//!
//! Everything runs inside ONE test function: profiling uses the
//! process-global telemetry registry, and `cargo test` runs test
//! functions in threads within one process.

use meda::profile::{profile_assay, render_table, ProfileOptions};
use meda::telemetry::export::{events_to_jsonl, summary_to_string};
use meda::telemetry::Json;

#[test]
fn profile_emits_schema_stable_json() {
    let options = ProfileOptions {
        k_max: 500,
        ..ProfileOptions::default()
    };
    let report = profile_assay("master-mix", &options).expect("master-mix profiles");

    // ≥90% of the root span must be attributed to named stages — the
    // acceptance bar the CLI also enforces.
    assert!(
        report.coverage >= 0.9,
        "span coverage {:.3} below the 90% bar",
        report.coverage
    );
    assert!(report.total_ns > 0);

    // The aggregated sink parses back and has exactly the documented
    // top-level keys, in order.
    let text = summary_to_string(&report.summary);
    let doc = Json::parse(text.trim()).expect("telemetry.json parses");
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("top level is an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["schema", "spans", "counters", "histograms"],
        "telemetry.json top-level keys drifted"
    );
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("meda-telemetry/1")
    );

    // The span tree contains the stage spans the profiler promises.
    let span_paths: Vec<String> = doc
        .get("spans")
        .and_then(Json::as_arr)
        .expect("spans array")
        .iter()
        .map(|s| {
            s.get("path")
                .and_then(Json::as_str)
                .expect("span has a path")
                .to_string()
        })
        .collect();
    for expected in ["total", "total/plan", "total/setup", "total/run"] {
        assert!(
            span_paths.iter().any(|p| p == expected),
            "missing span {expected:?} in {span_paths:?}"
        );
    }
    // Each span object carries the full stat key set.
    let first = &doc.get("spans").and_then(Json::as_arr).expect("spans")[0];
    for key in ["path", "depth", "count", "total_ns", "min_ns", "max_ns"] {
        assert!(first.get(key).is_some(), "span object lost key {key:?}");
    }

    // The cross-crate instrumentation fired: MDP construction, solver,
    // and simulation counters all present with sane values. Counters and
    // histograms are arrays of named objects (see export.rs).
    let counters = doc
        .get("counters")
        .and_then(Json::as_arr)
        .expect("counters");
    let counter = |name: &str| {
        counters
            .iter()
            .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|c| c.get("value").and_then(Json::as_f64))
            .unwrap_or_else(|| panic!("counter {name:?} missing"))
    };
    assert!(counter("core.mdp.builds") >= 1.0);
    assert!(counter("core.mdp.states") > 0.0);
    assert!(counter("synth.solve.pmax.count") >= 1.0);
    assert!(counter("synth.solve.rmin.count") >= 1.0);
    assert!(counter("sim.cycles") > 0.0);
    assert!(counter("sim.actuated_cells") > 0.0);

    // The residual-trajectory histogram recorded at least one sweep.
    let histograms = doc
        .get("histograms")
        .and_then(Json::as_arr)
        .expect("histograms");
    let residuals = histograms
        .iter()
        .find(|h| h.get("name").and_then(Json::as_str) == Some("synth.solve.residual_p12"))
        .expect("residual histogram missing");
    assert!(residuals.get("count").and_then(Json::as_f64) > Some(0.0));

    // The JSONL event sink emits one parseable object per line.
    let jsonl = events_to_jsonl(&report.events);
    assert!(!jsonl.is_empty(), "no span events captured");
    for line in jsonl.lines() {
        let event = Json::parse(line).expect("event line parses");
        for key in ["path", "depth", "start_ns", "dur_ns"] {
            assert!(event.get(key).is_some(), "event lost key {key:?}");
        }
    }

    // The human table renders and mentions the stage tree + coverage.
    let table = render_table(&report);
    assert!(table.contains("total"));
    assert!(table.contains("coverage"));
}
