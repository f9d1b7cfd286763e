//! End-to-end observability pipeline: `generate` → `discover` with all
//! three artifact outputs → `report`, asserting the trace is structurally
//! valid Chrome trace_event JSON, the cfdiag stream is complete, and the
//! HTML dashboard carries every panel.
//!
//! Runs as an integration test (own process) because discover flips
//! process-global observability state (trace recorder, diag writer,
//! metrics sink) that must not race the library unit tests.

use cf_cli::{
    run_analyze, run_discover, run_generate, run_report, AnalyzeArgs, DiscoverArgs, GenerateArgs,
    ReportArgs,
};
use serde_json::Value;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cf_report_e2e_{}_{name}", std::process::id()))
}

#[test]
fn discover_artifacts_render_into_report() {
    let csv = tmp("fork.csv");
    let metrics = tmp("metrics.jsonl");
    let trace = tmp("trace.json");
    let trace_1t = tmp("trace_1t.json");
    let diag = tmp("diag.cfdiag");
    let html_path = tmp("report.html");

    run_generate(&GenerateArgs {
        dataset: "fork".into(),
        length: 200,
        seed: 3,
        output: csv.to_string_lossy().into_owned(),
        store_out: None,
        chunk_len: 65536,
        codec: "delta-varint".into(),
    })
    .unwrap();

    // Baseline run at 1 thread: the `--compare` / `--compare-trace`
    // baseline for scaling attribution.
    run_discover(&DiscoverArgs {
        input: csv.to_string_lossy().into_owned(),
        store: None,
        max_windows: None,
        preset: "synthetic-sparse".into(),
        window: Some(8),
        epochs: Some(3),
        seed: 3,
        threads: Some(1),
        dtype: causalformer::Dtype::F64,
        dot: None,
        save: None,
        metrics_out: None,
        trace_out: Some(trace_1t.to_string_lossy().into_owned()),
        diag_out: None,
        heartbeat_out: None,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
        log_level: None,
        quiet: true,
    })
    .unwrap();

    let report = run_discover(&DiscoverArgs {
        input: csv.to_string_lossy().into_owned(),
        store: None,
        max_windows: None,
        preset: "synthetic-sparse".into(),
        window: Some(8),
        epochs: Some(3),
        seed: 3,
        threads: Some(2),
        dtype: causalformer::Dtype::F64,
        dot: None,
        save: None,
        metrics_out: Some(metrics.to_string_lossy().into_owned()),
        trace_out: Some(trace.to_string_lossy().into_owned()),
        diag_out: Some(diag.to_string_lossy().into_owned()),
        heartbeat_out: None,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
        log_level: None,
        quiet: true,
    })
    .unwrap();
    assert!(report.contains("trace written to"), "{report}");
    assert!(report.contains("diagnostics written to"), "{report}");

    // The trace must be loadable Chrome trace_event JSON with thread
    // metadata, complete spans from the pipeline stages, and worker
    // timelines from cf-par.
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    let v: Value = serde_json::from_str(&trace_text).unwrap();
    let events = v.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty());
    let phase = |ph: &str, name: &str| {
        events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some(ph)
                && e.get("name").and_then(Value::as_str) == Some(name)
        })
    };
    assert!(phase("M", "thread_name"), "thread metadata missing");
    for span in ["discover", "train", "epoch", "detect", "par.job"] {
        assert!(phase("X", span), "span {span:?} missing from trace");
    }
    assert!(
        v.get("traceEpochUnix").and_then(Value::as_f64).is_some(),
        "trace epoch anchor missing"
    );

    // The diagnostics stream: header + one record per epoch + detect.
    let diag_text = std::fs::read_to_string(&diag).unwrap();
    assert!(diag_text.starts_with(r#"{"record":"header","format":"cfdiag""#));
    assert_eq!(diag_text.matches(r#""record":"epoch""#).count(), 3);
    assert_eq!(diag_text.matches(r#""record":"detect""#).count(), 1);

    // The metrics stream leads with its schema version.
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        metrics_text.starts_with(r#"{"event":"meta","schema_version":"#),
        "{}",
        metrics_text.lines().next().unwrap_or_default()
    );

    // Render the dashboard and check each panel actually charted data
    // (an <svg> inside the section, not the missing-input note).
    // The span summary must carry percentile estimates (schema 2.1).
    assert!(metrics_text.contains(r#""p95_secs":"#), "{metrics_text}");
    assert!(
        metrics_text.contains(r#""event":"span_hist""#),
        "{metrics_text}"
    );

    let msg = run_report(&ReportArgs {
        metrics: Some(metrics.to_string_lossy().into_owned()),
        trace: Some(trace_1t.to_string_lossy().into_owned()),
        compare_trace: Some(trace.to_string_lossy().into_owned()),
        diag: Some(diag.to_string_lossy().into_owned()),
        out: html_path.to_string_lossy().into_owned(),
    })
    .unwrap();
    assert!(msg.contains("report written to"), "{msg}");
    let html = std::fs::read_to_string(&html_path).unwrap();
    let section = |id: &str| {
        html.split(&format!(r#"id="{id}""#))
            .nth(1)
            .unwrap_or_else(|| panic!("{id} missing"))
            .split("</section>")
            .next()
            .unwrap()
    };
    for id in [
        "panel-training-loss",
        "panel-causal-evolution",
        "panel-thread-utilization",
        "panel-pool",
        "panel-percentiles",
    ] {
        assert!(section(id).contains("<svg"), "{id} rendered no chart");
    }
    // The analysis panels render tables, not charts.
    assert!(
        section("panel-top-self-time").contains("<table"),
        "self-time panel rendered no table"
    );
    let scaling = section("panel-scaling");
    assert!(
        scaling.contains("<table"),
        "scaling panel rendered no table"
    );
    assert!(
        scaling.contains("Amdahl") || scaling.contains("speedup"),
        "{scaling}"
    );
    assert!(!html.contains("<script"), "report must be script-free");

    // The analyze subcommand on the same trace pair produces the
    // scaling-attribution table, naming pipeline spans.
    let (out, _) = run_analyze(&AnalyzeArgs {
        compare: Some((
            trace_1t.to_string_lossy().into_owned(),
            trace.to_string_lossy().into_owned(),
        )),
        ..AnalyzeArgs::default()
    })
    .unwrap();
    assert!(out.contains("scaling attribution"), "{out}");
    assert!(
        out.contains("| train |") || out.contains("| epoch |"),
        "{out}"
    );
    assert!(out.contains("top self-time spans"), "{out}");

    for p in [&csv, &metrics, &trace, &trace_1t, &diag, &html_path] {
        std::fs::remove_file(p).ok();
    }
}
