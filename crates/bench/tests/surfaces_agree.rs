//! One run, every surface: the summary line, `status.json` (body and
//! `runtime`), the Prometheus exposition, the final `campaign_finished`
//! event and the HTML report header all render the campaign's final
//! run record, so they agree exactly on traces, wall time, throughput,
//! the maximum `-log10(p)`, the leaking count and the verdict.

use mmaes_bench::{html, ObserverFlags, RunOptions};
use mmaes_circuits::build_kronecker;
use mmaes_core::ExperimentBudget;
use mmaes_leakage::{EvaluationConfig, FixedVsRandom};
use mmaes_masking::KroneckerRandomness;
use mmaes_telemetry::json::{number, parse, JsonValue};
use mmaes_telemetry::{
    Event, MemorySink, MetricsRegistry, MetricsSink, Observer, RunRecord, Sink, StatusFileSink,
};

/// A figure as every surface prints it (four decimals, integers bare),
/// read back as a number.
fn printed(value: f64) -> f64 {
    number(value).parse().expect("finite figure")
}

/// The value of an unlabelled series in a Prometheus exposition.
fn gauge(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} not exported:\n{exposition}"))
        .parse()
        .expect("numeric sample")
}

fn f64_at(value: &JsonValue, key: &str) -> f64 {
    value.get(key).and_then(JsonValue::as_f64).expect(key)
}

fn u64_at(value: &JsonValue, key: &str) -> u64 {
    value.get(key).and_then(JsonValue::as_u64).expect(key)
}

fn bool_at(value: &JsonValue, key: &str) -> bool {
    value.get(key).and_then(JsonValue::as_bool).expect(key)
}

/// Runs the Eq. 6 Kronecker campaign with every surface attached and
/// asserts they all read the final record.
fn assert_surfaces_agree(tag: &str, config: EvaluationConfig) -> RunRecord {
    let _failpoints = mmaes_telemetry::failpoint::scoped("");
    let status_path =
        std::env::temp_dir().join(format!("mmaes-surfaces-{}-{tag}.json", std::process::id()));
    let registry = MetricsRegistry::new();
    let memory = MemorySink::new();
    let events = memory.events();
    let sinks: Vec<Box<dyn Sink>> = vec![
        Box::new(StatusFileSink::create(&status_path, 1)),
        Box::new(MetricsSink::new(registry.clone(), 1)),
        Box::new(memory),
    ];
    let budget = ExperimentBudget {
        threads: config.threads,
        statistic: config.statistic,
        ..ExperimentBudget::default()
    };
    let mut run = RunOptions::start(ObserverFlags::default(), budget);
    run.observer = Observer::from_sinks(sinks);

    let circuit = build_kronecker(&KroneckerRandomness::de_meyer_eq6()).expect("valid netlist");
    let (report, _, record) = FixedVsRandom::new(&circuit.netlist, config)
        .with_observer(run.observer.clone())
        .try_run_recorded(false)
        .expect("campaign runs");
    let summary = run.record_summary("mmaes evaluate", "kronecker:de-meyer-eq6", record.clone());
    run.observer.emit(&Event::RunSummary(summary.clone()));
    run.observer.flush();

    let traces = record.traces;
    let rate = printed(record.traces_per_sec());
    let max = printed(record.max_minus_log10_p);
    assert_eq!(traces, report.traces, "{tag}: record traces");
    assert_eq!(record.passed, report.passed(), "{tag}: record verdict");
    assert_eq!(record.interrupted, report.interrupted, "{tag}: record flag");

    // The summary line.
    let line = parse(&summary.to_json_line()).expect("summary parses");
    assert_eq!(u64_at(&line, "traces"), traces, "{tag}: summary traces");
    assert_eq!(
        u64_at(&line, "wall_ms"),
        record.wall_ms,
        "{tag}: summary wall"
    );
    assert_eq!(
        u64_at(&line, "elapsed_ms"),
        record.wall_ms,
        "{tag}: summary alias"
    );
    assert_eq!(f64_at(&line, "traces_per_sec"), rate, "{tag}: summary rate");
    assert_eq!(
        f64_at(&line, "max_minus_log10_p"),
        max,
        "{tag}: summary max"
    );
    assert_eq!(
        bool_at(&line, "passed"),
        record.passed,
        "{tag}: summary verdict"
    );
    assert_eq!(
        bool_at(&line, "interrupted"),
        record.interrupted,
        "{tag}: summary flag"
    );

    // status.json, body and runtime.
    let document = std::fs::read_to_string(&status_path).expect("status written");
    let _ = std::fs::remove_file(&status_path);
    let status = parse(document.trim()).expect("status parses");
    let runtime = status.get("runtime").expect("runtime block");
    assert_eq!(u64_at(&status, "traces"), traces, "{tag}: status traces");
    assert_eq!(
        u64_at(runtime, "elapsed_ms"),
        record.wall_ms,
        "{tag}: status wall"
    );
    assert_eq!(
        f64_at(runtime, "traces_per_sec"),
        rate,
        "{tag}: status rate"
    );
    assert_eq!(
        f64_at(&status, "max_minus_log10_p"),
        max,
        "{tag}: status max"
    );
    assert_eq!(
        u64_at(&status, "leaking"),
        record.leaking as u64,
        "{tag}: status leaking"
    );
    assert_eq!(
        bool_at(&status, "passed"),
        record.passed,
        "{tag}: status verdict"
    );
    assert_eq!(
        bool_at(&status, "interrupted"),
        record.interrupted,
        "{tag}: status flag"
    );
    assert!(bool_at(&status, "finished"), "{tag}: status finished");

    // The Prometheus exposition (and the registry's /status copy).
    let exposition = registry.render_prometheus();
    assert_eq!(gauge(&exposition, "mmaes_traces"), traces as f64, "{tag}");
    assert_eq!(gauge(&exposition, "mmaes_traces_per_sec"), rate, "{tag}");
    assert_eq!(gauge(&exposition, "mmaes_max_minus_log10_p"), max, "{tag}");
    assert_eq!(
        gauge(&exposition, "mmaes_campaign_passed"),
        f64::from(u8::from(record.passed)),
        "{tag}"
    );
    let served = parse(&registry.status()).expect("/status parses");
    assert_eq!(
        served
            .get("runtime")
            .map(|runtime| f64_at(runtime, "traces_per_sec")),
        Some(rate),
        "{tag}: /status rate"
    );

    // The final campaign_finished event, as a value and as a JSON line.
    let events = events.lock().unwrap();
    let finished = events
        .iter()
        .rev()
        .find_map(|event| match event {
            Event::CampaignFinished(finished) => Some(finished),
            _ => None,
        })
        .expect("campaign_finished emitted");
    assert_eq!(finished, &record, "{tag}: the event carries the record");
    let finished_line =
        parse(&Event::CampaignFinished(finished.clone()).to_json_line()).expect("event parses");
    assert_eq!(u64_at(&finished_line, "traces"), traces, "{tag}");
    assert_eq!(u64_at(&finished_line, "wall_ms"), record.wall_ms, "{tag}");
    assert_eq!(f64_at(&finished_line, "traces_per_sec"), rate, "{tag}");
    assert_eq!(f64_at(&finished_line, "max_minus_log10_p"), max, "{tag}");
    assert_eq!(
        u64_at(&finished_line, "leaking"),
        record.leaking as u64,
        "{tag}"
    );
    assert_eq!(bool_at(&finished_line, "passed"), record.passed, "{tag}");
    assert_eq!(
        bool_at(&finished_line, "interrupted"),
        record.interrupted,
        "{tag}"
    );

    // The HTML report header.
    let page = html::render_report(&report, &record, &[], "kronecker:de-meyer-eq6", "eq6");
    let header = format!(
        "{traces} traces per population in {} ms ({} traces/s); \
         max -log10(p) {}, {} leaking set(s)",
        record.wall_ms,
        number(record.traces_per_sec()),
        number(record.max_minus_log10_p),
        record.leaking,
    );
    assert!(
        page.contains(&header),
        "{tag}: {header} missing from the header"
    );
    let verdict = if record.interrupted {
        "interrupted — partial statistics"
    } else if record.passed {
        "no leakage detected"
    } else {
        ">leakage detected"
    };
    assert!(page.contains(verdict), "{tag}: verdict {verdict} missing");
    record.clone()
}

fn config(checkpoints: u64) -> EvaluationConfig {
    EvaluationConfig {
        traces: 64_000,
        warmup_cycles: 6,
        checkpoints,
        ..EvaluationConfig::default()
    }
}

#[test]
fn every_surface_reads_the_final_record() {
    let record = assert_surfaces_agree("checkpoints", config(4));
    assert!(record.leaking > 0 && !record.passed, "Eq. 6 leaks");
    // 64,000 traces take milliseconds, so the rate compared is real.
    assert!(record.wall_ms > 0 && record.traces_per_sec() > 0.0);
}

#[test]
fn surfaces_agree_without_checkpoints() {
    let record = assert_surfaces_agree("no-checkpoints", config(0));
    assert!(record.finished && !record.passed);
}

#[test]
fn surfaces_agree_on_an_interrupted_run() {
    let mut config = config(4);
    config.durability.stop_after_batches = Some(500);
    let record = assert_surfaces_agree("interrupted", config);
    assert!(record.interrupted);
    assert_eq!(record.traces, 500 * 64);
}

#[test]
fn a_resumed_leg_rates_only_the_traces_it_ran() {
    let path = std::env::temp_dir().join(format!(
        "mmaes-surfaces-{}-resumed.snapshot",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut first_leg = config(4);
    first_leg.durability.snapshot_path = Some(path.clone());
    first_leg.durability.stop_after_batches = Some(100);
    let circuit = build_kronecker(&KroneckerRandomness::de_meyer_eq6()).expect("valid netlist");
    let (interrupted, _, _) = FixedVsRandom::new(&circuit.netlist, first_leg)
        .try_run_recorded(false)
        .expect("first leg runs");
    assert!(interrupted.interrupted && interrupted.traces == 6_400);

    let mut resumed = config(4);
    resumed.durability.snapshot_path = Some(path.clone());
    resumed.durability.resume = true;
    let record = assert_surfaces_agree("resumed", resumed);
    let _ = std::fs::remove_file(&path);
    // The record covers the whole budget, but this leg's stopwatch
    // timed only the 57,600 traces after the snapshot: every surface's
    // rate must be those over its wall.
    assert_eq!(record.traces, 64_000);
    assert!(record.wall_ms > 0, "a measurable leg");
    let leg_rate = (64_000 - 6_400) as f64 * 1000.0 / record.wall_ms as f64;
    assert_eq!(printed(record.traces_per_sec()), printed(leg_rate));
}
