//! One ranked cut per statistic sweep: a checkpoint's probe list, its
//! health event and the final health summary all show the same sets —
//! the top sets by `-log10(p)` plus every leaking set — in rank order.
//! The Eq. 6 Kronecker core has 94 probing sets, well over the eight a
//! checkpoint shows besides its leakers.

use mmaes_circuits::build_kronecker;
use mmaes_leakage::{EvaluationConfig, FixedVsRandom};
use mmaes_masking::KroneckerRandomness;
use mmaes_telemetry::{Event, MemorySink, Observer};

#[test]
fn checkpoints_health_and_the_report_share_one_ranked_cut() {
    let circuit = build_kronecker(&KroneckerRandomness::de_meyer_eq6()).expect("valid circuit");
    let sink = MemorySink::new();
    let collected = sink.events();
    let report = FixedVsRandom::new(
        &circuit.netlist,
        EvaluationConfig {
            traces: 12_800,
            warmup_cycles: 6,
            checkpoints: 4,
            ..EvaluationConfig::default()
        },
    )
    .with_observer(Observer::single(sink))
    .try_run()
    .expect("campaign");
    assert_eq!(report.results.len(), 94);

    let events = collected.lock().expect("sink lock");
    let mut shown: Option<Vec<String>> = None;
    let mut interim = 0;
    let mut summary = None;
    for event in events.iter() {
        match event {
            Event::CampaignCheckpoint(checkpoint) => {
                shown = Some(checkpoint.probes.iter().map(|p| p.label.clone()).collect());
            }
            Event::Health(health) => {
                let labels: Vec<String> = health.probes.iter().map(|p| p.label.clone()).collect();
                let checkpoint = shown.take().expect("a health event follows a checkpoint");
                assert_eq!(labels, checkpoint, "checkpoint {interim}");
                interim += 1;
            }
            Event::HealthSummary(health) => summary = Some(health.clone()),
            _ => {}
        }
    }
    assert_eq!(interim, 3, "four checkpoints, the last one final");

    let summary = summary.expect("a health summary");
    assert_eq!(summary.probe_sets, 94);
    assert!(summary.probes.len() >= 8, "{}", summary.probes.len());
    assert!(summary.probes.len() < report.results.len());
    for (probe, result) in summary.probes.iter().zip(&report.results) {
        assert_eq!(probe.label, result.label);
        assert_eq!(probe.minus_log10_p, result.minus_log10_p);
    }
    assert_eq!(summary.leaking_sets as usize, report.leaking().len());
    assert!(summary.leaking_sets > 0, "Eq. 6 leaks");
}
