//! The paper's central findings, reproduced statistically on the
//! Kronecker delta netlists (experiments E2/E3/E5/E6 at reduced trace
//! counts — the Eq. 6 flaw is a strong first-order effect and shows well
//! below the paper's 4M traces; 50k traces put the leaking probes at
//! -log10(p) > 15, a 3× margin over the decision threshold). The
//! paper-scale variant at the bottom reruns the findings at the heavier
//! seed budgets.

use mmaes_circuits::build_kronecker;
use mmaes_leakage::{EvaluationConfig, FixedVsRandom, ProbeModel};
use mmaes_masking::KroneckerRandomness;

fn evaluate(
    schedule: &KroneckerRandomness,
    model: ProbeModel,
    traces: u64,
) -> mmaes_leakage::LeakageReport {
    let circuit = build_kronecker(schedule).expect("valid circuit");
    let config = EvaluationConfig {
        model,
        traces,
        fixed_secret: 0, // the zero-value case, as in the paper
        warmup_cycles: 6,
        ..EvaluationConfig::default()
    };
    FixedVsRandom::new(&circuit.netlist, config)
        .try_run()
        .expect("campaign")
}

#[test]
fn e2_de_meyer_eq6_leaks_under_glitch_model() {
    let report = evaluate(
        &KroneckerRandomness::de_meyer_eq6(),
        ProbeModel::Glitch,
        50_000,
    );
    assert!(!report.passed(), "Eq. 6 must leak:\n{report}");
    // The leak localizes in the later layers of the tree (G5..G7 regions),
    // reached through the v-node XOR compressions.
    let worst = report.worst().expect("results");
    assert!(worst.minus_log10_p > 5.0, "{report}");
}

#[test]
fn e3_full_randomness_passes_under_glitch_model() {
    let report = evaluate(&KroneckerRandomness::full(), ProbeModel::Glitch, 50_000);
    assert!(report.passed(), "full-7 must pass:\n{report}");
}

#[test]
fn e5_proposed_eq9_passes_under_glitch_model() {
    let report = evaluate(
        &KroneckerRandomness::proposed_eq9(),
        ProbeModel::Glitch,
        50_000,
    );
    assert!(report.passed(), "Eq. 9 must pass:\n{report}");
}

#[test]
fn e6_r5_equals_r6_leaks_under_glitch_model() {
    let report = evaluate(
        &KroneckerRandomness::r5_equals_r6(),
        ProbeModel::Glitch,
        50_000,
    );
    assert!(!report.passed(), "r5 = r6 must leak:\n{report}");
}

#[test]
fn single_reuse_r1_r3_already_leaks() {
    // The root-cause analysis of Section III: one reuse suffices.
    let report = evaluate(
        &KroneckerRandomness::single_reuse_r1_r3(),
        ProbeModel::Glitch,
        50_000,
    );
    assert!(!report.passed(), "r1 = r3 alone must leak:\n{report}");
}

#[test]
fn e7_transition_secure_schedules_pass_both_models() {
    for reused in [1usize, 4] {
        let schedule = KroneckerRandomness::transition_secure(reused);
        let report = evaluate(&schedule, ProbeModel::GlitchTransition, 50_000);
        assert!(
            report.passed(),
            "{} must pass transitions:\n{report}",
            schedule.name()
        );
    }
}

#[test]
fn e7_proposed_eq9_fails_once_transitions_are_considered() {
    // "none of the optimizations discussed above can maintain security
    // under glitch- and transition-extended probing models" (Section IV):
    // Eq. 9's cross-layer port reuse becomes visible to a probe spanning
    // two consecutive cycles.
    let report = evaluate(
        &KroneckerRandomness::proposed_eq9(),
        ProbeModel::GlitchTransition,
        50_000,
    );
    assert!(
        !report.passed(),
        "Eq. 9 must fail under transitions:\n{report}"
    );
}

#[test]
fn e7_de_meyer_eq6_also_fails_under_transitions() {
    let report = evaluate(
        &KroneckerRandomness::de_meyer_eq6(),
        ProbeModel::GlitchTransition,
        50_000,
    );
    assert!(
        !report.passed(),
        "Eq. 6 must fail under transitions:\n{report}"
    );
}

#[test]
fn second_order_probes_break_any_first_order_design() {
    // Sanity for the multivariate machinery: a first-order masked design
    // is, by definition, distinguishable by a 2-probe adversary (probe
    // both shares). The glitch-secure Eq. 9 Kronecker must therefore
    // FAIL an order-2 evaluation — if it "passed", the pair enumeration
    // would be broken.
    let circuit = build_kronecker(&KroneckerRandomness::proposed_eq9()).expect("valid");
    let config = EvaluationConfig {
        order: 2,
        traces: 50_000,
        fixed_secret: 0,
        warmup_cycles: 6,
        max_probe_sets: 1_500,
        ..EvaluationConfig::default()
    };
    let report = FixedVsRandom::new(&circuit.netlist, config)
        .try_run()
        .expect("campaign");
    assert!(
        !report.passed(),
        "order-2 must break a first-order design:\n{report}"
    );
    assert!(report.worst().expect("results").probe_count == 2 || !report.leaking().is_empty());
}

#[test]
fn fixed_vs_fixed_zero_against_nonzero_flags_eq6() {
    // PROLEAD's fixed-vs-fixed mode, concentrated on the zero-value
    // hypothesis: all-zero input vs. 0xFF.
    let circuit = build_kronecker(&KroneckerRandomness::de_meyer_eq6()).expect("valid");
    let config = EvaluationConfig {
        traces: 50_000,
        fixed_secret: 0,
        mode: mmaes_leakage::CampaignMode::FixedVsFixed { other: 0xff },
        warmup_cycles: 6,
        ..EvaluationConfig::default()
    };
    let report = FixedVsRandom::new(&circuit.netlist, config)
        .try_run()
        .expect("campaign");
    assert!(!report.passed(), "{report}");
}

#[test]
fn fixed_vs_fixed_passes_for_the_repaired_schedule() {
    let circuit = build_kronecker(&KroneckerRandomness::proposed_eq9()).expect("valid");
    let config = EvaluationConfig {
        traces: 50_000,
        fixed_secret: 0,
        mode: mmaes_leakage::CampaignMode::FixedVsFixed { other: 0xff },
        warmup_cycles: 6,
        ..EvaluationConfig::default()
    };
    let report = FixedVsRandom::new(&circuit.netlist, config)
        .try_run()
        .expect("campaign");
    assert!(report.passed(), "{report}");
}

#[test]
fn kronecker_with_onchip_lfsr_randomness_passes_glitch_model() {
    // Realistic arrangement: the fresh masks come from an embedded
    // 64-bit LFSR (seeded per trace) with taps spaced 8 bits apart, so
    // the bits consumed within the tree's 3-cycle window are distinct
    // state bits. The probe cones now include the PRNG state registers.
    let circuit = mmaes_circuits::kronecker_lfsr::build_kronecker_with_lfsr(
        &KroneckerRandomness::full(),
        64,
        8,
    )
    .expect("valid");
    let config = EvaluationConfig {
        traces: 50_000,
        fixed_secret: 0,
        warmup_cycles: 8,
        ..EvaluationConfig::default()
    };
    let report = FixedVsRandom::new(&circuit.netlist, config)
        .schedule_control(circuit.lfsr.load, vec![true, false])
        .try_run()
        .expect("campaign");
    assert!(report.passed(), "spaced LFSR taps must pass:\n{report}");
}

#[test]
fn paper_scale_budgets_preserve_every_verdict() {
    // The original seed budgets (100k–200k traces per campaign, order-2
    // with 3000 probing sets); seconds now that the test profile
    // optimizes the simulator and the leakage crate.
    let cases: [(&KroneckerRandomness, ProbeModel, u64, bool); 7] = [
        (
            &KroneckerRandomness::de_meyer_eq6(),
            ProbeModel::Glitch,
            100_000,
            false,
        ),
        (
            &KroneckerRandomness::full(),
            ProbeModel::Glitch,
            100_000,
            true,
        ),
        (
            &KroneckerRandomness::proposed_eq9(),
            ProbeModel::Glitch,
            100_000,
            true,
        ),
        (
            &KroneckerRandomness::r5_equals_r6(),
            ProbeModel::Glitch,
            100_000,
            false,
        ),
        (
            &KroneckerRandomness::single_reuse_r1_r3(),
            ProbeModel::Glitch,
            200_000,
            false,
        ),
        (
            &KroneckerRandomness::proposed_eq9(),
            ProbeModel::GlitchTransition,
            200_000,
            false,
        ),
        (
            &KroneckerRandomness::de_meyer_eq6(),
            ProbeModel::GlitchTransition,
            100_000,
            false,
        ),
    ];
    for (schedule, model, traces, expected_pass) in cases {
        let report = evaluate(schedule, model, traces);
        assert_eq!(
            report.passed(),
            expected_pass,
            "{} at {traces} traces:\n{report}",
            schedule.name()
        );
    }

    let circuit = build_kronecker(&KroneckerRandomness::proposed_eq9()).expect("valid");
    let config = EvaluationConfig {
        order: 2,
        traces: 100_000,
        fixed_secret: 0,
        warmup_cycles: 6,
        max_probe_sets: 3_000,
        ..EvaluationConfig::default()
    };
    let report = FixedVsRandom::new(&circuit.netlist, config)
        .try_run()
        .expect("campaign");
    assert!(
        !report.passed(),
        "order-2 must break a first-order design:\n{report}"
    );
}
