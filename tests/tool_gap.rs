//! The paper's §II-D tool-gap, reproduced: VerMI-style non-completeness
//! checking accepts the Eq. 6 design that PROLEAD-style evaluation and
//! exhaustive enumeration prove leaky — "they could not reuse VerMI as
//! it mainly examines the non-completeness property".

use mult_masked_aes::circuits::build_kronecker;
use mult_masked_aes::exact::{ExactConfig, ExactVerifier};
use mult_masked_aes::leakage::ProbeModel;
use mult_masked_aes::masking::KroneckerRandomness;
use mult_masked_aes::netlist::{check_non_completeness, StableCones};

#[test]
fn non_completeness_cannot_see_the_randomness_flaw() {
    // VerMI role: every schedule — including the broken Eq. 6 — passes
    // non-completeness, because share separation is a property of the
    // AND-tree structure, not of the mask assignment.
    for schedule in KroneckerRandomness::first_order_catalog() {
        let circuit = build_kronecker(&schedule).expect("valid netlist");
        let cones = StableCones::new(&circuit.netlist);
        let violations = check_non_completeness(&circuit.netlist, &cones);
        assert!(
            violations.is_empty(),
            "{}: the Kronecker tree is non-complete by construction: {violations:?}",
            schedule.name()
        );
    }

    // ... and yet the exhaustive verifier proves Eq. 6 leaks: the gap
    // between the two tool classes is exactly the paper's motivation.
    let eq6 = build_kronecker(&KroneckerRandomness::de_meyer_eq6()).expect("valid");
    let proof = ExactVerifier::with_config(
        &eq6.netlist,
        ExactConfig {
            model: ProbeModel::Glitch,
            observe_cycle: 5,
            max_support_bits: 24,
            probe_scope_filter: Some("kronecker/G7".to_owned()),
            ..ExactConfig::default()
        },
    )
    .verify_all();
    assert!(proof.leak_found(), "{proof}");
}

/// Sweeps all six r7 choices under glitch+transition at the given trace
/// budget and checks the paper's boundary: exactly r7 ∈ {r1..r4} pass.
fn check_six_bit_r7_family(traces: u64) {
    use mult_masked_aes::leakage::{EvaluationConfig, FixedVsRandom};
    use mult_masked_aes::masking::randomness::MaskSlot;

    for r7 in 0..6u16 {
        let slots: Vec<MaskSlot> = (0..6)
            .map(|port| MaskSlot::fresh(port as u16))
            .chain([MaskSlot::fresh(r7)])
            .collect();
        let schedule = KroneckerRandomness::custom(1, slots, 6, format!("sweep-r7=f{r7}"))
            .expect("valid schedule");
        let circuit = build_kronecker(&schedule).expect("valid netlist");
        let report = FixedVsRandom::new(
            &circuit.netlist,
            EvaluationConfig {
                model: ProbeModel::GlitchTransition,
                traces,
                fixed_secret: 0,
                warmup_cycles: 6,
                ..EvaluationConfig::default()
            },
        )
        .try_run()
        .expect("campaign");
        let expected_pass = r7 < 4;
        assert_eq!(
            report.passed(),
            expected_pass,
            "r7 = f{r7}: paper expects {}:\n{report}",
            if expected_pass { "PASS" } else { "FAIL" }
        );
    }
}

#[test]
fn six_bit_r7_family_matches_the_paper_exactly() {
    // The paper's "four solutions found by trial and error" — the
    // cross-cycle reuse leak is strong, so a reduced budget suffices.
    check_six_bit_r7_family(50_000);
}

#[test]
fn six_bit_r7_family_at_the_full_seed_budget() {
    check_six_bit_r7_family(100_000);
}
