//! Tool cross-validation: the statistical evaluator (PROLEAD role) and
//! the exhaustive verifier (SILVER role) must agree on every schedule's
//! glitch-model verdict — the agreement the paper's conclusion predicts
//! between the two classes of tools.

use mult_masked_aes::circuits::build_kronecker;
use mult_masked_aes::exact::{ExactConfig, ExactVerifier};
use mult_masked_aes::leakage::{EvaluationConfig, FixedVsRandom};
use mult_masked_aes::masking::KroneckerRandomness;

fn check_catalog_agreement(traces: u64) {
    for schedule in KroneckerRandomness::first_order_catalog() {
        let circuit = build_kronecker(&schedule).expect("valid netlist");

        let statistical = FixedVsRandom::new(
            &circuit.netlist,
            EvaluationConfig {
                traces,
                warmup_cycles: 6,
                ..EvaluationConfig::default()
            },
        )
        .try_run()
        .expect("campaign");

        let exact = ExactVerifier::with_config(
            &circuit.netlist,
            ExactConfig {
                observe_cycle: 5,
                max_support_bits: 24,
                probe_scope_filter: Some("kronecker/G7".to_owned()),
                ..ExactConfig::default()
            },
        )
        .verify_all();

        // The exact pass restricted to G7 proves/leaks the same verdict
        // the whole-design statistical pass reports: every flaw in the
        // catalog manifests in the G7 region (the paper's v nodes).
        assert_eq!(
            statistical.passed(),
            !exact.leak_found(),
            "verdicts disagree for `{}`:\n{statistical}\n{exact}",
            schedule.name()
        );
    }
}

#[test]
fn statistical_and_exact_verdicts_agree_across_the_catalog() {
    // Every flawed schedule in the catalog leaks with -log10(p) > 15 at
    // this budget — far over the 5.0 threshold, so the reduced count
    // cannot flip a verdict.
    check_catalog_agreement(60_000);
}

#[test]
fn catalog_agreement_at_the_full_seed_budget() {
    check_catalog_agreement(150_000);
}
