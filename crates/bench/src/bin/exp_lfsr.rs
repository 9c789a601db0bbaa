//! Ablation (beyond the paper): the Kronecker delta with an *embedded*
//! LFSR randomness supply, swept over tap spacings. Spacing 8 keeps the
//! bits consumed inside the 3-cycle tree window distinct; spacing 1
//! hands the same physical state bit to consecutive cycles' consumers —
//! the on-chip-PRNG analogue of the paper's cross-cycle reuse findings.
//! The run passes when the sweep reproduces that qualitative picture
//! under the transition-extended model (cross-cycle reuse is invisible
//! to glitch-only probes): spacing 1 leaks, spacing 8 stays clean.
use mmaes_circuits::kronecker_lfsr::build_kronecker_with_lfsr;
use mmaes_leakage::{EvaluationConfig, FixedVsRandom, ProbeModel};
use mmaes_masking::KroneckerRandomness;

fn main() {
    let run = mmaes_bench::RunOptions::from_args();
    let budget = &run.budget;
    println!(
        "{:<10} {:<26} {:<26}",
        "spacing", "glitch-extended", "glitch+transition"
    );
    let mut total_traces = 0u64;
    let mut worst = 0.0f64;
    // (spacing, transition-model verdict) pairs the pass criterion
    // reads.
    let mut transition_passed: Vec<(usize, bool)> = Vec::new();
    for spacing in [1usize, 2, 4, 8] {
        let circuit = build_kronecker_with_lfsr(&KroneckerRandomness::full(), 64, spacing)
            .expect("valid netlist");
        let mut cells = Vec::new();
        for model in [ProbeModel::Glitch, ProbeModel::GlitchTransition] {
            let config = EvaluationConfig {
                model,
                traces: budget.first_order_traces,
                fixed_secret: 0,
                warmup_cycles: 8,
                seed: budget.seed,
                checkpoints: budget.checkpoints,
                statistic: budget.statistic,
                ..EvaluationConfig::default()
            };
            let report = FixedVsRandom::new(&circuit.netlist, config)
                .with_observer(run.observer.clone())
                .schedule_control(circuit.lfsr.load, vec![true, false])
                .try_run();
            let report = mmaes_bench::unwrap_campaign(report);
            let max = report.worst().map(|r| r.minus_log10_p).unwrap_or(0.0);
            total_traces += report.traces;
            worst = worst.max(max);
            if model == ProbeModel::GlitchTransition {
                transition_passed.push((spacing, report.passed()));
            }
            cells.push(format!(
                "{} (max {:.1})",
                if report.passed() { "PASS" } else { "FAIL" },
                max
            ));
        }
        println!("{spacing:<10} {:<26} {:<26}", cells[0], cells[1]);
    }
    let narrow_leaks = transition_passed.contains(&(1, false));
    let wide_clean = transition_passed.contains(&(8, true));
    let mut summary = run.base_summary("exp_lfsr", "LFSR", total_traces);
    summary.schedule = "lfsr-embedded".to_owned();
    summary.record.model = ProbeModel::GlitchTransition.name().to_owned();
    summary.record.max_minus_log10_p = worst;
    summary.record.passed = narrow_leaks && wide_clean;
    summary.extra = vec![
        ("spacing1_leaks".to_owned(), narrow_leaks.to_string()),
        ("spacing8_clean".to_owned(), wide_clean.to_string()),
    ];
    run.finish_with(summary);
}
