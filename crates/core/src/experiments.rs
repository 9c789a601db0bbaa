//! The paper's experiments, E1–E11.

use mmaes_aes::dpa::{zero_value_t_test, ZeroMapping, TVLA_THRESHOLD};
use mmaes_circuits::{
    aes_datapath::ROUND_CYCLES, build_kronecker, build_masked_aes, build_masked_sbox,
    sbox::build_unprotected_sbox, InverterKind, KroneckerCircuit, SboxOptions,
};
use mmaes_exact::{ExactConfig, ExactVerifier};
use mmaes_gf256::sbox::sbox;
use mmaes_gf256::Gf256;
use mmaes_leakage::{
    CampaignError, Durability, EvaluationConfig, FixedVsRandom, LeakageReport, ProbeModel,
    SecretDomain,
};
use mmaes_masking::KroneckerRandomness;
use mmaes_netlist::NetlistStats;
use mmaes_sim::Simulator;
use mmaes_telemetry::Observer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::budget::ExperimentBudget;
use crate::outcome::ExperimentOutcome;

/// The worst (highest) `-log10(p)` across several campaign reports.
fn max_minus_log10_p(reports: &[&LeakageReport]) -> f64 {
    reports
        .iter()
        .filter_map(|report| report.worst().map(|result| result.minus_log10_p))
        .fold(0.0, f64::max)
}

/// Crash-safety options for one campaign inside an experiment: every
/// campaign always honors SIGINT/SIGTERM cooperatively; with
/// [`ExperimentBudget::snapshot_dir`] set it additionally persists (and,
/// with `resume`, restores) its state under a per-campaign file derived
/// from `label`.
fn campaign_durability(budget: &ExperimentBudget, label: &str) -> Durability {
    let snapshot_path = budget.snapshot_dir.as_ref().map(|dir| {
        let file: String = label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        std::path::Path::new(dir).join(format!("{file}.snapshot"))
    });
    Durability {
        snapshot_path,
        resume: budget.resume,
        interrupt: Some(mmaes_sigint::shared()),
        stop_after_batches: None,
    }
}

fn kronecker_eval(
    schedule: &KroneckerRandomness,
    model: ProbeModel,
    traces: u64,
    order: usize,
    max_sets: usize,
    budget: &ExperimentBudget,
    observer: &Observer,
) -> Result<LeakageReport, CampaignError> {
    let circuit = build_kronecker(schedule).expect("generator emits valid netlists");
    let config = EvaluationConfig {
        model,
        order,
        traces,
        fixed_secret: 0,
        warmup_cycles: 6,
        max_probe_sets: max_sets,
        seed: budget.seed,
        checkpoints: budget.checkpoints,
        threads: budget.threads,
        statistic: budget.statistic,
        durability: campaign_durability(
            budget,
            &format!("kronecker-{}-{}-o{order}", schedule.name(), model.name()),
        ),
        ..EvaluationConfig::default()
    };
    FixedVsRandom::new(&circuit.netlist, config)
        .with_observer(observer.clone())
        .try_run()
}

fn sbox_eval(
    options: SboxOptions,
    fixed_secret: u64,
    secret_domain: SecretDomain,
    traces: u64,
    budget: &ExperimentBudget,
    observer: &Observer,
) -> Result<LeakageReport, CampaignError> {
    let label = format!(
        "sbox-{}-kron{}-fixed{fixed_secret}",
        options.schedule.name(),
        options.include_kronecker
    );
    let circuit = build_masked_sbox(options).expect("generator emits valid netlists");
    let config = EvaluationConfig {
        model: ProbeModel::Glitch,
        traces,
        fixed_secret,
        secret_domain,
        warmup_cycles: 8,
        seed: budget.seed,
        checkpoints: budget.checkpoints,
        threads: budget.threads,
        statistic: budget.statistic,
        durability: campaign_durability(budget, &label),
        ..EvaluationConfig::default()
    };
    FixedVsRandom::new(&circuit.netlist, config)
        .require_nonzero_bus(circuit.r_bus.clone())
        .with_observer(observer.clone())
        .try_run()
}

/// E1 (§III ¶2): the S-box **without** the Kronecker stage, non-zero
/// fixed input, random inputs drawn from GF(2⁸)* — passes, confirming
/// conversions + inversion + affine are sound away from zero.
pub fn run_e1(
    budget: &ExperimentBudget,
    observer: &Observer,
) -> Result<ExperimentOutcome, CampaignError> {
    let report = sbox_eval(
        SboxOptions {
            include_kronecker: false,
            ..SboxOptions::default()
        },
        0x53,
        SecretDomain::NonZero,
        budget.first_order_traces,
        budget,
        observer,
    )?;
    let matches = report.passed();
    Ok(ExperimentOutcome {
        id: "E1",
        title: "S-box without Kronecker, non-zero fixed input",
        paper_location: "§III ¶2",
        paper_claim: "passes PROLEAD under the glitch-extended model",
        observed: report.verdict(),
        matches_paper: matches,
        schedule: "none (Kronecker stage omitted)".to_owned(),
        traces: report.traces,
        max_minus_log10_p: max_minus_log10_p(&[&report]),
        details: report.to_string(),
    })
}

/// E2 (§III ¶2–3, Fig. 3): the full S-box with the Eq. 6 optimization
/// and fixed input 0 — **fails**; the leaking probes sit in the
/// Kronecker tree (the G7 `v` nodes fed by the G5/G6 registers).
pub fn run_e2(
    budget: &ExperimentBudget,
    observer: &Observer,
) -> Result<ExperimentOutcome, CampaignError> {
    let report = sbox_eval(
        SboxOptions {
            schedule: KroneckerRandomness::de_meyer_eq6(),
            ..SboxOptions::default()
        },
        0,
        SecretDomain::Uniform,
        budget.first_order_traces,
        budget,
        observer,
    )?;
    let leak_in_kronecker = report
        .leaking()
        .iter()
        .any(|result| result.label.contains("kronecker"));
    let matches = !report.passed() && leak_in_kronecker;
    Ok(ExperimentOutcome {
        id: "E2",
        title: "Full S-box with Eq. 6 optimization, fixed = 0",
        paper_location: "§III ¶2–3, Fig. 3",
        paper_claim: "fails; leakage localized in the Kronecker delta (v nodes of G7)",
        observed: format!(
            "{}; leaking probes in Kronecker: {}",
            report.verdict(),
            leak_in_kronecker
        ),
        matches_paper: matches,
        schedule: KroneckerRandomness::de_meyer_eq6().name().to_owned(),
        traces: report.traces,
        max_minus_log10_p: max_minus_log10_p(&[&report]),
        details: report.to_string(),
    })
}

/// E3 (§III ¶4): with 7 independent fresh mask bits the full design
/// passes all evaluations.
pub fn run_e3(
    budget: &ExperimentBudget,
    observer: &Observer,
) -> Result<ExperimentOutcome, CampaignError> {
    let sbox_report = sbox_eval(
        SboxOptions {
            schedule: KroneckerRandomness::full(),
            ..SboxOptions::default()
        },
        0,
        SecretDomain::Uniform,
        budget.first_order_traces,
        budget,
        observer,
    )?;
    let kronecker_report = kronecker_eval(
        &KroneckerRandomness::full(),
        ProbeModel::Glitch,
        budget.first_order_traces,
        1,
        usize::MAX,
        budget,
        observer,
    )?;
    let matches = sbox_report.passed() && kronecker_report.passed();
    Ok(ExperimentOutcome {
        id: "E3",
        title: "Full randomness (7 bits): S-box and Kronecker pass",
        paper_location: "§III ¶4",
        paper_claim: "with 7 independent fresh masks the design passes all evaluations",
        observed: format!(
            "S-box: {} | Kronecker: {}",
            sbox_report.verdict(),
            kronecker_report.verdict()
        ),
        matches_paper: matches,
        schedule: KroneckerRandomness::full().name().to_owned(),
        traces: sbox_report.traces + kronecker_report.traces,
        max_minus_log10_p: max_minus_log10_p(&[&sbox_report, &kronecker_report]),
        details: format!("{sbox_report}\n{kronecker_report}"),
    })
}

fn exact_verify(
    schedule: &KroneckerRandomness,
    scope: Option<&str>,
    observer: &Observer,
) -> (KroneckerCircuit, mmaes_exact::ExactReport) {
    let circuit = build_kronecker(schedule).expect("valid netlist");
    let verifier = ExactVerifier::with_config(
        &circuit.netlist,
        ExactConfig {
            observe_cycle: 5,
            max_support_bits: 24,
            probe_scope_filter: scope.map(str::to_owned),
            ..ExactConfig::default()
        },
    )
    .with_observer(observer.clone());
    let report = verifier.verify_all();
    (circuit, report)
}

/// E4 (§III, Eq. 8 analysis): the root cause — already a *single* reuse
/// `r1 = r3` makes the joint view `{a1, b1, a2, b2}` of a G7 probe
/// depend on unmasked values. Proven by exhaustive enumeration, with a
/// distribution-gap counterexample (this is the SILVER role predicted in
/// the paper's conclusion).
pub fn run_e4(
    budget: &ExperimentBudget,
    observer: &Observer,
) -> Result<ExperimentOutcome, CampaignError> {
    let scope = budget.exact_scope.as_deref();
    let (_, single_reuse) =
        exact_verify(&KroneckerRandomness::single_reuse_r1_r3(), scope, observer);
    let (_, eq6) = exact_verify(&KroneckerRandomness::de_meyer_eq6(), scope, observer);
    let matches = single_reuse.leak_found() && eq6.leak_found();
    let witness = single_reuse
        .leaks()
        .first()
        .map(|(label, counterexample)| format!("{label}: {counterexample}"))
        .unwrap_or_else(|| "no witness".to_owned());
    Ok(ExperimentOutcome {
        id: "E4",
        title: "Root cause proven exactly: r1 = r3 alone leaks",
        paper_location: "§III, Equation (8)",
        paper_claim: "probe v1's extended view depends on unmasked x1, x5 once r1 = r3",
        observed: format!(
            "single-reuse leak proven: {} | Eq.6 leak proven: {} | witness: {witness}",
            single_reuse.leak_found(),
            eq6.leak_found()
        ),
        matches_paper: matches,
        schedule: format!(
            "{} + {}",
            KroneckerRandomness::single_reuse_r1_r3().name(),
            KroneckerRandomness::de_meyer_eq6().name()
        ),
        traces: 0,
        max_minus_log10_p: 0.0,
        details: format!("{single_reuse}\n{eq6}"),
    })
}

/// E5 (§IV, Eq. 9): the paper's repaired optimization (4 bits) passes
/// the glitch-extended evaluation — statistically and by exhaustive
/// proof.
pub fn run_e5(
    budget: &ExperimentBudget,
    observer: &Observer,
) -> Result<ExperimentOutcome, CampaignError> {
    let statistical = kronecker_eval(
        &KroneckerRandomness::proposed_eq9(),
        ProbeModel::Glitch,
        budget.first_order_traces,
        1,
        usize::MAX,
        budget,
        observer,
    )?;
    let (_, proof) = exact_verify(
        &KroneckerRandomness::proposed_eq9(),
        budget.exact_scope.as_deref(),
        observer,
    );
    let matches = statistical.passed() && proof.proven_secure();
    Ok(ExperimentOutcome {
        id: "E5",
        title: "Proposed Eq. 9 optimization passes (glitch model)",
        paper_location: "§IV, Equation (9)",
        paper_claim: "r5=r4, r6=r2, r7=r3 maintains first-order glitch security (7→4 bits)",
        observed: format!(
            "statistical: {} | exhaustive: proven_secure={}",
            statistical.verdict(),
            proof.proven_secure()
        ),
        matches_paper: matches,
        schedule: KroneckerRandomness::proposed_eq9().name().to_owned(),
        traces: statistical.traces,
        max_minus_log10_p: max_minus_log10_p(&[&statistical]),
        details: format!("{statistical}\n{proof}"),
    })
}

/// E6 (§IV): the `r5 = r6` counterexample — sharing the two layer-2
/// masks leaks even with a fully fresh first layer.
pub fn run_e6(
    budget: &ExperimentBudget,
    observer: &Observer,
) -> Result<ExperimentOutcome, CampaignError> {
    let statistical = kronecker_eval(
        &KroneckerRandomness::r5_equals_r6(),
        ProbeModel::Glitch,
        budget.first_order_traces,
        1,
        usize::MAX,
        budget,
        observer,
    )?;
    let (_, proof) = exact_verify(
        &KroneckerRandomness::r5_equals_r6(),
        budget.exact_scope.as_deref(),
        observer,
    );
    let matches = !statistical.passed() && proof.leak_found();
    Ok(ExperimentOutcome {
        id: "E6",
        title: "r5 = r6 is insecure (layer-2 masks must differ)",
        paper_location: "§IV (w0/w1 analysis)",
        paper_claim: "if r5 = r6, a probe on v1 observes a non-uniform distribution",
        observed: format!(
            "statistical: {} | exhaustive leak: {}",
            statistical.verdict(),
            proof.leak_found()
        ),
        matches_paper: matches,
        schedule: KroneckerRandomness::r5_equals_r6().name().to_owned(),
        traces: statistical.traces,
        max_minus_log10_p: max_minus_log10_p(&[&statistical]),
        details: format!("{statistical}\n{proof}"),
    })
}

/// E7 (§IV, transition paragraph): the schedule × model matrix. Under
/// glitch+transition, Eq. 6 and Eq. 9 fail; the four `r7 = rᵢ` solutions
/// (7→6 bits) pass, as does the unoptimized schedule.
pub fn run_e7(
    budget: &ExperimentBudget,
    observer: &Observer,
) -> Result<ExperimentOutcome, CampaignError> {
    struct Expectation {
        schedule: KroneckerRandomness,
        glitch_pass: bool,
        transition_pass: bool,
    }
    let expectations = vec![
        Expectation {
            schedule: KroneckerRandomness::full(),
            glitch_pass: true,
            transition_pass: true,
        },
        Expectation {
            schedule: KroneckerRandomness::de_meyer_eq6(),
            glitch_pass: false,
            transition_pass: false,
        },
        Expectation {
            schedule: KroneckerRandomness::proposed_eq9(),
            glitch_pass: true,
            transition_pass: false,
        },
        Expectation {
            schedule: KroneckerRandomness::transition_secure(1),
            glitch_pass: true,
            transition_pass: true,
        },
        Expectation {
            schedule: KroneckerRandomness::transition_secure(2),
            glitch_pass: true,
            transition_pass: true,
        },
        Expectation {
            schedule: KroneckerRandomness::transition_secure(3),
            glitch_pass: true,
            transition_pass: true,
        },
        Expectation {
            schedule: KroneckerRandomness::transition_secure(4),
            glitch_pass: true,
            transition_pass: true,
        },
    ];
    let mut matches = true;
    let mut rows = Vec::new();
    let mut details = String::new();
    let mut total_traces = 0u64;
    let mut worst = 0.0f64;
    for expectation in &expectations {
        let glitch = kronecker_eval(
            &expectation.schedule,
            ProbeModel::Glitch,
            budget.first_order_traces,
            1,
            usize::MAX,
            budget,
            observer,
        )?;
        let transition = kronecker_eval(
            &expectation.schedule,
            ProbeModel::GlitchTransition,
            budget.transition_traces,
            1,
            usize::MAX,
            budget,
            observer,
        )?;
        let row_matches = glitch.passed() == expectation.glitch_pass
            && transition.passed() == expectation.transition_pass;
        matches &= row_matches;
        total_traces += glitch.traces + transition.traces;
        worst = worst.max(max_minus_log10_p(&[&glitch, &transition]));
        rows.push(format!(
            "{:<28} glitch: {:<4} (exp {:<4}) | +transition: {:<4} (exp {})",
            expectation.schedule.name(),
            if glitch.passed() { "PASS" } else { "FAIL" },
            if expectation.glitch_pass {
                "PASS"
            } else {
                "FAIL"
            },
            if transition.passed() { "PASS" } else { "FAIL" },
            if expectation.transition_pass {
                "PASS"
            } else {
                "FAIL"
            },
        ));
        details.push_str(&format!("{glitch}\n{transition}\n"));
    }
    Ok(ExperimentOutcome {
        id: "E7",
        title: "Schedule × model security matrix (incl. transitions)",
        paper_location: "§IV (transition paragraph)",
        paper_claim: "only r1..r6 fresh with r7 = r_i (i ∈ 1..4) survives glitches + transitions",
        observed: rows.join("\n            "),
        matches_paper: matches,
        schedule: "matrix (7 schedules × 2 models)".to_owned(),
        traces: total_traces,
        max_minus_log10_p: worst,
        details,
    })
}

/// E8 (§IV last ¶): the second-order Kronecker with the 21→13-bit
/// optimization (reconstructed schedule) shows no detectable leakage up
/// to second order under glitches and transitions.
pub fn run_e8(
    budget: &ExperimentBudget,
    observer: &Observer,
) -> Result<ExperimentOutcome, CampaignError> {
    let mut reports = Vec::new();
    let mut matches = true;
    let mut total_traces = 0u64;
    let mut worst = 0.0f64;
    for schedule in [
        KroneckerRandomness::full_order2(),
        KroneckerRandomness::de_meyer_13_reconstruction(),
    ] {
        for model in [ProbeModel::Glitch, ProbeModel::GlitchTransition] {
            let report = kronecker_eval(
                &schedule,
                model,
                budget.second_order_traces,
                2,
                budget.second_order_max_sets,
                budget,
                observer,
            )?;
            matches &= report.passed();
            total_traces += report.traces;
            worst = worst.max(max_minus_log10_p(&[&report]));
            reports.push(format!(
                "{} / {}: {}",
                schedule.name(),
                model.name(),
                report.verdict()
            ));
        }
    }
    Ok(ExperimentOutcome {
        id: "E8",
        title: "Second-order Kronecker (21→13 bits): no leakage detected",
        paper_location: "§IV last ¶",
        paper_claim: "no vulnerability up to second order (paper: ≥100M simulations)",
        observed: reports.join("\n            "),
        matches_paper: matches,
        schedule: format!(
            "{} + {}",
            KroneckerRandomness::full_order2().name(),
            KroneckerRandomness::de_meyer_13_reconstruction().name()
        ),
        traces: total_traces,
        max_minus_log10_p: worst,
        details: reports.join("\n"),
    })
}

/// E9 (§II-B Eq. 6, §IV): the randomness-cost accounting.
pub fn run_e9(
    _budget: &ExperimentBudget,
    _observer: &Observer,
) -> Result<ExperimentOutcome, CampaignError> {
    let rows: Vec<(KroneckerRandomness, usize)> = vec![
        (KroneckerRandomness::full(), 7),
        (KroneckerRandomness::de_meyer_eq6(), 3),
        (KroneckerRandomness::proposed_eq9(), 4),
        (KroneckerRandomness::transition_secure(1), 6),
        (KroneckerRandomness::full_order2(), 21),
        (KroneckerRandomness::de_meyer_13_reconstruction(), 13),
    ];
    let matches = rows
        .iter()
        .all(|(schedule, expected)| schedule.fresh_count() == *expected);
    let observed = rows
        .iter()
        .map(|(schedule, _)| {
            format!(
                "{}: {} → {} bits",
                schedule.name(),
                schedule.unoptimized_cost(),
                schedule.fresh_count()
            )
        })
        .collect::<Vec<_>>()
        .join("; ");
    Ok(ExperimentOutcome {
        id: "E9",
        title: "Fresh-randomness costs of the schedules",
        paper_location: "§II-B Eq. (6), §IV",
        paper_claim: "7→3 (Eq. 6), 7→4 (Eq. 9), 7→6 (transition-secure), 21→13 (2nd order)",
        observed,
        matches_paper: matches,
        schedule: "all schedules (cost accounting)".to_owned(),
        traces: 0,
        max_minus_log10_p: 0.0,
        details: String::new(),
    })
}

/// E10 (Fig. 1/2, §II-C): structure — 5-cycle latency (3 Kronecker +
/// 2 conversions), one S-box per cycle throughput, functional
/// equivalence with the FIPS-197 S-box on all 256 inputs, and the area
/// overhead over the unprotected S-box.
pub fn run_e10(
    budget: &ExperimentBudget,
    _observer: &Observer,
) -> Result<ExperimentOutcome, CampaignError> {
    let circuit = build_masked_sbox(SboxOptions::default()).expect("valid netlist");
    let mut rng = StdRng::seed_from_u64(budget.seed);
    let mut sim = Simulator::new(&circuit.netlist);
    let mut correct = 0usize;
    for x in 0..=255u8 {
        sim.reset();
        for _ in 0..=circuit.latency {
            let mask: u8 = rng.gen();
            sim.set_bus_lane(&circuit.b_shares[0], 0, (x ^ mask) as u64);
            sim.set_bus_lane(&circuit.b_shares[1], 0, mask as u64);
            sim.set_bus_lane(&circuit.r_bus, 0, rng.gen_range(1..=255u8) as u64);
            sim.set_bus_lane(&circuit.r_prime_bus, 0, rng.gen::<u8>() as u64);
            for &wire in &circuit.fresh {
                sim.set_input_bit(wire, 0, rng.gen());
            }
            sim.step();
        }
        sim.eval();
        let s0 = sim.bus_lane(&circuit.out_shares[0], 0) as u8;
        let s1 = sim.bus_lane(&circuit.out_shares[1], 0) as u8;
        if s0 ^ s1 == sbox(Gf256::new(x)).to_byte() {
            correct += 1;
        }
    }
    let masked_stats = NetlistStats::of(&circuit.netlist);
    let (unprotected, ..) = build_unprotected_sbox(InverterKind::Tower).expect("valid netlist");
    let unprotected_stats = NetlistStats::of(&unprotected);
    let matches = circuit.latency == 5 && correct == 256;
    Ok(ExperimentOutcome {
        id: "E10",
        title: "Pipeline structure: latency 5, correct for all inputs",
        paper_location: "§II-C, Fig. 2",
        paper_claim: "latency 5 (3 Kronecker + 2 conversions), 1 S-box/cycle, affine combinational",
        observed: format!(
            "latency = {}, correct outputs = {}/256, area = {:.0} GE (unprotected {:.0} GE, {:.1}×)",
            circuit.latency,
            correct,
            masked_stats.gate_equivalents,
            unprotected_stats.gate_equivalents,
            masked_stats.gate_equivalents / unprotected_stats.gate_equivalents
        ),
        matches_paper: matches,
        schedule: SboxOptions::default().schedule.name().to_owned(),
        traces: 0,
        max_minus_log10_p: 0.0,
        details: format!("{masked_stats}\n{unprotected_stats}"),
    })
}

/// E11 (§I/§II-B): the zero-value problem as a first-order DPA — broken
/// without the Kronecker mapping, closed with it.
pub fn run_e11(
    budget: &ExperimentBudget,
    _observer: &Observer,
) -> Result<ExperimentOutcome, CampaignError> {
    let mut rng = StdRng::seed_from_u64(budget.seed);
    let unprotected = zero_value_t_test(ZeroMapping::Disabled, budget.dpa_traces, 1.0, &mut rng);
    let protected = zero_value_t_test(ZeroMapping::Enabled, budget.dpa_traces, 1.0, &mut rng);
    let matches =
        unprotected.statistic.abs() > TVLA_THRESHOLD && protected.statistic.abs() < TVLA_THRESHOLD;
    Ok(ExperimentOutcome {
        id: "E11",
        title: "Zero-value problem: first-order DPA on HW leakage",
        paper_location: "§I, §II-B (Golić–Tymen)",
        paper_claim: "multiplicative masking cannot hide zero; the δ mapping fixes it",
        observed: format!(
            "|t| unprotected = {:.1} (threshold {TVLA_THRESHOLD}), |t| with Kronecker mapping = {:.2}",
            unprotected.statistic.abs(),
            protected.statistic.abs()
        ),
        matches_paper: matches,
        schedule: "zero-value mapping on/off".to_owned(),
        traces: 2 * budget.dpa_traces as u64,
        max_minus_log10_p: 0.0,
        details: String::new(),
    })
}

/// E12 (extension, beyond the paper): the *complete* masked AES-128
/// encryption core — sixteen S-box pipelines, linear layers, round
/// controller — evaluated as one netlist, demonstrating the "complete
/// masked cipher implementations" capability PROLEAD advertises. With
/// the Eq. 6 schedule in every S-box the cipher leaks (fixed plaintext
/// 0 puts zero bytes through round 1); with Eq. 9 it passes.
pub fn run_e12(
    budget: &ExperimentBudget,
    observer: &Observer,
) -> Result<ExperimentOutcome, CampaignError> {
    let mut rows = Vec::new();
    let mut matches = true;
    let mut total_traces = 0u64;
    let mut worst = 0.0f64;
    for (schedule, expect_pass) in [
        (KroneckerRandomness::de_meyer_eq6(), false),
        (KroneckerRandomness::proposed_eq9(), true),
    ] {
        let circuit = build_masked_aes(&schedule, InverterKind::Tower)
            .expect("generator emits valid netlists");
        let config = EvaluationConfig {
            traces: budget.cipher_traces,
            fixed_secret: 0, // plaintext and key bytes fixed to 0
            // Observe mid-round-2, after real data circulates.
            warmup_cycles: 1 + 2 * ROUND_CYCLES,
            seed: budget.seed,
            checkpoints: budget.checkpoints,
            threads: budget.threads,
            statistic: budget.statistic,
            durability: campaign_durability(budget, &format!("aes-{}", schedule.name())),
            ..EvaluationConfig::default()
        };
        let mut campaign = FixedVsRandom::new(&circuit.netlist, config)
            .schedule_control(circuit.load, vec![true, false])
            .with_observer(observer.clone());
        for bus in &circuit.r_buses {
            campaign = campaign.require_nonzero_bus(bus.clone());
        }
        let report = campaign.try_run()?;
        matches &= report.passed() == expect_pass;
        total_traces += report.traces;
        worst = worst.max(max_minus_log10_p(&[&report]));
        rows.push(format!(
            "{}: {} (expected {})",
            schedule.name(),
            report.verdict(),
            if expect_pass { "PASS" } else { "FAIL" }
        ));
    }
    Ok(ExperimentOutcome {
        id: "E12",
        title: "Extension: complete masked AES-128 core evaluated",
        paper_location: "extension (PROLEAD capability, §II-D)",
        paper_claim: "full-cipher analysis flags Eq. 6 and clears Eq. 9, like the S-box",
        observed: rows.join("\n            "),
        matches_paper: matches,
        schedule: format!(
            "{} + {}",
            KroneckerRandomness::de_meyer_eq6().name(),
            KroneckerRandomness::proposed_eq9().name()
        ),
        traces: total_traces,
        max_minus_log10_p: worst,
        details: rows.join("\n"),
    })
}

/// Runs every experiment in order, stopping at the first campaign
/// whose fault containment is exhausted.
pub fn run_all(
    budget: &ExperimentBudget,
    observer: &Observer,
) -> Result<Vec<ExperimentOutcome>, CampaignError> {
    Ok(vec![
        run_e1(budget, observer)?,
        run_e2(budget, observer)?,
        run_e3(budget, observer)?,
        run_e4(budget, observer)?,
        run_e5(budget, observer)?,
        run_e6(budget, observer)?,
        run_e7(budget, observer)?,
        run_e8(budget, observer)?,
        run_e9(budget, observer)?,
        run_e10(budget, observer)?,
        run_e11(budget, observer)?,
        run_e12(budget, observer)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> ExperimentBudget {
        ExperimentBudget::smoke()
    }

    #[test]
    fn e9_and_e10_are_cheap_and_reproduce() {
        let observer = Observer::null();
        let e9 = run_e9(&smoke(), &observer).expect("no campaign to fault");
        assert!(e9.matches_paper, "{e9}");
        let e10 = run_e10(&smoke(), &observer).expect("no campaign to fault");
        assert!(e10.matches_paper, "{e10}");
    }

    #[test]
    fn e11_reproduces() {
        let e11 = run_e11(&smoke(), &Observer::null()).expect("no campaign to fault");
        assert!(e11.matches_paper, "{e11}");
    }
}
