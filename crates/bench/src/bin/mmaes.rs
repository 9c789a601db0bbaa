//! `mmaes` — command-line front end to the reproduction.
//!
//! ```text
//! mmaes schedules                          list the randomness schedules
//! mmaes stats    <design>                  synthesis-style statistics
//! mmaes dot      <design> [file]           Graphviz export
//! mmaes verilog  <design> [file]           structural Verilog export
//! mmaes evaluate <design> [options]        PROLEAD-style campaign
//! mmaes explain  <design> [options]        campaign + root-cause forensics
//! mmaes verify   <design> [options]        exhaustive (SILVER-style) proof
//! mmaes selftest [options]                 fault-injection detector check
//! mmaes chaos    [options]                 fault-containment chaos harness
//! mmaes top      <status.json | --addr A>  live campaign dashboard
//! ```
//!
//! Designs: `kronecker[:SCHEDULE]`, `sbox[:SCHEDULE]`, `sbox-no-kronecker`,
//! `aes[:SCHEDULE]`, `unprotected-sbox`, where SCHEDULE is one of the
//! names printed by `mmaes schedules` (default: `proposed-eq9`).
//!
//! Observer options, accepted by every verb below (the `exp_*`
//! binaries share the same parser): `--metrics FILE` (the JSON-lines
//! event stream), `--status-file FILE` (atomically rewritten
//! status.json with progress, top trajectories and convergence health
//! — watch it with `mmaes top`), `--metrics-addr HOST:PORT`
//! (Prometheus `/metrics` + JSON `/status` over HTTP; port 0 picks a
//! free port, the bound address is printed on stderr), `--trace FILE`
//! (Chrome-trace JSON of the per-phase timings, viewable in
//! `chrome://tracing` or Perfetto), `--progress`, `--perf`, `--quiet`
//! and `--help`.
//!
//! Evaluate options: `--model glitch|transition`, `--order 1|2`,
//! `--traces N`, `--fixed V`, `--seed N`, `--scope PREFIX`, `--csv FILE`,
//! `--checkpoints N`, `--early-stop`, `--threads N`,
//! `--statistic gtest|ttest` (the leakage test folded over the
//! contingency tables: the PROLEAD-style G-test on the full observation
//! distribution, or a TVLA-style Welch t-test on the observations'
//! Hamming weight — see `mmaes_leakage::Statistic`),
//! `--snapshot FILE`, `--resume`, `--stop-after-batches N`,
//! `--failpoints SPEC` (deterministic fault injection — see `mmaes
//! chaos` below; the `MMAES_FAILPOINTS` environment variable installs
//! the same schedule for any subcommand). Campaign output
//! (report, CSV, snapshots) is byte-identical for every `--threads`
//! count — including runs where injected or real worker faults forced
//! batch retries; in status.json every
//! wall-clock-derived field lives under the single `runtime` key.
//!
//! Explain options: the evaluate options except `--csv`, plus
//! `--no-exact` (skip the enumerator cross-check), `--max-bits N` (its
//! support bound), `--bundles FILE` (machine-readable evidence bundles,
//! one JSON object per line), `--report FILE` (self-contained HTML
//! report). `explain` runs the same fixed-vs-random campaign, then
//! assembles a deterministic evidence bundle for every flagged probing
//! set: the glitch-extended observation set with extension rules, the
//! contingency table decomposed into per-cell G contributions, the
//! randomness-schedule reuse analysis (Eq. 6's recycled `r1 = r3`),
//! the exact enumerator's unmasked-secret-bit dependence, and a
//! DOT/Verilog rendering of the implicated subcircuit. Bundles are
//! byte-identical across `--threads` counts.
//! Verify options: `--scope PREFIX`, `--max-bits N`, `--transition`.
//! Selftest options: `--traces N`, `--per-kind N`.
//! Chaos options: `--traces N`, `--seed N`, `--threads N`,
//! `--statistic gtest|ttest`, `--failpoints SPEC`. `chaos`
//! runs the Eq. 6 campaign fault-free (the run the observer options
//! watch), then re-runs it under a
//! scripted fault schedule (worker panics, a stalled batch, snapshot
//! and status-file write errors by default) at one and `--threads`
//! worker threads and asserts containment: the finding survives, the report
//! is byte-identical to the fault-free baseline, the degraded
//! subsystems are reported, and the final snapshot is loadable. Failpoint specs
//! are `site=action[@WHEN][xCOUNT][~P:SEED]` entries joined with `;`
//! — sites `worker` (keyed by batch index), `snapshot.save`,
//! `status.write`, `metrics.write`; actions `ioerr`, `truncate`,
//! `panic`, `stall[(MS)]`.
//!
//! Every verb that runs campaigns or proofs ends with one
//! machine-readable JSON summary line on stdout (versioned by
//! `EVENT_SCHEMA_VERSION`; it includes `elapsed_ms`, `traces_per_sec`,
//! `cell_evals`, `interrupted`, `threads`). `evaluate` and `explain`
//! render the campaign's final run record there, so the summary's wall
//! time and throughput are the ones `status.json`, `/metrics` and the
//! HTML report show; `selftest`, `chaos` and `verify` time the whole
//! verb. `--metrics` additionally records the full event stream
//! (campaign checkpoints with per-probe-set `-log10(p)` trajectories,
//! threshold crossings, `--perf` phase snapshots, the final verdict) as
//! JSON lines.
//!
//! Long campaigns are crash-safe: `--snapshot FILE` persists the full
//! campaign state atomically at every checkpoint, SIGINT/SIGTERM stops
//! cooperatively after the batch in flight (exit 3), and `--resume`
//! continues bit-identically. `selftest` injects structural faults
//! (gate flips, stuck randomness, share swaps) into the leaky Eq. 6
//! design and asserts the detector flags every mutant while keeping the
//! repaired Eq. 9 design clean — a detection-power check on the tool
//! itself.
//!
//! Exit codes (all subcommands): 0 clean/reproduced, 1 leakage found or
//! selftest miss, 2 invalid input (bad flag, unknown design, corrupt
//! snapshot), 3 interrupted.

use std::process::exit;

use mmaes_bench::{
    exit_code, invalid, parse_statistic, unwrap_campaign, Args, ObserverFlags, RunOptions,
};
use mmaes_circuits::{
    build_kronecker, build_masked_aes, build_masked_sbox, sbox::build_unprotected_sbox,
    InverterKind, SboxOptions,
};
use mmaes_core::ExperimentBudget;
use mmaes_exact::{ExactConfig, ExactVerifier, ProbeVerdict};
use mmaes_leakage::{
    forensics, Durability, EvaluationConfig, EvidenceBundle, ExactDependence, FixedVsRandom,
    ProbeModel, ProbeSet, StatisticKind,
};
use mmaes_masking::KroneckerRandomness;
use mmaes_netlist::{Netlist, NetlistStats, WireId};
use mmaes_telemetry::{Event, Observer};

fn main() {
    // A malformed MMAES_FAILPOINTS is a bad input, not a chaos event:
    // refuse to run rather than silently ignore the schedule.
    if let Err(error) = mmaes_telemetry::failpoint::configure_from_env() {
        eprintln!("{error}");
        exit(2);
    }
    let arguments: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = arguments.first() else {
        usage();
        exit(2);
    };
    match command.as_str() {
        "schedules" => schedules(),
        "stats" => stats(&arguments[1..]),
        "dot" => export(&arguments[1..], |netlist| netlist.to_dot(), "dot"),
        "verilog" => export(&arguments[1..], |netlist| netlist.to_verilog(), "v"),
        "evaluate" => evaluate(&arguments[1..]),
        "explain" => explain(&arguments[1..]),
        "verify" => verify(&arguments[1..]),
        "selftest" => selftest(&arguments[1..]),
        "chaos" => chaos(&arguments[1..]),
        "top" => mmaes_bench::top::run(&arguments[1..]),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command `{other}`");
            usage();
            exit(2);
        }
    }
}

const USAGE: &str = "mmaes — multiplicative-masked AES leakage toolbox\n\
         \n\
         mmaes schedules\n\
         mmaes stats    <design>\n\
         mmaes dot      <design> [file]\n\
         mmaes verilog  <design> [file]\n\
         mmaes evaluate <design> [--model glitch|transition] [--order N] [--traces N]\n\
         \u{20}                  [--fixed V] [--seed N] [--scope PREFIX] [--csv FILE]\n\
         \u{20}                  [--checkpoints N] [--early-stop] [--threads N]\n\
         \u{20}                  [--statistic gtest|ttest]\n\
         \u{20}                  [--snapshot FILE] [--resume] [--stop-after-batches N]\n\
         \u{20}                  [--failpoints SPEC] [observer options]\n\
         mmaes explain  <design> [evaluate options but --csv] [--no-exact]\n\
         \u{20}                  [--max-bits N] [--bundles FILE] [--report FILE]\n\
         mmaes verify   <design> [--scope PREFIX] [--max-bits N] [--transition]\n\
         \u{20}                  [observer options]\n\
         mmaes selftest [--traces N] [--per-kind N] [observer options]\n\
         mmaes chaos    [--traces N] [--seed N] [--threads N]\n\
         \u{20}                  [--statistic gtest|ttest] [--failpoints SPEC]\n\
         \u{20}                  [observer options]\n\
         mmaes top      <status.json> | --addr HOST:PORT\n\
         \u{20}                  [--interval SECS] [--once]\n\
         \n\
         observer options: [--metrics FILE] [--status-file FILE]\n\
         \u{20}                  [--metrics-addr HOST:PORT] [--trace FILE]\n\
         \u{20}                  [--progress] [--perf] [--quiet]\n\
         \n\
         designs: kronecker[:SCHEDULE] | sbox[:SCHEDULE] | sbox-no-kronecker |\n\
         \u{20}        aes[:SCHEDULE] | unprotected-sbox\n\
         \n\
         exit codes: 0 clean/reproduced | 1 leakage found or selftest miss |\n\
         \u{20}           2 invalid input | 3 interrupted (SIGINT/SIGTERM; state saved\n\
         \u{20}           with --snapshot, continue with --resume)";

fn usage() {
    eprintln!("{USAGE}");
}

fn schedules() {
    println!("first-order schedules (see the paper's Eq. 6/Eq. 9 and §IV):");
    for schedule in KroneckerRandomness::first_order_catalog() {
        println!("  {schedule}");
    }
    println!("second-order schedules:");
    for schedule in [
        KroneckerRandomness::full_order2(),
        KroneckerRandomness::de_meyer_13_reconstruction(),
    ] {
        println!("  {schedule}");
    }
}

/// The built design plus the evaluation plumbing it needs.
struct Design {
    netlist: Netlist,
    nonzero_buses: Vec<Vec<WireId>>,
    load: Option<WireId>,
    schedule: String,
}

/// Schedule names compare with separators stripped, so the common
/// misspellings still resolve (`demeyer-eq6` ≡ `de-meyer-eq6`,
/// `full_7` ≡ `full-7`).
fn normalize_schedule_name(name: &str) -> String {
    name.chars()
        .filter(|character| *character != '-' && *character != '_')
        .collect::<String>()
        .to_lowercase()
}

fn schedule_by_name(name: &str) -> KroneckerRandomness {
    let mut catalog = KroneckerRandomness::first_order_catalog();
    catalog.push(KroneckerRandomness::full_order2());
    catalog.push(KroneckerRandomness::de_meyer_13_reconstruction());
    let wanted = normalize_schedule_name(name);
    catalog
        .into_iter()
        .find(|schedule| normalize_schedule_name(schedule.name()) == wanted)
        .unwrap_or_else(|| {
            eprintln!("unknown schedule `{name}` (try `mmaes schedules`)");
            exit(2);
        })
}

fn build_design(spec: &str) -> Design {
    let (kind, schedule_name) = match spec.split_once(':') {
        Some((kind, schedule)) => (kind, schedule),
        None => (spec, "proposed-eq9"),
    };
    match kind {
        "kronecker" => {
            let schedule = schedule_by_name(schedule_name);
            let circuit = build_kronecker(&schedule).expect("generator emits valid netlists");
            Design {
                netlist: circuit.netlist,
                nonzero_buses: Vec::new(),
                load: None,
                schedule: schedule.name().to_owned(),
            }
        }
        "sbox" => {
            let schedule = schedule_by_name(schedule_name);
            let name = schedule.name().to_owned();
            let circuit = build_masked_sbox(SboxOptions {
                schedule,
                ..SboxOptions::default()
            })
            .expect("generator emits valid netlists");
            Design {
                nonzero_buses: vec![circuit.r_bus.clone()],
                netlist: circuit.netlist,
                load: None,
                schedule: name,
            }
        }
        "sbox-no-kronecker" => {
            let options = SboxOptions {
                include_kronecker: false,
                ..SboxOptions::default()
            };
            let name = options.schedule.name().to_owned();
            let circuit = build_masked_sbox(options).expect("generator emits valid netlists");
            Design {
                nonzero_buses: vec![circuit.r_bus.clone()],
                netlist: circuit.netlist,
                load: None,
                schedule: name,
            }
        }
        "aes" => {
            let schedule = schedule_by_name(schedule_name);
            let circuit = build_masked_aes(&schedule, InverterKind::Tower)
                .expect("generator emits valid netlists");
            Design {
                nonzero_buses: circuit.r_buses.clone(),
                load: Some(circuit.load),
                netlist: circuit.netlist,
                schedule: schedule.name().to_owned(),
            }
        }
        "unprotected-sbox" => {
            let (netlist, ..) = build_unprotected_sbox(InverterKind::Tower).expect("valid netlist");
            Design {
                netlist,
                nonzero_buses: Vec::new(),
                load: None,
                schedule: String::new(),
            }
        }
        other => {
            eprintln!("unknown design `{other}`");
            usage();
            exit(2);
        }
    }
}

fn stats(arguments: &[String]) {
    let Some(spec) = arguments.first() else {
        eprintln!("stats needs a design");
        exit(2);
    };
    let design = build_design(spec);
    println!("{}", NetlistStats::of(&design.netlist));
    println!("  by scope (top 15):");
    let mut by_scope: Vec<(String, usize)> = NetlistStats::cells_by_scope(&design.netlist)
        .into_iter()
        .collect();
    by_scope.sort_by_key(|entry| std::cmp::Reverse(entry.1));
    for (scope, count) in by_scope.into_iter().take(15) {
        let scope = if scope.is_empty() {
            "<top>".to_owned()
        } else {
            scope
        };
        println!("    {scope:<40} {count:>6}");
    }
}

fn export(arguments: &[String], render: impl Fn(&Netlist) -> String, extension: &str) {
    let Some(spec) = arguments.first() else {
        eprintln!("export needs a design");
        exit(2);
    };
    let design = build_design(spec);
    let rendered = render(&design.netlist);
    match arguments.get(1) {
        Some(path) => {
            std::fs::write(path, rendered).unwrap_or_else(|error| {
                eprintln!("cannot write {path}: {error}");
                exit(1);
            });
            println!("wrote {path}");
        }
        None => {
            let path = format!("{}.{extension}", design.netlist.name());
            std::fs::write(&path, rendered).unwrap_or_else(|error| {
                eprintln!("cannot write {path}: {error}");
                exit(1);
            });
            println!("wrote {path}");
        }
    }
}

/// Parses the campaign flags `evaluate` and `explain` share into
/// `config`; `false` when `flag` is not one of them.
fn campaign_flag(config: &mut EvaluationConfig, flag: &str, args: &mut Args) -> bool {
    match flag {
        "--model" => {
            config.model = match args.value().as_str() {
                "glitch" => ProbeModel::Glitch,
                "transition" | "glitch+transition" => ProbeModel::GlitchTransition,
                other => invalid(format_args!("unknown model `{other}`")),
            }
        }
        "--order" => {
            config.order = args.number();
            if !(1..=2).contains(&config.order) {
                invalid(format_args!(
                    "flag --order: supported probing orders are 1 and 2"
                ));
            }
        }
        "--traces" => config.traces = args.number(),
        "--fixed" => config.fixed_secret = args.number(),
        "--seed" => config.seed = args.number(),
        "--scope" => config.probe_scope_filter = Some(args.value()),
        "--checkpoints" => config.checkpoints = args.number(),
        "--early-stop" => config.early_stop = true,
        "--threads" => config.threads = args.number(),
        "--statistic" => config.statistic = parse_statistic(&args.value()),
        "--snapshot" => {
            config.durability.snapshot_path = Some(std::path::PathBuf::from(args.value()));
        }
        "--resume" => config.durability.resume = true,
        "--stop-after-batches" => config.durability.stop_after_batches = Some(args.number()),
        "--failpoints" => {
            let spec = args.value();
            mmaes_telemetry::failpoint::configure(&spec)
                .unwrap_or_else(|error| invalid(format_args!("--failpoints: {error}")));
        }
        _ => return false,
    }
    true
}

/// Parses a campaign verb's command line — the design, the shared
/// campaign flags, the verb's own flags (`verb_flag`) and the observer
/// flags — installs the interrupt handler and starts the run.
fn campaign_run(
    verb: &str,
    arguments: &[String],
    mut verb_flag: impl FnMut(&str, &mut Args) -> bool,
) -> (Design, EvaluationConfig, RunOptions) {
    let Some(spec) = arguments.first() else {
        eprintln!("{verb} needs a design");
        exit(2);
    };
    let design = build_design(spec);
    // The CLI defaults to 8 interim checkpoints so `--metrics` and
    // `--csv` capture trajectories out of the box; `--checkpoints 0`
    // restores the bare fast path.
    let mut config = EvaluationConfig {
        checkpoints: 8,
        ..EvaluationConfig::default()
    };
    let flags = ObserverFlags::parse(arguments[1..].iter().cloned(), USAGE, |flag, args| {
        campaign_flag(&mut config, flag, args) || verb_flag(flag, args)
    });
    if config.durability.resume && config.durability.snapshot_path.is_none() {
        invalid(format_args!("--resume needs --snapshot FILE"));
    }
    config.durability.interrupt = Some(mmaes_sigint::install());
    // Cipher cores need a deeper warm-up and their load pulse.
    if design.load.is_some() {
        config.warmup_cycles = 14;
    }
    let budget = ExperimentBudget {
        threads: config.threads,
        statistic: config.statistic,
        ..ExperimentBudget::default()
    };
    (design, config, RunOptions::start(flags, budget))
}

/// The fixed-vs-random campaign on `design`, observed by `observer`.
fn campaign<'a>(
    design: &'a Design,
    config: EvaluationConfig,
    observer: &Observer,
) -> FixedVsRandom<'a> {
    let mut campaign = FixedVsRandom::new(&design.netlist, config).with_observer(observer.clone());
    for bus in &design.nonzero_buses {
        campaign = campaign.require_nonzero_bus(bus.clone());
    }
    if let Some(load) = design.load {
        campaign = campaign.schedule_control(load, vec![true, false]);
    }
    campaign
}

fn evaluate(arguments: &[String]) {
    let mut csv_path: Option<String> = None;
    let (design, config, run) = campaign_run("evaluate", arguments, |flag, args| {
        if flag != "--csv" {
            return false;
        }
        csv_path = Some(args.value());
        true
    });
    let (report, _, record) =
        unwrap_campaign(campaign(&design, config, &run.observer).try_run_recorded(false));
    if !run.quiet() {
        println!("{report}");
    }
    if let Some(path) = csv_path {
        std::fs::write(&path, report.to_csv()).unwrap_or_else(|error| {
            eprintln!("cannot write {path}: {error}");
            exit(1);
        });
        if !run.quiet() {
            println!("per-probe results written to {path}");
        }
    }
    let mut summary = run.record_summary("mmaes evaluate", &arguments[0], record);
    summary.schedule = design.schedule.clone();
    run.finish_with(summary);
}

/// `mmaes explain` — the campaign plus root-cause forensics.
///
/// Runs the same fixed-vs-random campaign as `evaluate` (retaining the
/// per-probe contingency tables), then assembles a deterministic
/// [`EvidenceBundle`] for every flagged probing set and cross-checks it
/// against the exact enumerator. On the paper's Eq. 6 design this names
/// the recycled `r1 = r3` randomness and the unmasked `x1, x5`
/// dependence; on the repaired Eq. 9 design it finds nothing to explain.
fn explain(arguments: &[String]) {
    let mut bundles_path: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut no_exact = false;
    let mut max_bits = ExactConfig::default().max_support_bits;
    let (design, config, run) = campaign_run("explain", arguments, |flag, args| {
        match flag {
            "--no-exact" => no_exact = true,
            "--max-bits" => max_bits = args.number(),
            "--bundles" => bundles_path = Some(args.value()),
            "--report" => report_path = Some(args.value()),
            _ => return false,
        }
        true
    });
    let spec = &arguments[0];
    let campaign_model = config.model;
    let (report, tables, record) =
        unwrap_campaign(campaign(&design, config, &run.observer).try_run_recorded(true));
    let quiet = run.quiet();
    if !quiet {
        println!("{report}");
    }

    // Forensics: one evidence bundle per flagged probing set. An
    // interrupted campaign has partial statistics — no bundles then.
    let schedule = (!design.schedule.is_empty()).then(|| schedule_by_name(&design.schedule));
    let verifier = (!no_exact && !report.interrupted).then(|| {
        let observe_cycle = ExactVerifier::new(&design.netlist).config().observe_cycle;
        ExactVerifier::with_config(
            &design.netlist,
            ExactConfig {
                model: campaign_model,
                observe_cycle,
                max_support_bits: max_bits,
                ..ExactConfig::default()
            },
        )
    });
    let mut bundles: Vec<EvidenceBundle> = Vec::new();
    if !report.interrupted {
        for result in report.leaking() {
            let Some(table) = tables.iter().find(|table| table.label == result.label) else {
                continue;
            };
            let mut bundle = forensics::assemble(
                &design.netlist,
                schedule.as_ref(),
                campaign_model,
                result,
                table,
            );
            if let Some(verifier) = &verifier {
                bundle.set_exact(exact_dependence(&design.netlist, verifier, &table.set));
            }
            bundles.push(bundle);
        }
    }
    for bundle in &bundles {
        run.observer.emit(&Event::Finding {
            label: bundle.label.clone(),
            minus_log10_p: bundle.minus_log10_p,
            hint: bundle.hint.clone(),
            bundle: bundle.to_json(),
        });
        // The progress sink prints findings itself; without one the
        // one-line root-cause hint still belongs on stderr.
        if !quiet && !run.progress() {
            eprintln!(
                "[finding] {} (-log10(p) = {:.2}): {}",
                bundle.label, bundle.minus_log10_p, bundle.hint
            );
        }
    }
    if let Some(path) = &bundles_path {
        let document: String = bundles
            .iter()
            .map(|bundle| format!("{}\n", bundle.to_json()))
            .collect();
        std::fs::write(path, document).unwrap_or_else(|error| {
            eprintln!("cannot write {path}: {error}");
            exit(1);
        });
        if !quiet {
            println!("{} evidence bundle(s) written to {path}", bundles.len());
        }
    }
    if let Some(path) = &report_path {
        let document =
            mmaes_bench::html::render_report(&report, &record, &bundles, spec, &design.schedule);
        std::fs::write(path, document).unwrap_or_else(|error| {
            eprintln!("cannot write {path}: {error}");
            exit(1);
        });
        if !quiet {
            println!("HTML report written to {path}");
        }
    }
    if report.interrupted {
        eprintln!("no forensics were run on the partial statistics");
    }
    let mut summary = run.record_summary("mmaes explain", spec, record);
    summary.schedule = design.schedule.clone();
    summary.extra = vec![("findings".to_owned(), bundles.len().to_string())];
    run.finish_with(summary);
}

/// Runs the exact enumerator on one flagged probing set and folds the
/// verdict into the bundle's [`ExactDependence`] form.
fn exact_dependence(
    netlist: &Netlist,
    verifier: &ExactVerifier<'_>,
    set: &ProbeSet,
) -> ExactDependence {
    match verifier.verify_probe(set) {
        ProbeVerdict::Secure { support_bits, .. } => ExactDependence {
            verdict: "secure".to_owned(),
            secret_bits: Vec::new(),
            conditioning_a: String::new(),
            conditioning_b: String::new(),
            support_bits,
        },
        ProbeVerdict::TooWide { support_bits } => ExactDependence {
            verdict: "too-wide".to_owned(),
            secret_bits: Vec::new(),
            conditioning_a: String::new(),
            conditioning_b: String::new(),
            support_bits,
        },
        ProbeVerdict::Leaky {
            counterexample,
            support_bits,
        } => ExactDependence {
            verdict: "leaky".to_owned(),
            secret_bits: secret_bit_names(
                netlist,
                &counterexample.secret_a,
                &counterexample.secret_b,
            ),
            conditioning_a: counterexample.secret_a,
            conditioning_b: counterexample.secret_b,
            support_bits,
        },
    }
}

/// Names the secret bits a counterexample's two conditioning
/// assignments (`s0[1]@c3=0,s0[5]@c3=0` vs `s0[1]@c3=1,s0[5]@c3=1`)
/// *differ* in — the bits the joint observation actually depends on —
/// sorted and deduplicated across cycles. A single-secret design
/// renders them in the paper's unshared-input notation (`x1`, `x5`);
/// multi-secret designs keep the `s{n}[{bit}]` form.
fn secret_bit_names(netlist: &Netlist, conditioning_a: &str, conditioning_b: &str) -> Vec<String> {
    use std::collections::{BTreeSet, HashMap};
    // `s{secret}[{bit}]@c{cycle}` → assigned value.
    fn assignments(conditioning: &str) -> HashMap<&str, &str> {
        conditioning
            .split(',')
            .filter_map(|assignment| assignment.split_once('='))
            .collect()
    }
    fn secret_and_bit(head: &str) -> Option<(u64, u64)> {
        let (secret, bit) = head
            .split('@')
            .next()?
            .strip_prefix('s')?
            .strip_suffix(']')?
            .split_once('[')?;
        Some((secret.parse().ok()?, bit.parse().ok()?))
    }
    let first = assignments(conditioning_a);
    let second = assignments(conditioning_b);
    let mut bits: BTreeSet<(u64, u64)> = BTreeSet::new();
    for (head, value) in &first {
        if second.get(head) != Some(value) {
            bits.extend(secret_and_bit(head));
        }
    }
    for head in second.keys() {
        if !first.contains_key(head) {
            bits.extend(secret_and_bit(head));
        }
    }
    let single_secret = netlist.secrets().len() == 1;
    bits.into_iter()
        .map(|(secret, bit)| {
            if single_secret {
                format!("x{bit}")
            } else {
                format!("s{secret}[{bit}]")
            }
        })
        .collect()
}

/// `mmaes selftest` — a detection-power check on the evaluator itself.
///
/// Injects structural faults (gate flips, stuck-at-0 randomness, share
/// swaps) into the known-leaky Eq. 6 Kronecker design and asserts the
/// detector flags the unmutated baseline and *every* mutant, while the
/// repaired Eq. 9 design stays clean. Any miss — a mutant the detector
/// fails to flag, or a false positive on Eq. 9 — exits non-zero: if the
/// tool cannot see planted flaws, its PASS verdicts are worthless.
fn selftest(arguments: &[String]) {
    let mut traces = 60_000u64;
    let mut per_kind = 2usize;
    let flags = ObserverFlags::parse(arguments.iter().cloned(), USAGE, |flag, args| {
        match flag {
            "--traces" => traces = args.number(),
            "--per-kind" => per_kind = args.number(),
            _ => return false,
        }
        true
    });
    let interrupt = mmaes_sigint::install();
    let run = RunOptions::start(flags, ExperimentBudget::default());
    let quiet = run.quiet();

    struct Case {
        name: String,
        netlist: Netlist,
        expect_leak: bool,
    }
    let eq6 = build_kronecker(&KroneckerRandomness::de_meyer_eq6())
        .expect("generator emits valid netlists")
        .netlist;
    let eq9 = build_kronecker(&KroneckerRandomness::proposed_eq9())
        .expect("generator emits valid netlists")
        .netlist;
    let mut cases = vec![
        Case {
            name: "eq6 unmutated (the paper's flaw — must be flagged)".to_owned(),
            netlist: eq6.clone(),
            expect_leak: true,
        },
        Case {
            name: "eq9 unmutated (the paper's repair — must stay clean)".to_owned(),
            netlist: eq9,
            expect_leak: false,
        },
    ];
    for mutant in mmaes_leakage::mutants(&eq6, per_kind) {
        cases.push(Case {
            name: format!("eq6 + {}: {}", mutant.kind.name(), mutant.description),
            netlist: mutant.netlist,
            expect_leak: true,
        });
    }

    let mut misses = 0usize;
    let mut interrupted = false;
    let mut total_traces = 0u64;
    let mut worst = 0.0f64;
    if !quiet {
        println!(
            "{:<64} {:>9} {:>8} {:>12}  ok",
            "case", "expected", "verdict", "-log10(p)"
        );
    }
    for case in &cases {
        let config = EvaluationConfig {
            traces,
            warmup_cycles: 6,
            checkpoints: 8,
            early_stop: true,
            durability: Durability {
                interrupt: Some(interrupt.clone()),
                ..Durability::default()
            },
            ..EvaluationConfig::default()
        };
        let report = unwrap_campaign(
            FixedVsRandom::new(&case.netlist, config)
                .with_observer(run.observer.clone())
                .try_run(),
        );
        if report.interrupted {
            interrupted = true;
            break;
        }
        let leak = !report.passed();
        let ok = leak == case.expect_leak;
        misses += usize::from(!ok);
        total_traces += report.traces;
        let minus_log10_p = report
            .worst()
            .map(|result| result.minus_log10_p)
            .unwrap_or(0.0);
        worst = worst.max(minus_log10_p);
        if !quiet {
            println!(
                "{:<64} {:>9} {:>8} {:>12.2}  {}",
                case.name,
                if case.expect_leak { "LEAK" } else { "clean" },
                if leak { "LEAK" } else { "clean" },
                minus_log10_p,
                if ok { "ok" } else { "MISS" },
            );
        }
    }
    let mut summary = run.base_summary("mmaes selftest", "selftest", total_traces);
    summary.record.design = "kronecker eq6/eq9 + mutants".to_owned();
    summary.record.max_minus_log10_p = worst;
    summary.record.passed = misses == 0 && !interrupted;
    summary.record.interrupted = interrupted;
    summary.extra = vec![
        ("cases".to_owned(), cases.len().to_string()),
        ("misses".to_owned(), misses.to_string()),
    ];
    if interrupted {
        eprintln!("selftest interrupted before all cases ran");
    } else if misses > 0 {
        eprintln!(
            "selftest FAILED: {misses} case(s) missed — the detector cannot be trusted on this build"
        );
    } else if !quiet {
        println!("selftest passed: every planted fault detected, the repaired design stays clean");
    }
    run.finish_with(summary);
}

/// `mmaes chaos` — the deterministic chaos harness, a containment
/// check on the campaign's fault-tolerance machinery.
///
/// Runs the Eq. 6 campaign fault-free to establish a baseline report,
/// then re-runs it under a scripted fault schedule (injected worker
/// panics, a stalled batch, snapshot-save and status-file write errors
/// by default) at one and `--threads` worker threads, asserting after
/// each run that the faults were *contained*: the campaign still
/// completes, the Eq. 6 finding still emerges, the report is
/// byte-identical to the fault-free baseline, the degraded subsystems
/// show up in the registry, and the final snapshot is loadable.
///
/// Exit code is the campaign verdict — 1, since Eq. 6 leaks — so CI
/// can assert the finding survived the chaos. Any containment failure
/// exits 2 instead: a lost finding, a diverged report, or an
/// unreadable snapshot means the fault machinery (not the design)
/// is broken.
fn chaos(arguments: &[String]) {
    use mmaes_telemetry::{degraded, failpoint};

    /// Worker panics on batch 3 (twice, so the retry path runs twice),
    /// one stalled batch, and enough write errors on the snapshot and
    /// status files to exhaust their retry budgets and force degraded
    /// mode — while leaving the *final* snapshot save healthy.
    const DEFAULT_SCHEDULE: &str = "worker=panic@3x2;worker=stall(40)@5;\
                                    snapshot.save=ioerr x3;status.write=ioerr x3";

    let mut traces = 50_000u64;
    let mut seed = EvaluationConfig::default().seed;
    let mut max_threads = 2usize;
    let mut statistic = StatisticKind::default();
    let mut schedule = DEFAULT_SCHEDULE.to_owned();
    let flags = ObserverFlags::parse(arguments.iter().cloned(), USAGE, |flag, args| {
        match flag {
            "--traces" => traces = args.number(),
            "--seed" => seed = args.number(),
            "--threads" => max_threads = args.number(),
            "--statistic" => statistic = parse_statistic(&args.value()),
            "--failpoints" => schedule = args.value(),
            _ => return false,
        }
        true
    });
    // Validate the schedule before spending any compute on it.
    if let Err(error) = failpoint::configure(&schedule) {
        eprintln!("--failpoints: {error}");
        exit(exit_code::INVALID_INPUT);
    }
    failpoint::clear();
    // The observer flags watch the fault-free baseline: the faulted
    // legs inject status-file and snapshot write errors of their own.
    let run = RunOptions::start(
        flags,
        ExperimentBudget {
            threads: max_threads,
            statistic,
            ..ExperimentBudget::default()
        },
    );

    let circuit = build_kronecker(&KroneckerRandomness::de_meyer_eq6())
        .expect("generator emits valid netlists");
    let make_config = |threads: usize, snapshot: Option<std::path::PathBuf>| EvaluationConfig {
        traces,
        seed,
        warmup_cycles: 6,
        checkpoints: 4,
        threads,
        statistic,
        durability: Durability {
            snapshot_path: snapshot,
            ..Durability::default()
        },
        ..EvaluationConfig::default()
    };

    // Phase 0: the fault-free baseline every chaos run is judged against.
    degraded::clear();
    let baseline = unwrap_campaign(
        FixedVsRandom::new(&circuit.netlist, make_config(1, None))
            .with_observer(run.observer.clone())
            .try_run(),
    );
    let baseline_csv = baseline.to_csv();
    let found_leak = !baseline.passed();
    if !run.quiet() {
        println!(
            "baseline (no faults): {} at {} traces",
            if found_leak { "LEAK" } else { "clean" },
            baseline.traces
        );
    }

    let scratch = std::env::temp_dir();
    let pid = std::process::id();
    let thread_counts: Vec<usize> = if max_threads <= 1 {
        vec![1]
    } else {
        vec![1, max_threads]
    };
    // Every faulted leg, one per configured thread count, must
    // reproduce the fault-free baseline byte for byte.
    let mut failures: Vec<String> = Vec::new();
    for &threads in &thread_counts {
        let snapshot_path = scratch.join(format!("mmaes-chaos-{pid}-t{threads}.snapshot"));
        let status_path = scratch.join(format!("mmaes-chaos-{pid}-t{threads}-status.json"));
        let _ = std::fs::remove_file(&snapshot_path);
        let _ = std::fs::remove_file(&status_path);
        degraded::clear();
        failpoint::configure(&schedule).expect("schedule validated above");
        let observer = Observer::from_sinks(vec![Box::new(
            mmaes_telemetry::StatusFileSink::create(&status_path, threads as u64),
        )]);
        let result = FixedVsRandom::new(
            &circuit.netlist,
            make_config(threads, Some(snapshot_path.clone())),
        )
        .with_observer(observer)
        .try_run();
        failpoint::clear();
        let entries = degraded::snapshot();
        match &result {
            Ok(report) => {
                if report.to_csv() != baseline_csv {
                    failures.push(format!(
                        "threads={threads}: report under faults diverged \
                         from the fault-free baseline"
                    ));
                }
                if report.passed() == found_leak {
                    failures.push(format!(
                        "threads={threads}: the campaign verdict changed \
                         under faults"
                    ));
                }
            }
            Err(error) => failures.push(format!(
                "threads={threads}: faults were not contained: {error}"
            )),
        }
        if schedule.contains("snapshot.save")
            && !entries.iter().any(|entry| entry.subsystem == "snapshot")
        {
            failures.push(format!(
                "threads={threads}: snapshot faults injected but no \
                 degraded mark recorded"
            ));
        }
        if result.is_ok() {
            if let Err(error) = mmaes_leakage::snapshot::load(&snapshot_path) {
                failures.push(format!(
                    "threads={threads}: final snapshot unreadable after \
                     faults: {error}"
                ));
            }
        }
        if !run.quiet() {
            let degraded_list = if entries.is_empty() {
                "none".to_owned()
            } else {
                entries
                    .iter()
                    .map(|entry| format!("{} ({}x)", entry.subsystem, entry.incidents))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            println!(
                "under faults, threads={threads}: {}, degraded: {degraded_list}",
                match &result {
                    Ok(report) if report.to_csv() == baseline_csv =>
                        "report byte-identical to baseline".to_owned(),
                    Ok(_) => "report DIVERGED".to_owned(),
                    Err(error) => format!("campaign failed: {error}"),
                }
            );
        }
        let _ = std::fs::remove_file(&snapshot_path);
        let _ = std::fs::remove_file(&status_path);
    }

    let mut summary = run.base_summary(
        "mmaes chaos",
        "chaos",
        baseline.traces * (1 + thread_counts.len() as u64),
    );
    summary.schedule = "de-meyer-eq6".to_owned();
    summary.record.design = circuit.netlist.name().to_owned();
    summary.record.max_minus_log10_p = baseline
        .worst()
        .map(|result| result.minus_log10_p)
        .unwrap_or(0.0);
    summary.record.passed = failures.is_empty();
    summary.extra = vec![
        ("failpoints".to_owned(), schedule.clone()),
        (
            "containment_failures".to_owned(),
            failures.len().to_string(),
        ),
    ];
    if failures.is_empty() && !run.quiet() {
        println!(
            "chaos passed: faults contained, the finding and report survived at every thread count"
        );
    }
    run.report(&summary);
    for failure in &failures {
        eprintln!("chaos: containment failure: {failure}");
    }
    exit(if !failures.is_empty() {
        exit_code::INVALID_INPUT
    } else if found_leak {
        exit_code::FINDING
    } else {
        exit_code::CLEAN
    });
}

fn verify(arguments: &[String]) {
    let Some(spec) = arguments.first() else {
        eprintln!("verify needs a design");
        exit(2);
    };
    let design = build_design(spec);
    let mut config = ExactConfig {
        observe_cycle: 5,
        probe_scope_filter: Some("kronecker/G7".to_owned()),
        ..ExactConfig::default()
    };
    let flags = ObserverFlags::parse(arguments[1..].iter().cloned(), USAGE, |flag, args| {
        match flag {
            "--scope" => {
                let scope = args.value();
                config.probe_scope_filter = (scope != "all").then_some(scope);
            }
            "--max-bits" => config.max_support_bits = args.number(),
            "--transition" => config.model = ProbeModel::GlitchTransition,
            _ => return false,
        }
        true
    });
    let model = config.model.name();
    let run = RunOptions::start(flags, ExperimentBudget::default());
    let report = ExactVerifier::with_config(&design.netlist, config)
        .with_observer(run.observer.clone())
        .verify_all();
    if !run.quiet() {
        println!("{report}");
    }
    // A proof samples nothing and shards nothing: no statistic, no
    // thread count, no traces.
    let mut summary = run.base_summary("mmaes verify", spec, 0);
    summary.schedule = design.schedule.clone();
    summary.statistic = String::new();
    summary.threads = 0;
    summary.record.design = design.netlist.name().to_owned();
    summary.record.model = model.to_owned();
    summary.record.passed = !report.leak_found();
    summary.record.cell_evals = report.cell_evals;
    summary.extra = vec![
        ("secure".to_owned(), report.secure_count().to_string()),
        ("leaky".to_owned(), report.leaks().len().to_string()),
        ("too_wide".to_owned(), report.too_wide().len().to_string()),
    ];
    run.finish_with(summary);
}
