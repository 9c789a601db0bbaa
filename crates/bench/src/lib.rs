//! Shared scaffolding for the experiment binaries (`exp_*`).
//!
//! Every binary regenerates one row of EXPERIMENTS.md. All binaries
//! accept the same flags:
//!
//! ```text
//! --traces N        first-order trace budget        (default 200000)
//! --traces2 N       second-order trace budget       (default 100000)
//! --dpa-traces N    DPA traces per population       (default 20000)
//! --seed N          RNG seed                        (default 0x9c01ead)
//! --checkpoints N   interim campaign checkpoints    (default 8)
//! --threads N       campaign worker threads         (default 1)
//! --statistic S     leakage test, gtest|ttest       (default gtest)
//! --paper-scale     use the paper's simulation counts (slow!)
//! --exact-full      exhaustively verify the whole design, not just G7
//! --snapshot DIR    persist per-campaign snapshots under DIR
//! --resume          continue campaigns from their snapshots in DIR
//! --metrics FILE    append JSON-lines telemetry events to FILE
//! --status-file F   rewrite a live status.json atomically at checkpoints
//! --metrics-addr A  serve /metrics and /status over HTTP on A (port 0 ok)
//! --progress        live human-readable progress on stderr
//! --perf            record per-phase timings; breakdown on stderr
//! --quiet           suppress the prose report (the JSON summary stays)
//! ```
//!
//! Regardless of flags, every binary ends by printing exactly one
//! machine-readable JSON summary line on stdout (`"type":"summary"`)
//! recording the experiment id, schedule, traces, max `-log10(p)`,
//! pass/fail verdict, and wall time — and that summary is always the
//! *last* stdout line (see [`print_summary_last`]).
//!
//! Every binary installs a cooperative SIGINT/SIGTERM handler: the
//! first signal lets the running campaign finish its batch, write a
//! final snapshot (when `--snapshot` is set) and emit the summary with
//! `"interrupted":true`; a second signal kills the process. Exit codes
//! follow [`exit_code`]: 0 reproduced/clean, 1 mismatch/leakage,
//! 2 invalid input, 3 interrupted.
//!
//! The [`bench`] module implements the `mmaes bench` regression harness;
//! the [`html`] module renders the `mmaes explain --report` document.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod html;
pub mod top;

use mmaes_core::{ExperimentBudget, ExperimentOutcome};

/// Process exit codes shared by `mmaes` and every `exp_*` binary.
///
/// Interruption takes precedence over a finding: a SIGTERM'd campaign
/// exits 3 even if it has already seen leakage, because its statistics
/// are not final — resume it to get the real verdict.
pub mod exit_code {
    /// Verdict clean / experiment reproduced the paper.
    pub const CLEAN: i32 = 0;
    /// Leakage found / experiment did not reproduce.
    pub const FINDING: i32 = 1;
    /// Malformed command line, unknown design, corrupt or mismatched
    /// snapshot, invalid netlist.
    pub const INVALID_INPUT: i32 = 2;
    /// Interrupted (SIGINT/SIGTERM) — state saved, resumable.
    pub const INTERRUPTED: i32 = 3;
}
use mmaes_telemetry::{
    Event, HumanProgressSink, JsonlSink, MetricsRegistry, MetricsServer, MetricsSink, Observer,
    PerfRecorder, RunSummary, Sink, StatusFileSink, Stopwatch,
};

/// The schema versions of every machine-readable artifact this crate
/// can produce, in the form the [`RunSummary::schemas`] `build_info`
/// block expects. The event schema itself is added by the summary
/// renderer; this lists the artifact formats layered on top.
pub fn schema_versions() -> Vec<(String, u64)> {
    vec![
        ("bench_schema".to_owned(), bench::BENCH_SCHEMA_VERSION),
        (
            "snapshot_schema".to_owned(),
            mmaes_leakage::SNAPSHOT_SCHEMA_VERSION,
        ),
        (
            "status_schema".to_owned(),
            mmaes_telemetry::STATUS_SCHEMA_VERSION,
        ),
    ]
}

/// Parsed command line shared by the `exp_*` binaries: the workload
/// budget, the telemetry observer built from `--metrics`/`--progress`,
/// and a wall-clock stopwatch started at parse time.
#[derive(Debug)]
pub struct RunOptions {
    /// Workload scaling for the experiment.
    pub budget: ExperimentBudget,
    /// Telemetry observer (null unless `--metrics`/`--progress` given).
    pub observer: Observer,
    quiet: bool,
    stopwatch: Stopwatch,
    // Keeps the `--metrics-addr` HTTP server alive until the process
    // exits; dropping it joins the listener thread.
    _metrics_server: Option<MetricsServer>,
}

impl RunOptions {
    /// Parses `std::env::args()` into options and installs the
    /// cooperative SIGINT/SIGTERM handler. Malformed arguments print a
    /// usage message and exit with [`exit_code::INVALID_INPUT`].
    pub fn from_args() -> Self {
        fn invalid(message: std::fmt::Arguments<'_>) -> ! {
            eprintln!("{message} (try --help)");
            std::process::exit(exit_code::INVALID_INPUT);
        }
        let mut budget = ExperimentBudget::default();
        let mut metrics_path: Option<String> = None;
        let mut status_file: Option<String> = None;
        let mut metrics_addr: Option<String> = None;
        let mut progress = false;
        let mut perf = false;
        let mut quiet = false;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .unwrap_or_else(|| invalid(format_args!("flag {flag} needs a value")))
            };
            let mut numeric = |target: &mut u64| {
                *target = value()
                    .parse()
                    .unwrap_or_else(|error| invalid(format_args!("flag {flag}: {error}")));
            };
            match flag.as_str() {
                "--traces" => {
                    numeric(&mut budget.first_order_traces);
                    budget.transition_traces = budget.first_order_traces;
                }
                "--traces2" => numeric(&mut budget.second_order_traces),
                "--dpa-traces" => {
                    let mut value = 0u64;
                    numeric(&mut value);
                    budget.dpa_traces = value as usize;
                }
                "--seed" => numeric(&mut budget.seed),
                "--checkpoints" => numeric(&mut budget.checkpoints),
                "--threads" => {
                    let mut value = 0u64;
                    numeric(&mut value);
                    budget.threads = value as usize;
                }
                "--statistic" => {
                    let name = value();
                    budget.statistic =
                        mmaes_leakage::StatisticKind::parse(&name).unwrap_or_else(|| {
                            invalid(format_args!("unknown statistic `{name}` (gtest|ttest)"))
                        });
                }
                "--paper-scale" => budget = ExperimentBudget::paper_scale(),
                "--exact-full" => budget.exact_scope = None,
                "--snapshot" => budget.snapshot_dir = Some(value()),
                "--resume" => budget.resume = true,
                "--metrics" => metrics_path = Some(value()),
                "--status-file" => status_file = Some(value()),
                "--metrics-addr" => metrics_addr = Some(value()),
                "--progress" => progress = true,
                "--perf" => perf = true,
                "--quiet" => quiet = true,
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --traces N  --traces2 N  --dpa-traces N  --seed N  \
                         --checkpoints N  --threads N  --statistic gtest|ttest  \
                         --paper-scale  --exact-full  \
                         --snapshot DIR  --resume  \
                         --metrics FILE  --status-file FILE  --metrics-addr HOST:PORT  \
                         --progress  --perf  --quiet\n\
                         exit codes: 0 reproduced  1 mismatch  2 invalid input  \
                         3 interrupted (resumable with --snapshot DIR --resume)"
                    );
                    std::process::exit(exit_code::CLEAN);
                }
                other => invalid(format_args!("unknown flag `{other}`")),
            }
        }
        if budget.resume && budget.snapshot_dir.is_none() {
            invalid(format_args!("--resume needs --snapshot DIR"));
        }
        if let Some(dir) = &budget.snapshot_dir {
            if let Err(error) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create snapshot directory {dir}: {error}");
                std::process::exit(exit_code::INVALID_INPUT);
            }
        }
        mmaes_sigint::install();
        let (observer, server) = live_observer(&LiveObserverOptions {
            metrics_path: metrics_path.as_deref(),
            progress: progress && !quiet,
            perf,
            status_file: status_file.as_deref(),
            metrics_addr: metrics_addr.as_deref(),
            threads: budget.threads.max(1) as u64,
        });
        RunOptions {
            budget,
            observer,
            quiet,
            stopwatch: Stopwatch::start(),
            _metrics_server: server,
        }
    }

    /// A [`RunSummary`] prefilled with everything the shared scaffolding
    /// already knows — wall clock, throughput, thread count, statistic,
    /// artifact schema versions, the degraded registry and the interrupt
    /// flag. Callers fill in the verdict fields (`passed`, `traces`,
    /// `max_minus_log10_p`, …) and hand the result to [`finish_with`].
    ///
    /// [`finish_with`]: RunOptions::finish_with
    pub fn base_summary(&self, tool: &str, id: &str, traces: u64) -> RunSummary {
        RunSummary {
            tool: tool.to_owned(),
            id: id.to_owned(),
            statistic: self.budget.statistic.name().to_owned(),
            traces,
            wall_ms: self.stopwatch.elapsed_ms(),
            traces_per_sec: self.stopwatch.rate(traces),
            interrupted: mmaes_sigint::interrupted(),
            threads: self.budget.threads.max(1) as u64,
            schemas: schema_versions(),
            degraded: mmaes_telemetry::degraded::snapshot(),
            ..RunSummary::default()
        }
    }

    /// The shared tail of every `exp_*` binary: emits the summary to the
    /// observer, prints the `--perf` breakdown, writes the one-line JSON
    /// summary as the *last* stdout line, and exits with the canonical
    /// code — [`exit_code::INTERRUPTED`] when the run was signalled
    /// (its statistics are partial, so neither verdict applies),
    /// [`exit_code::CLEAN`] when `summary.passed`, [`exit_code::FINDING`]
    /// otherwise. Prose output must be printed *before* calling this.
    pub fn finish_with(self, summary: RunSummary) -> ! {
        self.observer.emit(&Event::RunSummary(summary.clone()));
        self.report_perf();
        print_summary_last(&self.observer, &summary.to_json_line());
        if summary.interrupted {
            eprintln!("interrupted — partial statistics; resume with --snapshot DIR --resume");
            std::process::exit(exit_code::INTERRUPTED);
        }
        if summary.passed {
            std::process::exit(exit_code::CLEAN);
        }
        std::process::exit(exit_code::FINDING);
    }

    /// Finishes a single-experiment binary: emits the summary to the
    /// observer, prints the prose report (unless `--quiet`) followed by
    /// the one-line JSON summary, and exits non-zero on a mismatch so
    /// the harness can gate on it. An interrupted run (SIGINT/SIGTERM
    /// during a campaign) exits [`exit_code::INTERRUPTED`] instead —
    /// its statistics are partial, so neither verdict applies.
    pub fn finish(self, outcome: &ExperimentOutcome) -> ! {
        let summary = self.summarize(outcome);
        if !self.quiet {
            println!("{outcome}");
            println!();
            println!("--- full evaluator output ---");
            println!("{}", outcome.details);
        }
        if !summary.passed && !summary.interrupted {
            eprintln!("MISMATCH with the paper's claim — see the report above");
        }
        self.finish_with(summary)
    }

    /// Finishes a whole-suite binary (`exp_all`): prints the summary
    /// table, per-experiment reports (unless `--quiet`), then one JSON
    /// summary line aggregating every outcome.
    pub fn finish_suite(self, outcomes: &[ExperimentOutcome]) -> ! {
        let mismatches = outcomes
            .iter()
            .filter(|outcome| !outcome.matches_paper)
            .count();
        let total_traces: u64 = outcomes.iter().map(|outcome| outcome.traces).sum();
        let mut summary = self.base_summary("exp_all", "ALL", total_traces);
        summary.schedule = "suite".to_owned();
        summary.max_minus_log10_p = outcomes
            .iter()
            .map(|outcome| outcome.max_minus_log10_p)
            .fold(0.0, f64::max);
        summary.passed = mismatches == 0;
        summary.extra = vec![
            ("experiments".to_owned(), outcomes.len().to_string()),
            ("mismatches".to_owned(), mismatches.to_string()),
        ];
        if !self.quiet {
            println!("{}", mmaes_core::outcome_table(outcomes));
            for outcome in outcomes {
                println!("{outcome}\n");
            }
            if mismatches == 0 && !summary.interrupted {
                println!(
                    "all {} experiments reproduced the paper's findings",
                    outcomes.len()
                );
            }
        }
        if mismatches > 0 {
            eprintln!("{mismatches} experiment(s) did not reproduce");
        }
        self.finish_with(summary)
    }

    /// Prints the per-phase breakdown to stderr when `--perf` was given.
    fn report_perf(&self) {
        let perf = self.observer.perf();
        if perf.is_enabled() {
            eprint!("{}", perf.render_table());
        }
    }

    fn summarize(&self, outcome: &ExperimentOutcome) -> RunSummary {
        let mut summary = self.base_summary("exp", outcome.id, outcome.traces);
        summary.schedule = outcome.schedule.clone();
        summary.max_minus_log10_p = outcome.max_minus_log10_p;
        summary.passed = outcome.matches_paper;
        summary.extra = vec![("title".to_owned(), outcome.title.to_owned())];
        summary
    }
}

/// Unwraps a campaign result for the experiment binaries: a fault that
/// survived containment (exhausted worker retries, unwritable final
/// snapshot, corrupt resume file, invalid netlist) is an input/
/// environment problem, reported on stderr with
/// [`exit_code::INVALID_INPUT`] — deliberately distinct from exit 1,
/// which is reserved for a *statistical* finding.
pub fn unwrap_campaign<T>(result: Result<T, mmaes_leakage::CampaignError>) -> T {
    match result {
        Ok(value) => value,
        Err(error) => {
            eprintln!("campaign failed: {error}");
            std::process::exit(exit_code::INVALID_INPUT);
        }
    }
}

/// Builds an observer from the shared telemetry flags: a JSON-lines
/// sink when `metrics_path` is given, a throttled human progress sink
/// when `progress` is set, the zero-cost null observer otherwise. With
/// `perf` an enabled [`PerfRecorder`] is attached, so instrumented code
/// records per-phase timings even when no sink is listening.
pub fn observer_from(metrics_path: Option<&str>, progress: bool, perf: bool) -> Observer {
    let (observer, _) = live_observer(&LiveObserverOptions {
        metrics_path,
        progress,
        perf,
        ..LiveObserverOptions::default()
    });
    observer
}

/// Inputs for [`live_observer`] — the shared telemetry flags plus the
/// live-status outputs (`--status-file`, `--metrics-addr`).
#[derive(Debug, Default)]
pub struct LiveObserverOptions<'a> {
    /// `--metrics FILE`: JSON-lines event log.
    pub metrics_path: Option<&'a str>,
    /// `--progress`: throttled human progress on stderr.
    pub progress: bool,
    /// `--perf`: per-phase timing recorder.
    pub perf: bool,
    /// `--status-file FILE`: atomically rewritten status.json.
    pub status_file: Option<&'a str>,
    /// `--metrics-addr HOST:PORT`: Prometheus `/metrics` + `/status`
    /// HTTP endpoint (port 0 picks a free port; the bound address is
    /// printed to stderr).
    pub metrics_addr: Option<&'a str>,
    /// Worker-thread count recorded in the status payload's `runtime`
    /// block (0 is treated as 1).
    pub threads: u64,
}

/// Builds the full observer stack, including the live-status layer.
///
/// On top of [`observer_from`]'s sinks this attaches a
/// [`StatusFileSink`] for `--status-file` and, for `--metrics-addr`, a
/// [`MetricsSink`] feeding a [`MetricsRegistry`] served by a
/// [`MetricsServer`]. The returned server guard (if any) must be kept
/// alive until the process is done — dropping it shuts the endpoint
/// down. A malformed metrics file or unbindable address is fatal
/// ([`exit_code::INVALID_INPUT`]): the user explicitly asked for an
/// output this process cannot provide.
pub fn live_observer(options: &LiveObserverOptions<'_>) -> (Observer, Option<MetricsServer>) {
    let threads = options.threads.max(1);
    let mut sinks: Vec<Box<dyn Sink>> = Vec::new();
    if let Some(path) = options.metrics_path {
        match JsonlSink::create(path) {
            Ok(sink) => sinks.push(Box::new(sink)),
            Err(error) => {
                eprintln!("cannot open metrics file {path}: {error}");
                std::process::exit(exit_code::INVALID_INPUT);
            }
        }
    }
    if options.progress {
        sinks.push(Box::new(HumanProgressSink::new()));
    }
    if let Some(path) = options.status_file {
        sinks.push(Box::new(StatusFileSink::create(path, threads)));
    }
    let mut server = None;
    if let Some(addr) = options.metrics_addr {
        let registry = MetricsRegistry::new();
        match MetricsServer::serve(addr, registry.clone()) {
            Ok(bound) => {
                eprintln!("metrics: listening on http://{}", bound.local_addr());
                sinks.push(Box::new(MetricsSink::new(registry, threads)));
                server = Some(bound);
            }
            Err(error) => {
                eprintln!("cannot serve metrics on {addr}: {error}");
                std::process::exit(exit_code::INVALID_INPUT);
            }
        }
    }
    let mut observer = Observer::from_sinks(sinks);
    if options.perf {
        observer = observer.with_perf(PerfRecorder::enabled());
    }
    (observer, server)
}

/// Prints the machine-readable summary as the *final* stdout line.
///
/// Sinks are flushed first (a `--metrics` file pointed at a pipe must
/// not race the verdict), buffered stdout is flushed, and the summary is
/// written through a locked handle — so progress or prose output can
/// never interleave with, or follow, the summary line.
pub fn print_summary_last(observer: &Observer, summary_line: &str) {
    use std::io::Write as _;
    observer.flush();
    let stdout = std::io::stdout();
    let mut handle = stdout.lock();
    let _ = handle.flush();
    let _ = writeln!(handle, "{summary_line}");
    let _ = handle.flush();
}

/// Parses the common CLI flags into a budget (legacy helper; the
/// experiment binaries use [`RunOptions::from_args`], which also
/// understands the telemetry flags).
///
/// # Panics
///
/// Panics (with a usage message) on malformed arguments.
pub fn budget_from_args() -> ExperimentBudget {
    RunOptions::from_args().budget
}
