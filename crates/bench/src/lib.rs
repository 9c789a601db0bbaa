//! Shared scaffolding for the experiment binaries (`exp_*`) and the
//! `mmaes` verbs.
//!
//! Every tool run goes through [`RunOptions`]: one flag parser for the
//! observer flags ([`ObserverFlags`]), one observer stack, one summary
//! builder and one exit path. Every `exp_*` binary regenerates one row
//! of EXPERIMENTS.md. All of them accept the same flags:
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
//! --trace FILE      write the per-phase timings as Chrome-trace JSON
//! --progress        live human-readable progress on stderr
//! --perf            record per-phase timings; breakdown on stderr
//! --quiet           suppress the prose report (the JSON summary stays)
//! ```
//!
//! The observer flags from `--metrics` on are the ones every `mmaes`
//! verb accepts too. Regardless of flags, every binary ends by printing
//! exactly one machine-readable JSON summary line on stdout
//! (`"type":"summary"`) recording the experiment id, schedule, traces,
//! max `-log10(p)`, pass/fail verdict, and wall time — and that summary
//! is always the *last* stdout line ([`RunOptions::report`]). A
//! single-campaign verb's summary renders the campaign's final
//! [`RunRecord`], so its wall time and throughput are the ones
//! `status.json` and `/metrics` show; a multi-campaign tool times
//! itself with the one stopwatch [`RunOptions::start`] starts.
//!
//! Every binary installs a cooperative SIGINT/SIGTERM handler: the
//! first signal lets the running campaign finish its batch, write a
//! final snapshot (when `--snapshot` is set) and emit the summary with
//! `"interrupted":true`; a second signal kills the process. Exit codes
//! follow [`exit_code`]: 0 reproduced/clean, 1 mismatch/leakage,
//! 2 invalid input, 3 interrupted.
//!
//! The [`html`] module renders the `mmaes explain --report` document;
//! the [`top`] module is the `mmaes top` live dashboard. Performance is
//! measured by the separate `perfbench` harness (see `BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
    chrome_trace, Event, HumanProgressSink, JsonlSink, MetricsRegistry, MetricsServer, MetricsSink,
    Observer, PerfRecorder, RunRecord, RunSummary, Sink, StatusFileSink, Stopwatch,
};

/// The schema versions of every machine-readable artifact this crate
/// can produce, in the form the [`RunSummary::schemas`] `build_info`
/// block expects. The event schema itself is added by the summary
/// renderer; this lists the artifact formats layered on top.
pub fn schema_versions() -> Vec<(String, u64)> {
    vec![
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

/// Prints `message (try --help)` and exits with
/// [`exit_code::INVALID_INPUT`].
pub fn invalid(message: std::fmt::Arguments<'_>) -> ! {
    eprintln!("{message} (try --help)");
    std::process::exit(exit_code::INVALID_INPUT);
}

/// A command line being parsed: the flag under the cursor and the
/// arguments after it.
#[derive(Debug)]
pub struct Args {
    rest: std::vec::IntoIter<String>,
    flag: String,
}

impl Args {
    /// The current flag's value; a missing one is invalid input.
    pub fn value(&mut self) -> String {
        self.rest
            .next()
            .unwrap_or_else(|| invalid(format_args!("flag {} needs a value", self.flag)))
    }

    /// The current flag's value as a number; a malformed one is
    /// invalid input.
    pub fn number<T: std::str::FromStr>(&mut self) -> T
    where
        T::Err: std::fmt::Display,
    {
        self.value()
            .parse()
            .unwrap_or_else(|error| invalid(format_args!("flag {}: {error}", self.flag)))
    }
}

/// The observer flags every tool accepts: `--metrics FILE`,
/// `--status-file FILE`, `--metrics-addr HOST:PORT`, `--trace FILE`,
/// `--progress`, `--perf` and `--quiet` (plus `--help`).
#[derive(Debug, Default)]
pub struct ObserverFlags {
    metrics: Option<String>,
    status_file: Option<String>,
    metrics_addr: Option<String>,
    trace: Option<String>,
    progress: bool,
    perf: bool,
    quiet: bool,
}

impl ObserverFlags {
    /// Parses `arguments`. Each flag goes to `tool` first, which takes
    /// its value from the [`Args`] and returns `true` when the flag is
    /// its own; the observer flags come next. `--help` prints `usage`
    /// and exits 0; any other flag is invalid input.
    pub fn parse(
        arguments: impl IntoIterator<Item = String>,
        usage: &str,
        mut tool: impl FnMut(&str, &mut Args) -> bool,
    ) -> ObserverFlags {
        let mut flags = ObserverFlags::default();
        let mut args = Args {
            rest: arguments.into_iter().collect::<Vec<_>>().into_iter(),
            flag: String::new(),
        };
        while let Some(flag) = args.rest.next() {
            args.flag.clone_from(&flag);
            if tool(&flag, &mut args) {
                continue;
            }
            match flag.as_str() {
                "--metrics" => flags.metrics = Some(args.value()),
                "--status-file" => flags.status_file = Some(args.value()),
                "--metrics-addr" => flags.metrics_addr = Some(args.value()),
                "--trace" => flags.trace = Some(args.value()),
                "--progress" => flags.progress = true,
                "--perf" => flags.perf = true,
                "--quiet" => flags.quiet = true,
                "--help" | "-h" => {
                    eprintln!("{usage}");
                    std::process::exit(exit_code::CLEAN);
                }
                other => invalid(format_args!("unknown flag `{other}`")),
            }
        }
        flags
    }
}

/// One tool run: the workload budget, the telemetry observer built
/// from the [`ObserverFlags`], and the tool's wall-clock stopwatch,
/// started when the run starts. Every `exp_*` binary and every `mmaes`
/// verb goes through it, from [`RunOptions::start`] to
/// [`RunOptions::finish_with`].
#[derive(Debug)]
pub struct RunOptions {
    /// Workload scaling for the experiment. An `mmaes` verb fills in
    /// only `threads` and `statistic`, which its summary reports.
    pub budget: ExperimentBudget,
    /// Telemetry observer (null unless an observer flag asked for one).
    pub observer: Observer,
    flags: ObserverFlags,
    stopwatch: Stopwatch,
    // Keeps the `--metrics-addr` HTTP server alive until the process
    // exits; dropping it joins the listener thread.
    _metrics_server: Option<MetricsServer>,
}

impl RunOptions {
    /// Parses `std::env::args()` into an experiment budget and the
    /// observer flags, and installs the cooperative SIGINT/SIGTERM
    /// handler. Malformed arguments print a usage message and exit
    /// with [`exit_code::INVALID_INPUT`].
    pub fn from_args() -> Self {
        let mut budget = ExperimentBudget::default();
        let flags = ObserverFlags::parse(std::env::args().skip(1), EXP_USAGE, |flag, args| {
            match flag {
                "--traces" => {
                    budget.first_order_traces = args.number();
                    budget.transition_traces = budget.first_order_traces;
                }
                "--traces2" => budget.second_order_traces = args.number(),
                "--dpa-traces" => budget.dpa_traces = args.number(),
                "--seed" => budget.seed = args.number(),
                "--checkpoints" => budget.checkpoints = args.number(),
                "--threads" => budget.threads = args.number(),
                "--statistic" => budget.statistic = parse_statistic(&args.value()),
                "--paper-scale" => budget = ExperimentBudget::paper_scale(),
                "--exact-full" => budget.exact_scope = None,
                "--snapshot" => budget.snapshot_dir = Some(args.value()),
                "--resume" => budget.resume = true,
                _ => return false,
            }
            true
        });
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
        RunOptions::start(flags, budget)
    }

    /// Starts a run: builds the observer stack the flags ask for and
    /// starts the tool's stopwatch.
    ///
    /// `--metrics` attaches a JSON-lines sink, `--progress` (unless
    /// `--quiet`) a throttled stderr progress sink, `--status-file` a
    /// [`StatusFileSink`], and `--metrics-addr` a [`MetricsSink`]
    /// feeding a [`MetricsRegistry`] served by a [`MetricsServer`];
    /// with none of them the observer is the zero-cost null observer.
    /// `--perf` or `--trace` attaches an enabled [`PerfRecorder`]. An
    /// unopenable metrics file or unbindable address is fatal
    /// ([`exit_code::INVALID_INPUT`]): the user explicitly asked for an
    /// output this process cannot provide.
    pub fn start(flags: ObserverFlags, budget: ExperimentBudget) -> Self {
        let threads = budget.threads.max(1) as u64;
        let mut sinks: Vec<Box<dyn Sink>> = Vec::new();
        if let Some(path) = &flags.metrics {
            match JsonlSink::create(path) {
                Ok(sink) => sinks.push(Box::new(sink)),
                Err(error) => {
                    eprintln!("cannot open metrics file {path}: {error}");
                    std::process::exit(exit_code::INVALID_INPUT);
                }
            }
        }
        if flags.progress && !flags.quiet {
            sinks.push(Box::new(HumanProgressSink::new()));
        }
        if let Some(path) = &flags.status_file {
            sinks.push(Box::new(StatusFileSink::create(path, threads)));
        }
        let mut server = None;
        if let Some(addr) = &flags.metrics_addr {
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
        if flags.perf || flags.trace.is_some() {
            observer = observer.with_perf(PerfRecorder::enabled());
        }
        RunOptions {
            budget,
            observer,
            flags,
            stopwatch: Stopwatch::start(),
            _metrics_server: server,
        }
    }

    /// Whether `--quiet` suppressed the prose report.
    pub fn quiet(&self) -> bool {
        self.flags.quiet
    }

    /// Whether a `--progress` sink prints events on stderr.
    pub fn progress(&self) -> bool {
        self.flags.progress && !self.flags.quiet
    }

    /// A [`RunSummary`] around `record` (a single-campaign verb hands in
    /// the campaign's final record), prefilled with everything the
    /// scaffold knows: thread count, statistic, artifact schema
    /// versions and the degraded registry. Callers add the schedule,
    /// model and extras and hand the result to [`finish_with`].
    ///
    /// [`finish_with`]: RunOptions::finish_with
    pub fn record_summary(&self, tool: &str, id: &str, record: RunRecord) -> RunSummary {
        RunSummary {
            tool: tool.to_owned(),
            id: id.to_owned(),
            statistic: self.budget.statistic.name().to_owned(),
            threads: self.budget.threads.max(1) as u64,
            schemas: schema_versions(),
            degraded: mmaes_telemetry::degraded::snapshot(),
            record,
            ..RunSummary::default()
        }
    }

    /// A [`RunSummary`] for a multi-campaign tool: `traces` in all,
    /// timed by the tool's own stopwatch, with the interrupt flag.
    /// Callers fill in the verdict (`record.passed`,
    /// `record.max_minus_log10_p`, …).
    pub fn base_summary(&self, tool: &str, id: &str, traces: u64) -> RunSummary {
        let record = RunRecord {
            traces,
            wall_ms: self.stopwatch.elapsed_ms(),
            interrupted: mmaes_sigint::interrupted(),
            ..RunRecord::default()
        };
        self.record_summary(tool, id, record)
    }

    /// Reports a finished run: emits the summary to the observer,
    /// prints the `--perf` breakdown, writes the `--trace` file and
    /// prints the one-line JSON summary as the *last* stdout line.
    /// Prose output must be printed before calling this.
    pub fn report(&self, summary: &RunSummary) {
        self.observer.emit(&Event::RunSummary(summary.clone()));
        let perf = self.observer.perf();
        if self.flags.perf {
            eprint!("{}", perf.render_table());
        }
        if let (Some(path), Some(snapshot)) = (&self.flags.trace, perf.snapshot()) {
            // One Chrome-trace scope per run, named after the verb.
            let scope = summary.tool.rsplit(' ').next().unwrap_or_default();
            if let Err(error) = std::fs::write(path, chrome_trace(scope, &snapshot)) {
                eprintln!("cannot write {path}: {error}");
                std::process::exit(1);
            }
            if !self.flags.quiet {
                println!("chrome trace written to {path} (open in chrome://tracing or Perfetto)");
            }
        }
        print_summary_last(&self.observer, &summary.to_json_line());
    }

    /// The shared tail of every tool: [`RunOptions::report`], then the
    /// canonical exit code — [`exit_code::INTERRUPTED`] when the run
    /// was signalled or capped (its statistics are partial, so neither
    /// verdict applies), [`exit_code::CLEAN`] when the summary passed,
    /// [`exit_code::FINDING`] otherwise.
    pub fn finish_with(self, summary: RunSummary) -> ! {
        self.report(&summary);
        if summary.record.interrupted {
            eprintln!(
                "interrupted — partial statistics; a run with --snapshot resumes with --resume"
            );
            std::process::exit(exit_code::INTERRUPTED);
        }
        if summary.record.passed {
            std::process::exit(exit_code::CLEAN);
        }
        std::process::exit(exit_code::FINDING);
    }

    /// Finishes a single-experiment binary: prints the prose report
    /// (unless `--quiet`) and finishes with a summary of the outcome.
    pub fn finish(self, outcome: &ExperimentOutcome) -> ! {
        let mut summary = self.base_summary("exp", outcome.id, outcome.traces);
        summary.schedule = outcome.schedule.clone();
        summary.record.max_minus_log10_p = outcome.max_minus_log10_p;
        summary.record.passed = outcome.matches_paper;
        summary.extra = vec![("title".to_owned(), outcome.title.to_owned())];
        if !self.quiet() {
            println!("{outcome}");
            println!();
            println!("--- full evaluator output ---");
            println!("{}", outcome.details);
        }
        if !summary.record.passed && !summary.record.interrupted {
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
        summary.record.max_minus_log10_p = outcomes
            .iter()
            .map(|outcome| outcome.max_minus_log10_p)
            .fold(0.0, f64::max);
        summary.record.passed = mismatches == 0;
        summary.extra = vec![
            ("experiments".to_owned(), outcomes.len().to_string()),
            ("mismatches".to_owned(), mismatches.to_string()),
        ];
        if !self.quiet() {
            println!("{}", mmaes_core::outcome_table(outcomes));
            for outcome in outcomes {
                println!("{outcome}\n");
            }
            if mismatches == 0 && !summary.record.interrupted {
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
}

/// `--help` text of the `exp_*` binaries.
const EXP_USAGE: &str = "flags: --traces N  --traces2 N  --dpa-traces N  --seed N  \
     --checkpoints N  --threads N  --statistic gtest|ttest  \
     --paper-scale  --exact-full  --snapshot DIR  --resume  \
     --metrics FILE  --status-file FILE  --metrics-addr HOST:PORT  \
     --trace FILE  --progress  --perf  --quiet\n\
     exit codes: 0 reproduced  1 mismatch  2 invalid input  \
     3 interrupted (resumable with --snapshot DIR --resume)";

/// Parses a `--statistic` value; an unknown name is invalid input.
pub fn parse_statistic(name: &str) -> mmaes_leakage::StatisticKind {
    mmaes_leakage::StatisticKind::parse(name)
        .unwrap_or_else(|| invalid(format_args!("unknown statistic `{name}` (gtest|ttest)")))
}

/// Unwraps a campaign result: a fault that survived containment
/// (exhausted worker retries, unwritable final snapshot, corrupt resume
/// file, invalid netlist) is an input/environment problem, reported on
/// stderr with [`exit_code::INVALID_INPUT`] — deliberately distinct
/// from exit 1, which is reserved for a *statistical* finding.
pub fn unwrap_campaign<T>(result: Result<T, mmaes_leakage::CampaignError>) -> T {
    match result {
        Ok(value) => value,
        Err(error) => {
            eprintln!("campaign failed: {error}");
            std::process::exit(exit_code::INVALID_INPUT);
        }
    }
}

/// Prints the machine-readable summary as the *final* stdout line.
///
/// Sinks are flushed first (a `--metrics` file pointed at a pipe must
/// not race the verdict), buffered stdout is flushed, and the summary is
/// written through a locked handle — so progress or prose output can
/// never interleave with, or follow, the summary line.
fn print_summary_last(observer: &Observer, summary_line: &str) {
    use std::io::Write as _;
    observer.flush();
    let stdout = std::io::stdout();
    let mut handle = stdout.lock();
    let _ = handle.flush();
    let _ = writeln!(handle, "{summary_line}");
    let _ = handle.flush();
}
