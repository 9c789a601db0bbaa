//! Sign-off benchmark: host seconds from a campaign (or proof) call to
//! its verdict, on one thread, for four workloads that stress different
//! layers of the evaluator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sbox-eq6 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones (see `perfbench/README.md`).

#![forbid(unsafe_code)]

mod layers;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mmaes_sim::{Simulator, LANES};
use mmaes_telemetry::Observer;

use crate::workload::{Counts, Design, RunOutput, Workload};

/// Set-up is timed in groups of back-to-back repetitions, each group at
/// least this long, so one sample spans tens of milliseconds.
const SETUP_GROUP: Duration = Duration::from_millis(50);
/// Fewest set-up groups per run. One group also follows every verdict,
/// so the groups sample the whole run rather than one moment of it.
const MIN_SETUP_GROUPS: usize = 5;
/// Fewest timed verdicts per run (after the untimed warm-up), whatever
/// `--seconds` says.
const MIN_TIMED: usize = 3;
/// Where the snapshot workload writes, relative to the checkout root.
const SCRATCH_DIR: &str = "perfbench/.scratch";

pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::workload(&value).ok_or_else(|| {
                    format!("unknown workload `{value}` (known: {:?})", workload::NAMES)
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let parsed: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(parsed > 0.0 && parsed <= 600.0) {
                    return Err(format!("--seconds {value} is out of range (0, 600]"));
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The median (NaN for no values).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let middle = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[middle]
    } else {
        (sorted[middle - 1] + sorted[middle]) / 2.0
    }
}

pub fn floor(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The user's pre-run calls, each timed: design generation, validation,
/// evaluator lowering and probe-set enumeration. Returns the design, the
/// stage times `[build, validate, lower, enumerate]` in seconds, the
/// number of probing sets and how many of them get dense tables.
fn setup_once(workload: &Workload) -> (Design, [f64; 4], u64, u64) {
    let clock = Instant::now();
    let design = workload.build();
    let built = clock.elapsed();
    design
        .netlist
        .validate()
        .expect("generated designs pass validation");
    let validated = clock.elapsed();
    let simulator = Simulator::new(&design.netlist);
    std::hint::black_box(&simulator);
    let lowered = clock.elapsed();
    let sets = workload.enumerate(&design.netlist);
    let enumerated = clock.elapsed();
    let dense = workload.dense_tables(&sets);
    drop(simulator);
    let stages = [
        built.as_secs_f64(),
        (validated - built).as_secs_f64(),
        (lowered - validated).as_secs_f64(),
        (enumerated - lowered).as_secs_f64(),
    ];
    (design, stages, sets.len() as u64, dense)
}

/// Per-repetition set-up seconds (the fastest group) and what the
/// enumeration found.
pub struct Setup {
    pub total: f64,
    pub build: f64,
    pub validate: f64,
    pub lower: f64,
    pub enumerate: f64,
    pub probe_sets: u64,
}

/// Operations attempted and failed, and the first failure's reason.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Counts of the first good verdict; later ones must equal them.
    pub reference: Option<Counts>,
}

impl Tally {
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        eprintln!("perfbench: failed operation: {error}");
        self.first_error.get_or_insert(error);
    }
}

/// One run of one workload: the design the verdicts share, the set-up
/// samples and the failure tally.
pub struct Session<'a> {
    pub args: &'a Args,
    pub design: Design,
    snapshot: Option<&'a Path>,
    setup_reps: usize,
    /// Per group: `[total, build, validate, lower, enumerate]` seconds
    /// per repetition.
    setup_groups: Vec<[f64; 5]>,
    probe_sets: u64,
    pub tally: Tally,
    started: Instant,
}

impl<'a> Session<'a> {
    /// Builds the design once (untimed, also sizing the set-up groups)
    /// and checks what the enumeration found.
    pub fn new(args: &'a Args, snapshot: Option<&'a Path>) -> Self {
        let started = Instant::now();
        let workload = &args.workload;
        let (design, _, probe_sets, dense_tables) = setup_once(workload);
        let once = started.elapsed().as_secs_f64().max(1e-6);
        let setup_reps = ((SETUP_GROUP.as_secs_f64() / once).ceil() as usize).clamp(1, 100_000);
        let mut session = Session {
            args,
            design,
            snapshot,
            setup_reps,
            setup_groups: Vec::new(),
            probe_sets,
            tally: Tally::default(),
            started,
        };
        let expect = &workload.expect;
        if (probe_sets, dense_tables) != (expect.probe_sets, expect.dense_tables) {
            session.tally.attempted += 1;
            session.tally.fail(format!(
                "set-up enumerated {probe_sets} sets, {dense_tables} dense \
                 (expected {}, {})",
                expect.probe_sets, expect.dense_tables
            ));
        }
        session
    }

    pub fn workload(&self) -> &'a Workload {
        &self.args.workload
    }

    /// Whether `--seconds` have passed since the session started.
    pub fn expired(&self) -> bool {
        self.started.elapsed().as_secs_f64() >= self.args.seconds
    }

    /// Whether failures leave no hope of the minimum timed verdicts.
    pub fn hopeless(&self, timed: usize) -> bool {
        timed == 0 && self.tally.failed > MIN_TIMED as u64
    }

    /// One group of back-to-back set-up repetitions.
    fn setup_group(&mut self) {
        let workload = self.workload();
        let mut sums = [0.0f64; 4];
        let clock = Instant::now();
        for _ in 0..self.setup_reps {
            let (design, stages, ..) = setup_once(workload);
            drop(design);
            for (sum, stage) in sums.iter_mut().zip(stages) {
                *sum += stage;
            }
        }
        let n = self.setup_reps as f64;
        let total = clock.elapsed().as_secs_f64();
        self.setup_groups.push([
            total / n,
            sums[0] / n,
            sums[1] / n,
            sums[2] / n,
            sums[3] / n,
        ]);
    }

    /// The fastest set-up group, per stage (topped up to the minimum
    /// number of groups first). Like the verdicts, set-up is
    /// deterministic single-threaded work that interference can only
    /// slow down. In `study/`, the groups' median spread 37–43% across
    /// runs, their floor 4–18%.
    pub fn setup(&mut self) -> Setup {
        while self.setup_groups.len() < MIN_SETUP_GROUPS {
            self.setup_group();
        }
        let column = |index: usize| {
            floor(
                &self
                    .setup_groups
                    .iter()
                    .map(|row| row[index])
                    .collect::<Vec<_>>(),
            )
        };
        Setup {
            total: column(0),
            build: column(1),
            validate: column(2),
            lower: column(3),
            enumerate: column(4),
            probe_sets: self.probe_sets,
        }
    }

    /// Runs one verdict with `observer` and checks it: the expected
    /// verdict, the workload's seed-independent counts, and identical
    /// counts across the run's repetitions. A set-up group follows.
    /// Returns the host seconds of the call and its output, or `None`
    /// when the verdict failed: it is tallied and its time dropped.
    pub fn verdict(&mut self, observer: &Observer) -> Option<(f64, RunOutput)> {
        let workload = self.workload();
        self.tally.attempted += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let clock = Instant::now();
            let output = workload.run(&self.design, self.args.seed, self.snapshot, observer)?;
            Ok::<_, String>((clock.elapsed().as_secs_f64(), output))
        }));
        let checked = match outcome {
            Ok(Ok((seconds, output))) => {
                let counts = output.counts();
                output
                    .check_verdict(workload.expect.verdict)
                    .and_then(|()| workload.check_counts(&counts))
                    .and_then(|()| match &self.tally.reference {
                        Some(reference) if *reference != counts => Err(format!(
                            "counts differ between repetitions of one seed: \
                             {reference:?} vs {counts:?}"
                        )),
                        _ => Ok(()),
                    })
                    .map(|()| (seconds, output, counts))
            }
            Ok(Err(error)) => Err(error),
            Err(_) => Err("the verdict call panicked".to_owned()),
        };
        self.setup_group();
        match checked {
            Ok((seconds, output, counts)) => {
                self.tally.reference.get_or_insert(counts);
                Some((seconds, output))
            }
            Err(error) => {
                self.tally.fail(error);
                None
            }
        }
    }

    /// Traces (campaigns) or enumerated assignments (proof) per verdict.
    pub fn work(&self) -> f64 {
        let workload = self.workload();
        match &self.tally.reference {
            Some(_) if workload.is_campaign() => {
                (workload.traces().div_ceil(LANES as u64) * LANES as u64) as f64
            }
            Some(counts) => counts.keys as f64,
            None => 0.0,
        }
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|error| format!("read /proc/self/status: {error}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

fn print_result(tally: &Tally, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = tally.failed == 0 && tally.reference.is_some();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// The untraced run: one warm-up verdict, then timed verdicts until
/// `--seconds` have passed, each followed by a set-up group. Reports
/// the end-to-end metrics; `verdict_s` is the fastest timed verdict.
fn end_to_end(args: &Args, snapshot: Option<&Path>) -> Result<(Tally, Vec<Metric>), String> {
    let mut session = Session::new(args, snapshot);
    let observer = Observer::null();
    session.verdict(&observer);
    let mut times = Vec::new();
    while (times.len() < MIN_TIMED || !session.expired()) && !session.hopeless(times.len()) {
        if let Some((seconds, _)) = session.verdict(&observer) {
            times.push(seconds);
        }
    }
    let setup = session.setup();
    let verdict_s = floor(&times);
    eprintln!(
        "perfbench: {} seed {}: {} timed verdicts, floor {:.4} s, median {:.4} s; \
         setup floor {:.6} s, median {:.6} s over {} groups; max -log10(p) {}; \
         verdicts {:.4?}",
        args.workload.name,
        args.seed,
        times.len(),
        verdict_s,
        median(&times),
        setup.total,
        median(
            &session
                .setup_groups
                .iter()
                .map(|row| row[0])
                .collect::<Vec<_>>()
        ),
        session.setup_groups.len(),
        session
            .tally
            .reference
            .as_ref()
            .map_or(f64::NAN, Counts::max_mlog10p),
        times,
    );
    let metrics = vec![
        ("verdict_s", verdict_s, "s"),
        ("traces_per_s", session.work() / verdict_s, "1/s"),
        ("setup_s", setup.total, "s"),
        ("peak_rss_mb", peak_rss_mb()?, "MiB"),
    ];
    Ok((session.tally, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(SCRATCH_DIR);
    let snapshot = args.workload.snapshot_path(&scratch);
    if snapshot.is_some() {
        if let Err(error) = std::fs::create_dir_all(&scratch) {
            eprintln!("perfbench: create {}: {error}", scratch.display());
            return ExitCode::from(2);
        }
    }
    let result = if args.trace {
        layers::traced(&args, snapshot.as_deref())
    } else {
        end_to_end(&args, snapshot.as_deref())
    };
    if let Some(path) = &snapshot {
        layers::remove_snapshot_files(path);
    }
    match result {
        Ok((tally, metrics)) => {
            if let Some(error) = &tally.first_error {
                eprintln!(
                    "perfbench: {} of {} operations failed; first: {error}",
                    tally.failed, tally.attempted
                );
            }
            print_result(&tally, &metrics);
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::from(1)
        }
    }
}
