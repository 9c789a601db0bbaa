//! The traced run: per-layer numbers from the engine's perf phases, read
//! through `Observer::with_perf`, plus layers the benchmark times itself
//! by calling into them from outside.

use std::path::Path;
use std::time::Instant;

use mmaes_leakage::stats::GTestStatistic;
use mmaes_leakage::{snapshot, ProbeTable, Statistic};
use mmaes_netlist::{Netlist, WireId};
use mmaes_sim::{Simulator, LANES};
use mmaes_telemetry::{Observer, PerfRecorder, PerfSnapshot};

use crate::workload::{Design, RunOutput, Workload};
use crate::{floor, Args, Metric, Session, Tally, MIN_TIMED};

/// Repetitions of each bench-driven layer probe; the fastest counts.
const PROBE_REPS: usize = 3;
/// Bench-driven `step` calls behind `sim.cells_per_s`.
const STEP_CYCLES: u64 = 20_000;

/// Total seconds of one perf phase (0 when the run never entered it).
fn phase_s(snapshot: &PerfSnapshot, name: &str) -> f64 {
    snapshot
        .phase(name)
        .map_or(0.0, |phase| phase.total_ns as f64 / 1e9)
}

/// Seconds of the fastest of `PROBE_REPS` calls of `probe`.
fn fastest(mut probe: impl FnMut() -> f64) -> f64 {
    (0..PROBE_REPS)
        .map(|_| probe())
        .fold(f64::INFINITY, f64::min)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The per-lane buses a campaign un-slices every cycle: each secret
/// share bus, plus the S-box's non-zero mask bus.
fn lane_buses(design: &Design) -> Vec<Vec<WireId>> {
    let netlist: &Netlist = &design.netlist;
    let mut buses = Vec::new();
    for secret in netlist.secrets() {
        let triples = netlist.shares_of(secret);
        let shares = triples
            .iter()
            .map(|&(share, ..)| share)
            .max()
            .map_or(0, |max| max + 1);
        for share in 0..shares {
            let mut bus: Vec<(u8, WireId)> = triples
                .iter()
                .filter(|&&(owner, ..)| owner == share)
                .map(|&(_, bit, wire)| (bit, wire))
                .collect();
            bus.sort_unstable();
            buses.push(bus.into_iter().map(|(_, wire)| wire).collect());
        }
    }
    buses.extend(design.nonzero_bus.clone());
    buses
}

/// Drives the simulator from outside: loads every lane bus with
/// `set_bus_per_lane` for `bus_cycles` cycles, then makes
/// [`STEP_CYCLES`] `step` calls. Returns the seconds of the bus loads,
/// the seconds of the steps, and the cells stepped.
fn drive_simulator(design: &Design, bus_cycles: u64, seed: u64) -> (f64, f64, u64) {
    let buses = lane_buses(design);
    let mut state = seed;
    let pool: Vec<[u64; LANES]> = (0..LANES)
        .map(|_| std::array::from_fn(|_| splitmix64(&mut state)))
        .collect();
    let mut simulator = Simulator::new(&design.netlist);
    let bus_load_s = fastest(|| {
        let clock = Instant::now();
        for cycle in 0..bus_cycles as usize {
            for (index, bus) in buses.iter().enumerate() {
                simulator.set_bus_per_lane(bus, &pool[(cycle + index) % LANES]);
            }
        }
        clock.elapsed().as_secs_f64()
    });
    let before = simulator.counters();
    let step_s = fastest(|| {
        let clock = Instant::now();
        for _ in 0..STEP_CYCLES {
            simulator.step();
        }
        clock.elapsed().as_secs_f64()
    });
    let cells = simulator.counters().delta_since(before).cell_evals / PROBE_REPS as u64;
    std::hint::black_box(simulator.value(design.netlist.outputs()[0].1));
    (bus_load_s, step_s, cells)
}

/// `Statistic::evaluate` over every final table, as the final sweep
/// calls it.
fn sweep(tables: &[ProbeTable]) -> f64 {
    fastest(|| {
        let clock = Instant::now();
        for table in tables {
            std::hint::black_box(GTestStatistic.evaluate(&table.columns, table.overflow));
        }
        clock.elapsed().as_secs_f64()
    })
}

/// `snapshot::load` of the campaign's final snapshot and `snapshot::save`
/// of it to a sibling file: seconds of each, and the file's bytes.
fn snapshot_round_trip(path: &Path) -> Result<(f64, f64, u64), String> {
    let bytes = std::fs::metadata(path)
        .map_err(|error| format!("stat {}: {error}", path.display()))?
        .len();
    let mut loaded = None;
    let load_s = fastest(|| {
        let clock = Instant::now();
        loaded = Some(snapshot::load(path));
        clock.elapsed().as_secs_f64()
    });
    let loaded = loaded
        .expect("fastest runs the probe")
        .map_err(|error| format!("load {}: {error}", path.display()))?;
    let copy = path.with_extension("copy");
    let mut saved = Ok(());
    let save_s = fastest(|| {
        let clock = Instant::now();
        saved = saved.clone().and(snapshot::save(&loaded, &copy));
        clock.elapsed().as_secs_f64()
    });
    saved.map_err(|error| format!("save {}: {error}", copy.display()))?;
    Ok((load_s, save_s, bytes))
}

/// Removes the snapshot workload's files.
pub fn remove_snapshot_files(path: &Path) {
    for extension in ["snapshot", "tmp", "copy"] {
        let _ = std::fs::remove_file(path.with_extension(extension));
    }
}

/// The traced run: a warm-up verdict, then untraced and traced verdicts
/// alternately until `--seconds` have passed; then the layers the
/// benchmark drives itself. Reports the per-layer metrics, the engine's
/// phases taken from the fastest traced verdict.
pub fn traced(args: &Args, snapshot: Option<&Path>) -> Result<(Tally, Vec<Metric>), String> {
    let mut session = Session::new(args, snapshot);
    let workload: &Workload = session.workload();
    let null = Observer::null();
    session.verdict(&null);
    let mut plain = Vec::new();
    let mut traced: Vec<(f64, PerfSnapshot)> = Vec::new();
    let mut last = None;
    while (plain.len() < MIN_TIMED || traced.len() < MIN_TIMED || !session.expired())
        && !session.hopeless(plain.len().min(traced.len()))
    {
        if let Some((seconds, _)) = session.verdict(&null) {
            plain.push(seconds);
        }
        let perf = PerfRecorder::enabled();
        if let Some((seconds, output)) = session.verdict(&Observer::null().with_perf(perf.clone()))
        {
            traced.push((seconds, perf.snapshot().expect("the recorder is enabled")));
            last = Some(output);
        }
    }
    let setup = session.setup();
    let mut tally = std::mem::take(&mut session.tally);
    let (Some(output), Some(counts)) = (last, tally.reference.clone()) else {
        return Ok((tally, Vec::new()));
    };
    let design = &session.design;
    let (wall, phases) = traced
        .iter()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("a traced verdict succeeded");
    let wall = *wall;
    for (counter, expected) in [
        ("dense_tables", workload.expect.dense_tables),
        ("hashed_tables", workload.expect.hashed_tables),
    ] {
        let got = phases.counter(counter).unwrap_or(0);
        if got != expected {
            tally.attempted += 1;
            tally.fail(format!("{counter} {got} (expected {expected})"));
        }
    }

    let simulate = phase_s(phases, "simulate");
    let tabulate = phase_s(phases, "tabulate");
    let merge = phase_s(phases, "merge");
    let g_test = phase_s(phases, "g_test");
    let snapshot_s = phase_s(phases, "snapshot");
    let unroll = phase_s(phases, "unroll");
    let enumerate = phase_s(phases, "enumerate");
    // Interim snapshots are written inside the checkpoint's `g_test`
    // span; the final one is not. The final snapshot is the largest,
    // so its span is taken as the longest one.
    let nested_snapshot = phases
        .phase("snapshot")
        .map_or(0.0, |phase| (phase.total_ns - phase.max_ns) as f64 / 1e9);
    let covered =
        simulate + tabulate + merge + (g_test - nested_snapshot) + snapshot_s + unroll + enumerate;
    let uncovered = wall - covered;
    let hand_back = match &output {
        RunOutput::Campaign(_, tables) => fastest(|| {
            let clock = Instant::now();
            std::hint::black_box(tables.clone());
            clock.elapsed().as_secs_f64()
        }),
        RunOutput::Proof(_) => 0.0,
    };
    // Work the run call repeats outside every span, estimated from the
    // same calls timed from outside.
    let lower = if workload.is_campaign() {
        setup.lower
    } else {
        0.0
    };
    let named = [
        ("validation", setup.validate),
        ("probe enumeration", setup.enumerate),
        ("lowering", lower),
        ("table hand-back", hand_back),
    ];
    let other = uncovered - named.iter().map(|(_, seconds)| seconds).sum::<f64>();
    let breakdown: Vec<String> = named
        .iter()
        .chain(&[("other", other)])
        .map(|(name, seconds)| format!("{name} ~{seconds:.6} s"))
        .collect();
    println!(
        "uncovered {uncovered:.6} s of {wall:.6} s: {}",
        breakdown.join(", ")
    );

    // The proof drives whole words with `set_input`: its verdict
    // un-slices no bus.
    let bus_cycles = workload.traces().div_ceil(LANES as u64) * workload.cycles_per_batch();
    let (bus_load_s, step_s, cells) = drive_simulator(design, bus_cycles, args.seed);
    let (sweep_s, table_bytes) = match &output {
        RunOutput::Campaign(report, tables) => (sweep(tables), report.table_bytes),
        RunOutput::Proof(_) => (0.0, 0),
    };
    let (load_s, save_s, snapshot_bytes) = match snapshot {
        Some(path) => snapshot_round_trip(path)?,
        None => (0.0, 0.0, 0),
    };
    let campaign_keys = if workload.is_campaign() {
        counts.keys
    } else {
        0
    };
    let untraced = floor(&plain);
    eprintln!(
        "perfbench: {} seed {}: traced floor {wall:.4} s over {} runs, untraced floor {untraced:.4} s over {} runs",
        workload.name,
        args.seed,
        traced.len(),
        plain.len()
    );
    let metrics = vec![
        ("circuits.build_s", setup.build + setup.validate, "s"),
        ("sim.lower_s", setup.lower, "s"),
        ("probe.enumerate_s", setup.enumerate, "s"),
        ("probe.sets", setup.probe_sets as f64, "count"),
        ("sim.cell_evals", counts.cell_evals as f64, "count"),
        ("sim.cells_per_s", cells as f64 / step_s, "1/s"),
        ("sim.bus_load_s", bus_load_s, "s"),
        ("engine.simulate_s", simulate, "s"),
        ("engine.tabulate_s", tabulate, "s"),
        ("tabulate.keys", campaign_keys as f64, "count"),
        (
            "tabulate.keys_per_s",
            campaign_keys as f64 / tabulate,
            "1/s",
        ),
        ("tabulate.table_bytes", table_bytes as f64, "bytes"),
        (
            "tabulate.dense_tables",
            phases.counter("dense_tables").unwrap_or(0) as f64,
            "count",
        ),
        (
            "tabulate.hashed_tables",
            phases.counter("hashed_tables").unwrap_or(0) as f64,
            "count",
        ),
        ("engine.merge_s", merge, "s"),
        ("engine.g_test_s", g_test, "s"),
        ("stats.sweep_s", sweep_s, "s"),
        ("stats.columns", counts.columns as f64, "count"),
        ("engine.snapshot_s", snapshot_s, "s"),
        ("snapshot.save_s", save_s, "s"),
        ("snapshot.load_s", load_s, "s"),
        ("snapshot.bytes", snapshot_bytes as f64, "bytes"),
        ("exact.unroll_s", unroll, "s"),
        ("exact.enumerate_s", enumerate, "s"),
        (
            "exact.sets",
            if workload.is_campaign() {
                0.0
            } else {
                counts.probe_sets as f64
            },
            "count",
        ),
        (
            "exact.cell_evals",
            if workload.is_campaign() {
                0.0
            } else {
                counts.cell_evals as f64
            },
            "count",
        ),
        ("verdict.max_mlog10p", counts.max_mlog10p(), "mlog10p"),
        ("trace.coverage", covered / wall, "ratio"),
        ("trace.overhead", wall / untraced, "ratio"),
        ("trace.uncovered_s", uncovered, "s"),
    ];
    Ok((tally, metrics))
}
