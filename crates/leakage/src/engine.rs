//! The campaign engine: one windowed driver behind every run.
//!
//! A campaign is a pipeline of stages —
//!
//! ```text
//! batch source → simulate → extract → absorb → checkpoint/health/snapshot
//! ```
//!
//! — run by one driver. The batch range is cut into *windows* that end
//! at each checkpoint multiple, at `stop_after_batches` and at the end.
//! Within a window, workers claim chunks of batches from a shared
//! counter, simulate each batch under supervision and absorb its
//! observations into their tables: narrow dense tables take bit-planes
//! (counted by minterm), wider dense tables packed `u32` indices,
//! hashed tables `u128` keys. Both stores absorb
//! commutatively (a hashed table keeps the cap smallest keys it has
//! seen, see [`crate::tabulate`]), so the order in which batches finish
//! cannot change a table. At one thread the worker runs on the calling
//! thread and absorbs straight into the campaign's tables; at more
//! threads each worker owns shard tables, merged at the end of the
//! window. Every window end funnels through [`Engine::after_batch`] —
//! the single checkpoint / health / snapshot / early-stop / interrupt
//! decision point — which then sees the same `batches_done` and the
//! same tables at every thread count. That is what makes reports,
//! trajectories and snapshots byte-identical across thread counts and
//! resume legs.
//!
//! Supervision (panic boundaries, bounded in-place retries, rebuilt
//! simulators, heartbeat watchdogs, degraded-sink snapshots) is
//! integrated here once; `campaign.rs` is left with configuration, the
//! builder API and report assembly.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use mmaes_netlist::{Netlist, SecretId, WireId};
use mmaes_sim::{SimStats, Simulator, LANES};
use mmaes_telemetry::{
    Checkpoint, Event, Observer, PerfRecorder, ProbeHealth, ProbePoint, RunRecord, Stopwatch,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::campaign::CampaignError;
use crate::config::{CampaignMode, EvaluationConfig, SecretDomain, DECISIVE_MARGIN};
use crate::health;
use crate::probe::{ProbeModel, ProbeSet};
use crate::snapshot::{self, TableView};
use crate::stats::{g_columns, pooling_summary, StatisticKind};
use crate::supervisor::{self, Heartbeats};
use crate::tabulate::{Table, TabulatorMode, MAX_MINTERM_WIDTH};

/// Probing sets carried per checkpoint event: the top sets by running
/// `-log10(p)` plus every set over the threshold.
pub(crate) const CHECKPOINT_TOP_PROBES: usize = 8;

/// Refill granularity of [`BufferedRng`], in `u64` words.
const RNG_BLOCK: usize = 256;

/// Watchdog granularity of the multi-threaded coordinator: how often it
/// wakes to scan worker heartbeats while a window runs.
const WATCHDOG_TICK_MS: u64 = 100;

/// Batches per claim at `threads > 1`: workers take multi-batch chunks
/// from the window's counter to amortize claim contention. Absorption
/// is commutative, so chunk size cannot perturb results — this is
/// purely a throughput knob. A lone worker claims one batch at a time,
/// so an interrupt stops it right after the batch in flight.
const CHUNK: u64 = 4;

/// Derives the RNG for one batch from the campaign seed and the batch
/// index (a splitmix64-style mix). Making every batch's randomness a
/// pure function of `(seed, batch)` is what lets an interrupted
/// campaign resume bit-identically: no draw-count bookkeeping can work,
/// because secret sampling uses rejection (variable draws per batch).
fn batch_rng(seed: u64, batch: u64) -> StdRng {
    let mut mixed = seed ^ batch.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    mixed = (mixed ^ (mixed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    mixed = (mixed ^ (mixed >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    StdRng::seed_from_u64(mixed ^ (mixed >> 31))
}

/// A block-buffered wrapper over the per-batch [`StdRng`]: refills 256
/// words in one tight pass and serves draws from the buffer, amortizing
/// the per-draw generator stepping across the batch's randomness
/// (shares, masks, controls). Emits the *identical* word stream — every
/// `gen`/`gen_range` draw in this crate consumes exactly one `next_u64`
/// — so the trace stream stays a pure function of `(seed, batch)`;
/// unused buffered words at batch end are simply discarded (each batch
/// derives a fresh RNG anyway).
struct BufferedRng {
    inner: StdRng,
    buffer: [u64; RNG_BLOCK],
    cursor: usize,
}

impl BufferedRng {
    fn new(inner: StdRng) -> Self {
        BufferedRng {
            inner,
            buffer: [0; RNG_BLOCK],
            cursor: RNG_BLOCK,
        }
    }
}

impl RngCore for BufferedRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.cursor == RNG_BLOCK {
            for word in &mut self.buffer {
                *word = self.inner.next_u64();
            }
            self.cursor = 0;
        }
        let word = self.buffer[self.cursor];
        self.cursor += 1;
        word
    }
}

/// Builds the contingency table for one probing set under the
/// configured [`TabulatorMode`]: a dense direct-indexed table when the
/// set's full key space fits the cap (it then cannot overflow), laid
/// out for the campaign's trace budget, and the hashed store, capped at
/// `max_table_keys`, otherwise.
pub(crate) fn make_table(set: &ProbeSet, config: &EvaluationConfig) -> Table {
    let cap = config.max_table_keys;
    match config.tabulator {
        TabulatorMode::Dense => set.dense_index_width(config.model, cap).map_or_else(
            || Table::hashed(cap),
            |width| Table::dense_for_traces(width, config.traces),
        ),
        TabulatorMode::Hashed => Table::hashed(cap),
    }
}

/// The coordinator-side campaign state. Its frontier only advances at
/// window ends — which is the whole determinism argument: any thread
/// count that advances the frontier through the same states yields the
/// same bytes. A side effect worth naming: `batches_done` is always a contiguous
/// frontier, so every snapshot records exactly the batches
/// `0..batches_done` — resumable on any thread count.
pub(crate) struct CampaignState {
    pub(crate) tables: Vec<Table>,
    pub(crate) trajectories: Vec<Vec<(u64, f64)>>,
    pub(crate) flagged: Vec<bool>,
    pub(crate) batches_done: u64,
    /// Work from absorbed batches only. Batches in a discarded window
    /// are excluded, keeping `cell_evals` independent of the thread
    /// count.
    pub(crate) folded: SimStats,
    pub(crate) early_stopped: bool,
    pub(crate) interrupted: bool,
    /// Checkpoint snapshot writes exhausted their retry budget: skip
    /// further interim saves (the final save is still attempted) and
    /// surface the outage via the degraded registry.
    pub(crate) snapshot_degraded: bool,
    pub(crate) last_stats: SimStats,
    pub(crate) last_elapsed_ms: u64,
}

impl CampaignState {
    pub(crate) fn new(probe_sets: &[ProbeSet], config: &EvaluationConfig) -> Self {
        let probe_set_count = probe_sets.len();
        CampaignState {
            tables: probe_sets
                .iter()
                .map(|set| make_table(set, config))
                .collect(),
            trajectories: vec![Vec::new(); probe_set_count],
            flagged: vec![false; probe_set_count],
            batches_done: 0,
            folded: SimStats::default(),
            early_stopped: false,
            interrupted: false,
            snapshot_degraded: false,
            last_stats: SimStats::default(),
            last_elapsed_ms: 0,
        }
    }

    /// Encodes the campaign state in the snapshot format straight from
    /// the live tables: the encoder walks each table's columns in place,
    /// so no column is copied.
    pub(crate) fn encode_snapshot(
        &self,
        context: &FoldContext<'_>,
        statistic: StatisticKind,
    ) -> Vec<u8> {
        let header = snapshot::Header {
            config_fingerprint: context.fingerprint,
            statistic,
            batches_done: self.batches_done,
            total_batches: context.batches,
            cell_evals: context.prior_cell_evals + self.folded.cell_evals,
        };
        let tables: Vec<TableView<'_>> = self
            .tables
            .iter()
            .zip(&self.flagged)
            .zip(&self.trajectories)
            .map(|((table, &flagged), trajectory)| TableView {
                samples: table.samples(),
                overflow: table.overflow(),
                flagged,
                counts: table.columns(),
                trajectory,
            })
            .collect();
        snapshot::encode(&header, &tables)
    }
}

/// Read-only context the driver needs besides the state.
pub(crate) struct FoldContext<'a> {
    pub(crate) probe_sets: &'a [ProbeSet],
    pub(crate) watch: &'a Stopwatch,
    pub(crate) perf: &'a PerfRecorder,
    pub(crate) fingerprint: u64,
    pub(crate) batches: u64,
    pub(crate) checkpoint_every: u64,
    pub(crate) prior_cell_evals: u64,
    /// Fresh randomness the input driver draws per trace, in bits —
    /// the health layer's randomness-consumption accounting.
    pub(crate) fresh_bits_per_trace: u64,
}

/// One batch's observations of one probing set, in the form its table
/// absorbs. The keys are boxed so the dense sets, nearly always the
/// majority, keep a compact scratch.
#[allow(clippy::large_enum_variant)]
enum Lanes {
    /// Bit-planes for a dense table at most [`MAX_MINTERM_WIDTH`] bits
    /// wide ([`ProbeSet::observation_planes`]), counted by minterm.
    Planes(Vec<u64>),
    /// Packed indices for a wider dense table
    /// ([`ProbeSet::observation_indices`]).
    Indices([u32; LANES]),
    /// Observation keys for a hashed table ([`ProbeSet::observation_keys`]).
    Keys(Box<[u128; LANES]>),
}

impl Lanes {
    /// Extraction scratch matching each table's store and width.
    fn for_tables(tables: &[Table], probe_sets: &[ProbeSet], model: ProbeModel) -> Vec<Lanes> {
        tables
            .iter()
            .zip(probe_sets)
            .map(|(table, set)| {
                let width = set.observation_bits(model);
                if !table.is_dense() {
                    Lanes::Keys(Box::new([0; LANES]))
                } else if width <= MAX_MINTERM_WIDTH {
                    Lanes::Planes(vec![0; width])
                } else {
                    Lanes::Indices([0; LANES])
                }
            })
            .collect()
    }
}

/// One worker's private state, hoisted across windows: its simulator
/// (lowering is one-time work), its extraction scratch and — at
/// `threads > 1` — its shard tables (drained by each window's merge)
/// and perf recorder (absorbed once at exit).
struct Worker<'a> {
    sim: Simulator<'a>,
    lanes: Vec<Lanes>,
    shard: Vec<Table>,
    perf: PerfRecorder,
}

/// The part of the batch range one window covers, and the counter its
/// workers claim chunks from.
struct Window {
    next: AtomicU64,
    end: u64,
    /// Batches per claim.
    chunk: u64,
    /// Set when a worker's batch turns fatal: the others stop claiming.
    stop: AtomicBool,
}

/// The campaign driver: everything needed to simulate, extract and
/// absorb batches, shared read-only across worker threads. Splitting
/// this out of the builder is what lets `std::thread::scope` workers
/// borrow the input-driving tables while the coordinator keeps `&mut`
/// access to the campaign state.
pub(crate) struct Engine<'a> {
    pub(crate) netlist: &'a Netlist,
    pub(crate) config: &'a EvaluationConfig,
    pub(crate) probe_sets: &'a [ProbeSet],
    /// Per secret: `shares[share][bit]` wires (dense).
    pub(crate) secrets: &'a [(SecretId, Vec<Vec<WireId>>)],
    pub(crate) free_masks: &'a [WireId],
    pub(crate) controls: &'a [WireId],
    pub(crate) nonzero_byte_buses: &'a [Vec<WireId>],
    pub(crate) control_schedules: &'a [(WireId, Vec<bool>)],
    pub(crate) observer: &'a Observer,
}

impl<'a> Engine<'a> {
    /// The run record at `traces`: the campaign's identity and budget,
    /// the wall time on its one stopwatch, and the state's flags, cell
    /// evaluations, table bytes and perf snapshot. Callers fill in the
    /// statistic's figures; only observed or recorded runs build one.
    pub(crate) fn record(
        &self,
        context: &FoldContext<'_>,
        state: &CampaignState,
        traces: u64,
    ) -> RunRecord {
        RunRecord {
            design: self.netlist.name().to_owned(),
            model: self.config.model.name().to_owned(),
            order: self.config.order,
            probe_sets: self.probe_sets.len(),
            traces,
            traces_target: context.batches * LANES as u64,
            wall_ms: context.watch.elapsed_ms(),
            early_stopped: state.early_stopped,
            interrupted: state.interrupted,
            cell_evals: context.prior_cell_evals + state.folded.cell_evals,
            table_bytes: state.tables.iter().map(Table::resident_bytes).sum(),
            perf: context.perf.snapshot(),
            ..RunRecord::default()
        }
    }

    /// Runs the sampling pipeline from `state.batches_done` to
    /// `context.batches` (or an early stop / interrupt / fatal fault),
    /// one window at a time.
    ///
    /// At one thread the worker routine runs on the calling thread and
    /// writes straight into `state.tables` — no spawned thread and no
    /// shard copy, so peak memory is one set of tables. At `threads >
    /// 1` each worker absorbs into its own shard tables, merged into
    /// the campaign's at the end of the window; the coordinator doubles
    /// as the heartbeat watchdog, flagging overdue shards into the
    /// degraded registry (advisory — wall-clock diagnostics never
    /// reach the report). Per-worker perf recorders are absorbed into
    /// the campaign recorder at exit (per-phase totals then sum CPU
    /// time across workers, which can exceed wall time).
    ///
    /// A batch that exhausts the supervisor's retry budget is fatal.
    /// At one thread the batches before it are already absorbed in
    /// order, so the frontier moves up to it; at more threads the
    /// window's shards are **discarded unmerged** (their union is not a
    /// contiguous batch range) and the state stays at the last window
    /// boundary. Either way the emergency snapshot records a contiguous
    /// prefix.
    pub(crate) fn run(
        &self,
        context: &FoldContext<'_>,
        state: &mut CampaignState,
    ) -> Result<(), CampaignError> {
        if state.batches_done >= context.batches {
            return Ok(());
        }
        let threads = self.config.threads.max(1);
        let heartbeats = Heartbeats::new(threads);
        let mut flagged_stall = vec![false; threads];
        let mut workers: Vec<Worker> = (0..threads)
            .map(|_| Worker {
                sim: Simulator::new(self.netlist),
                lanes: Lanes::for_tables(&state.tables, self.probe_sets, self.config.model),
                shard: if threads > 1 {
                    state.tables.iter().map(Table::empty_like).collect()
                } else {
                    Vec::new()
                },
                perf: if threads > 1 && context.perf.is_enabled() {
                    PerfRecorder::enabled()
                } else {
                    PerfRecorder::disabled()
                },
            })
            .collect();
        let mut result = Ok(());
        while state.batches_done < context.batches {
            let window = Window {
                next: AtomicU64::new(state.batches_done),
                end: self.window_end(context, state.batches_done),
                chunk: if threads == 1 { 1 } else { CHUNK },
                stop: AtomicBool::new(false),
            };
            let (stats, fault) = if let [Worker { sim, lanes, .. }] = workers.as_mut_slice() {
                self.work(
                    sim,
                    lanes,
                    &mut state.tables,
                    &window,
                    context.perf,
                    &heartbeats,
                    0,
                )
            } else {
                self.run_workers(&window, &mut workers, &heartbeats, &mut flagged_stall)
            };
            if let Some(error) = fault {
                if let (1, CampaignError::Worker { batch, .. }) = (threads, &error) {
                    // One worker absorbed in batch order up to the
                    // fatal batch. More workers' shards are discarded
                    // unmerged: their union is not a contiguous range.
                    add_stats(&mut state.folded, stats);
                    state.batches_done = *batch;
                }
                result = Err(error);
                break;
            }
            let reached = window.next.load(Ordering::Relaxed).min(window.end);
            if threads > 1 {
                let _span = context.perf.span("merge");
                for worker in &mut workers {
                    for (table, local) in state.tables.iter_mut().zip(&mut worker.shard) {
                        table.merge_from(local);
                    }
                }
            }
            add_stats(&mut state.folded, stats);
            state.batches_done = reached;
            if self.after_batch(context, state) || reached < window.end {
                break;
            }
        }
        for worker in &workers {
            context.perf.absorb(&worker.perf);
        }
        result
    }

    /// Where the window starting at `start` ends: the next decision
    /// point — checkpoint multiple, deterministic batch cap, or the
    /// end. (`cap.max(start + 1)` always runs one batch when resumed at
    /// or past the cap: the cap is only noticed after a batch.)
    fn window_end(&self, context: &FoldContext<'_>, start: u64) -> u64 {
        let mut end = match start.checked_div(context.checkpoint_every) {
            Some(windows_done) => {
                ((windows_done + 1) * context.checkpoint_every).min(context.batches)
            }
            None => context.batches,
        };
        if let Some(cap) = self.config.durability.stop_after_batches {
            end = end.min(cap.max(start + 1));
        }
        end
    }

    /// Runs one window on one scoped thread per worker, each absorbing
    /// into its own shard, while this thread wakes every
    /// [`WATCHDOG_TICK_MS`] to flag overdue shards (once per worker)
    /// until they finish. Returns the window's summed simulator work
    /// and the first fatal fault.
    fn run_workers(
        &self,
        window: &Window,
        workers: &mut [Worker<'a>],
        heartbeats: &Heartbeats,
        flagged_stall: &mut [bool],
    ) -> (SimStats, Option<CampaignError>) {
        let threads = workers.len();
        let stall_timeout_ms = supervisor::stall_timeout_ms();
        let fatal: Mutex<Option<CampaignError>> = Mutex::new(None);
        let mut stats = SimStats::default();
        // Each worker reports its window's work exactly once at exit;
        // the channel doubles as the coordinator's completion wake-up
        // between watchdog ticks.
        let (sender, receiver) = mpsc::channel::<SimStats>();
        std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .iter_mut()
                .enumerate()
                .map(|(index, worker)| {
                    let sender = sender.clone();
                    let fatal = &fatal;
                    scope.spawn(move || {
                        let Worker {
                            sim,
                            lanes,
                            shard,
                            perf,
                        } = worker;
                        let (local, fault) =
                            self.work(sim, lanes, shard, window, perf, heartbeats, index);
                        if let Some(error) = fault {
                            fatal
                                .lock()
                                .unwrap_or_else(|poison| poison.into_inner())
                                .get_or_insert(error);
                        }
                        let _ = sender.send(local);
                    })
                })
                .collect();
            drop(sender);
            let mut done = 0;
            while done < threads {
                match receiver.recv_timeout(Duration::from_millis(WATCHDOG_TICK_MS)) {
                    Ok(local) => {
                        add_stats(&mut stats, local);
                        done += 1;
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        for (worker, fault) in heartbeats.stalled(stall_timeout_ms) {
                            if !std::mem::replace(&mut flagged_stall[worker], true) {
                                mmaes_telemetry::degraded::mark(
                                    "worker",
                                    &format!("worker {worker}: {fault}"),
                                );
                            }
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            for handle in handles {
                if let Err(payload) = handle.join() {
                    // Unreachable: batch attempts run inside the
                    // supervisor's panic boundary.
                    std::panic::resume_unwind(payload);
                }
            }
        });
        let fault = fatal
            .into_inner()
            .unwrap_or_else(|poison| poison.into_inner());
        (stats, fault)
    }

    /// The one worker routine: claims chunks of the window, simulates
    /// and extracts each batch under supervision, then commits it into
    /// `tables`. A claimed chunk always completes
    /// (or turns fatal), so the absorbed batches are exactly the
    /// contiguous range below the claim counter. Stops claiming once
    /// the window is exhausted, another worker's batch turned fatal, or
    /// the interrupt flag is raised. Returns the simulator work it
    /// absorbed and its fatal fault, if any.
    #[allow(clippy::too_many_arguments)]
    fn work(
        &self,
        sim: &mut Simulator<'a>,
        lanes: &mut [Lanes],
        tables: &mut [Table],
        window: &Window,
        perf: &PerfRecorder,
        heartbeats: &Heartbeats,
        worker: usize,
    ) -> (SimStats, Option<CampaignError>) {
        let interrupt = &self.config.durability.interrupt;
        let mut absorbed = SimStats::default();
        while !window.stop.load(Ordering::Acquire) {
            let chunk = window.next.fetch_add(window.chunk, Ordering::Relaxed);
            if chunk >= window.end {
                break;
            }
            for batch in chunk..(chunk + window.chunk).min(window.end) {
                heartbeats.start(worker, batch);
                let attempt = self.run_batch_supervised(sim, batch, perf, lanes);
                heartbeats.idle(worker);
                let (lane_groups, stats) = match attempt {
                    Ok(outcome) => outcome,
                    Err(error) => {
                        window.stop.store(true, Ordering::Release);
                        return (absorbed, Some(error));
                    }
                };
                let _span = perf.span("tabulate");
                for (lanes, table) in lanes.iter().zip(tables.iter_mut()) {
                    match lanes {
                        Lanes::Planes(planes) => table.absorb_planes(planes, lane_groups),
                        Lanes::Indices(indices) => table.absorb_indices(indices, lane_groups),
                        Lanes::Keys(keys) => table.absorb_keys(keys, lane_groups),
                    }
                }
                add_stats(&mut absorbed, stats);
            }
            if interrupt
                .as_ref()
                .is_some_and(|flag| flag.load(Ordering::Relaxed))
            {
                // Stop claiming; completed chunks stand, and the window
                // end folds the contiguous claimed range.
                break;
            }
        }
        (absorbed, None)
    }

    /// Runs one batch under supervision, retrying in place: a faulted
    /// attempt (contained panic — injected or real) rebuilds the
    /// simulator and retries after bounded backoff, up to
    /// [`supervisor::MAX_ATTEMPTS`] total attempts. Every attempt
    /// rewrites `lanes` whole and commits nothing, and the outcome is a
    /// pure function of `(seed, batch)`, so a successful retry is
    /// indistinguishable from a fault-free first attempt.
    fn run_batch_supervised(
        &self,
        sim: &mut Simulator<'a>,
        batch: u64,
        perf: &PerfRecorder,
        lanes: &mut [Lanes],
    ) -> Result<(u64, SimStats), CampaignError> {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match supervisor::supervised(batch, || self.run_batch(sim, batch, perf, &mut *lanes)) {
                Ok(outcome) => return Ok(outcome),
                Err(fault) => {
                    if attempts >= supervisor::MAX_ATTEMPTS {
                        return Err(CampaignError::Worker {
                            batch,
                            attempts,
                            message: fault.to_string(),
                        });
                    }
                    // The panicked attempt may have torn the simulator
                    // mid-step; rebuild it rather than trust its state.
                    *sim = Simulator::new(self.netlist);
                    std::thread::sleep(Duration::from_millis(supervisor::backoff_ms(attempts)));
                }
            }
        }
    }

    /// Simulates one batch on `sim` and extracts every probing set's
    /// per-lane observations into `lanes`. Returns the batch's lane
    /// populations (bit set = random population) and the simulator
    /// work it cost. A pure function of `(seed, batch)` — which
    /// simulator runs it, on which thread, in which order, cannot
    /// change the outcome.
    fn run_batch(
        &self,
        sim: &mut Simulator,
        batch: u64,
        perf: &PerfRecorder,
        lanes: &mut [Lanes],
    ) -> (u64, SimStats) {
        let config = self.config;
        // Each batch derives its own RNG from (seed, batch), so the
        // trace stream is position-addressable: resume is exact and
        // sharding across threads cannot perturb it. Block-buffering
        // amortizes generator stepping without changing the stream.
        let mut rng = BufferedRng::new(batch_rng(config.seed, batch));
        let lane_groups: u64 = rng.gen();
        let before = sim.counters();
        sim.reset();
        {
            let _span = perf.span("simulate");
            for cycle in 0..=config.warmup_cycles {
                self.drive_cycle(sim, cycle, lane_groups, &mut rng);
                if cycle < config.warmup_cycles {
                    sim.step();
                } else {
                    sim.eval();
                }
            }
        }
        let _span = perf.span("tabulate");
        for (set, lanes) in self.probe_sets.iter().zip(lanes.iter_mut()) {
            match lanes {
                Lanes::Planes(planes) => set.observation_planes(sim, config.model, planes),
                Lanes::Indices(indices) => set.observation_indices(sim, config.model, indices),
                Lanes::Keys(keys) => **keys = set.observation_keys(sim, config.model),
            }
        }
        (lane_groups, sim.counters().delta_since(before))
    }

    /// Drives every primary input for one cycle: shares re-randomized
    /// around the per-lane (fixed or random) secret, masks uniform,
    /// controls per their schedules.
    fn drive_cycle(
        &self,
        sim: &mut Simulator,
        cycle: usize,
        lane_groups: u64,
        rng: &mut BufferedRng,
    ) {
        let config = self.config;
        let fixed = config.fixed_secret;
        for (_, shares) in self.secrets {
            let bit_count = shares[0].len();
            let value_mask = if bit_count >= 64 {
                u64::MAX
            } else {
                (1u64 << bit_count) - 1
            };
            let mut per_lane_value = [0u64; LANES];
            for (lane, value) in per_lane_value.iter_mut().enumerate() {
                *value = if (lane_groups >> lane) & 1 == 1 {
                    match config.mode {
                        CampaignMode::FixedVsFixed { other } => other & value_mask,
                        CampaignMode::FixedVsRandom => match config.secret_domain {
                            SecretDomain::Uniform => rng.gen::<u64>() & value_mask,
                            SecretDomain::NonZero => loop {
                                let candidate = rng.gen::<u64>() & value_mask;
                                if candidate != 0 {
                                    break candidate;
                                }
                            },
                        },
                    }
                } else {
                    fixed & value_mask
                };
            }
            // Shares 1..d random; share 0 completes the XOR.
            let mut remaining = per_lane_value;
            for share_bus in shares.iter().skip(1) {
                let mut random_share = [0u64; LANES];
                for (lane, value) in random_share.iter_mut().enumerate() {
                    *value = rng.gen::<u64>() & value_mask;
                    remaining[lane] ^= *value;
                }
                sim.set_bus_per_lane(share_bus, &random_share);
            }
            sim.set_bus_per_lane(&shares[0], &remaining);
        }
        for &mask in self.free_masks {
            sim.set_input(mask, rng.gen());
        }
        for bus in self.nonzero_byte_buses {
            let mut per_lane = [0u64; LANES];
            for value in &mut per_lane {
                *value = rng.gen_range(1..=255u64);
            }
            sim.set_bus_per_lane(bus, &per_lane);
        }
        for &control in self.controls {
            sim.set_input(control, 0);
        }
        for (wire, pattern) in self.control_schedules {
            let value = pattern[cycle.min(pattern.len() - 1)];
            sim.set_input(*wire, if value { u64::MAX } else { 0 });
        }
    }

    /// Everything a window end triggers besides absorption: the interim
    /// checkpoint (running statistic sweep, events, snapshot,
    /// early-stop decision) and the cooperative-interrupt check, purely
    /// as a function of `state.batches_done` and the tables — which is
    /// what keeps checkpoints, trajectories, early stops and interrupt
    /// frontiers byte-identical across thread counts. Returns `true`
    /// when the campaign should stop before `context.batches`.
    fn after_batch(&self, context: &FoldContext<'_>, state: &mut CampaignState) -> bool {
        let config = self.config;
        let perf = context.perf;

        // Interim checkpoint: running statistic per probing set,
        // events, and the early-stop decision. Skipped on the last
        // batch (the final statistics cover it).
        if context.checkpoint_every > 0
            && state.batches_done.is_multiple_of(context.checkpoint_every)
            && state.batches_done < context.batches
        {
            let _span = perf.span("g_test");
            let statistic = config.statistic.as_statistic();
            let traces_so_far = state.batches_done * LANES as u64;
            let health_enabled = self.observer.enabled();
            let mut probe_healths: Vec<ProbeHealth> = Vec::new();
            let mut running: Vec<(usize, f64)> = Vec::with_capacity(context.probe_sets.len());
            for (index, table) in state.tables.iter().enumerate() {
                let minus_log10_p = statistic
                    .evaluate_columns(table.columns(), table.overflow())
                    .map(|test| test.minus_log10_p)
                    .unwrap_or(0.0);
                state.trajectories[index].push((traces_so_far, minus_log10_p));
                running.push((index, minus_log10_p));
                if health_enabled {
                    probe_healths.push(health::probe_health(
                        &context.probe_sets[index].label,
                        &pooling_summary(g_columns(table.columns(), table.overflow())),
                        minus_log10_p,
                        &state.trajectories[index],
                        traces_so_far,
                        config.threshold,
                    ));
                }
                if minus_log10_p > config.threshold && !state.flagged[index] {
                    state.flagged[index] = true;
                    if health_enabled {
                        self.observer.emit(&Event::ProbeFlagged {
                            label: context.probe_sets[index].label.clone(),
                            minus_log10_p,
                            traces: traces_so_far,
                        });
                    }
                }
            }
            running.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            let (worst_index, max_minus_log10_p) = running.first().copied().unwrap_or((0, 0.0));
            if health_enabled {
                let probes: Vec<ProbePoint> = running
                    .iter()
                    .enumerate()
                    .take_while(|&(rank, &(_, value))| {
                        rank < CHECKPOINT_TOP_PROBES || value > config.threshold
                    })
                    .map(|(_, &(index, value))| ProbePoint {
                        label: context.probe_sets[index].label.clone(),
                        minus_log10_p: value,
                        leaking: value > config.threshold,
                    })
                    .collect();
                let leaking = running
                    .iter()
                    .filter(|&&(_, value)| value > config.threshold)
                    .count();
                let record = RunRecord {
                    max_minus_log10_p,
                    worst_label: context
                        .probe_sets
                        .get(worst_index)
                        .map(|set| set.label.clone())
                        .unwrap_or_default(),
                    leaking,
                    ..self.record(context, state, traces_so_far)
                };
                let elapsed_ms = record.wall_ms;
                self.observer
                    .emit(&Event::CampaignCheckpoint(Checkpoint { record, probes }));
                let stats = state.folded;
                let interval = stats
                    .delta_since(state.last_stats)
                    .rates(elapsed_ms.saturating_sub(state.last_elapsed_ms) as f64 / 1000.0);
                state.last_stats = stats;
                state.last_elapsed_ms = elapsed_ms;
                self.observer.emit(&Event::SimProgress {
                    cycles: stats.cycles,
                    cell_evals: stats.cell_evals,
                    cycles_per_sec: interval.cycles_per_sec,
                    cell_evals_per_sec: interval.cell_evals_per_sec,
                    lane_utilization: config.traces.min(traces_so_far) as f64
                        / traces_so_far as f64,
                });
                self.observer.emit(&Event::Health(health::assess(
                    probe_healths,
                    traces_so_far,
                    context.batches * LANES as u64,
                    config.threshold,
                    context.fresh_bits_per_trace,
                    config.statistic,
                    CHECKPOINT_TOP_PROBES,
                )));
            }
            if let Some(path) = &config.durability.snapshot_path {
                if !state.snapshot_degraded {
                    let _span = perf.span("snapshot");
                    let bytes = state.encode_snapshot(context, config.statistic);
                    if let Err(error) = snapshot::save_bytes_with_retry(&bytes, path) {
                        // Interim saves are an amenity; losing them must
                        // not kill a healthy campaign. Degrade: skip
                        // further interim saves (the final save is still
                        // attempted) and surface the outage.
                        state.snapshot_degraded = true;
                        mmaes_telemetry::degraded::mark(
                            "snapshot",
                            &format!("checkpoint at batch {}: {error}", state.batches_done),
                        );
                    }
                }
            }
            if config.early_stop && max_minus_log10_p >= DECISIVE_MARGIN * config.threshold {
                state.early_stopped = true;
                return true;
            }
        }

        // Cooperative interruption: a signal flag (set from a
        // SIGINT/SIGTERM handler) or a deterministic batch cap. The
        // folded prefix is contiguous, so the state is consistent; the
        // final snapshot persists it.
        let signalled = config
            .durability
            .interrupt
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed));
        let capped = config
            .durability
            .stop_after_batches
            .is_some_and(|cap| state.batches_done >= cap);
        if (signalled || capped) && state.batches_done < context.batches {
            state.interrupted = true;
            return true;
        }
        false
    }
}

fn add_stats(into: &mut SimStats, from: SimStats) {
    into.cycles += from.cycles;
    into.cell_evals += from.cell_evals;
}
