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
//! (counted by minterm), wider dense tables packed `u32` indices, the
//! remaining sets `u128` keys. Both layouts absorb commutatively (a
//! capped sorted table keeps the cap smallest keys it has seen, see
//! [`crate::tabulate`]), so the order in which batches finish cannot
//! change a table. At one thread the worker runs on the calling thread
//! and absorbs straight into the campaign's tables; at more threads
//! each worker owns shard tables, merged at the end of the window.
//! Either way the worker settles the tables it wrote before the window
//! ends, so every reader after it walks settled tables. Every window
//! end funnels through [`Engine::after_batch`], the single checkpoint /
//! health / snapshot / early-stop / interrupt decision point, which
//! sees the same `batches_done` and the same tables at every thread
//! count: reports, trajectories and snapshots are byte-identical across
//! thread counts and resume legs. Tables become verdicts in one place,
//! [`Engine::sweep`], for every checkpoint and for the final report,
//! and state reaches disk through one [`Engine::save_snapshot`].
//!
//! Supervision (panic boundaries, bounded in-place retries, rebuilt
//! simulators, heartbeat watchdogs, degraded-sink snapshots) is
//! integrated here once; `campaign.rs` is left with configuration, the
//! builder API, resume, the final save's failure policy and the report.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use mmaes_netlist::{Netlist, SecretId, WireId};
use mmaes_sim::{SimStats, Simulator, LANES};
use mmaes_telemetry::{
    Checkpoint, Event, HealthCheckpoint, Observer, PerfRecorder, ProbeHealth, ProbePoint,
    RunRecord, Stopwatch,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::campaign::CampaignError;
use crate::config::{CampaignMode, EvaluationConfig, SecretDomain, DECISIVE_MARGIN};
use crate::health;
use crate::probe::{ProbeModel, ProbeSet};
use crate::snapshot::{self, SnapshotError, TableView};
use crate::stats::{self, g_columns, PoolingSummary, StatisticKind, TestOutcome};
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
/// configured [`TabulatorMode`]: a dense table when the set's full key
/// space fits the cap (it then cannot overflow), laid out for the
/// campaign's trace budget, and a sorted table capped at
/// `max_table_keys` otherwise.
pub(crate) fn make_table(set: &ProbeSet, config: &EvaluationConfig) -> Table {
    let cap = config.max_table_keys;
    let sorted = || Table::sorted(set.observation_bits(config.model), cap);
    match config.tabulator {
        TabulatorMode::Dense => set
            .dense_index_width(config.model, cap)
            .map_or_else(sorted, |width| {
                Table::dense_for_traces(width, config.traces)
            }),
        TabulatorMode::Hashed => sorted(),
    }
}

/// The coordinator-side campaign state. Its frontier only advances at
/// window ends — which is the whole determinism argument: any thread
/// count that advances the frontier through the same states yields the
/// same bytes. A side effect worth naming: `batches_done` is always a contiguous
/// frontier, so every snapshot records exactly the batches
/// `0..batches_done` — resumable on any thread count.
#[derive(Default)]
pub(crate) struct CampaignState {
    pub(crate) tables: Vec<Table>,
    pub(crate) trajectories: Vec<Vec<(u64, f64)>>,
    pub(crate) flagged: Vec<bool>,
    pub(crate) batches_done: u64,
    /// Batches restored from a snapshot: counted in `batches_done`, but
    /// not run under this leg's stopwatch.
    pub(crate) prior_batches: u64,
    /// Cell evaluations folded in by previous (interrupted) legs.
    pub(crate) prior_cell_evals: u64,
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
        CampaignState {
            tables: probe_sets
                .iter()
                .map(|set| make_table(set, config))
                .collect(),
            trajectories: vec![Vec::new(); probe_sets.len()],
            flagged: vec![false; probe_sets.len()],
            ..CampaignState::default()
        }
    }

    /// Cell evaluations across every leg of the campaign.
    pub(crate) fn cell_evals(&self) -> u64 {
        self.prior_cell_evals + self.folded.cell_evals
    }
}

/// One statistic sweep over every table: the only place where tables
/// become verdicts, for the interim checkpoints and the final report
/// alike.
#[derive(Default)]
pub(crate) struct Sweep {
    /// The traces the tables hold.
    pub(crate) traces: u64,
    /// Per probing set, in enumeration order: the statistic's outcome,
    /// `None` when the table is untestable.
    pub(crate) outcomes: Vec<Option<TestOutcome>>,
    /// Per set, its pooling summary.
    pub(crate) summaries: Vec<PoolingSummary>,
    /// `(set, -log10(p))` by decreasing `-log10(p)`, 0 for an
    /// untestable table; ties keep enumeration order.
    pub(crate) ranked: Vec<(usize, f64)>,
    /// The length of the ranked cut, `ranked[..shown]`, the sets a
    /// checkpoint and its health show: the first
    /// [`CHECKPOINT_TOP_PROBES`] plus every set over the threshold.
    pub(crate) shown: usize,
    /// Per set of the cut, in rank order, its health diagnosis; empty
    /// unless an observer listens.
    healths: Vec<ProbeHealth>,
    /// The largest `-log10(p)`, 0 without sets.
    pub(crate) max_minus_log10_p: f64,
    /// Sets over the threshold.
    pub(crate) leaking: usize,
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
    /// Observation keys for a set too wide to be dense
    /// ([`ProbeSet::observation_keys`]).
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
/// absorb batches and to turn the tables into verdicts, shared
/// read-only across worker threads. Splitting this out of the builder
/// is what lets `std::thread::scope` workers borrow the input-driving
/// tables while the coordinator keeps `&mut` access to the campaign
/// state.
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
    /// The campaign's one stopwatch, started before validation.
    pub(crate) watch: Stopwatch,
    /// The snapshot compatibility fingerprint.
    pub(crate) fingerprint: u64,
    /// The trace budget in 64-lane batches.
    pub(crate) batches: u64,
    /// Batches between interim checkpoints; 0 = none.
    pub(crate) checkpoint_every: u64,
}

impl<'a> Engine<'a> {
    /// The run record at a sweep: the campaign's identity and budget,
    /// the wall time on its one stopwatch, the state's flags, cell
    /// evaluations, table bytes and perf snapshot, and the sweep's
    /// verdict figures.
    pub(crate) fn record(&self, state: &CampaignState, sweep: &Sweep) -> RunRecord {
        RunRecord {
            design: self.netlist.name().to_owned(),
            model: self.config.model.name().to_owned(),
            order: self.config.order,
            probe_sets: self.probe_sets.len(),
            traces: sweep.traces,
            resumed_traces: state.prior_batches * LANES as u64,
            traces_target: self.batches * LANES as u64,
            wall_ms: self.watch.elapsed_ms(),
            max_minus_log10_p: sweep.max_minus_log10_p,
            worst_label: sweep
                .ranked
                .first()
                .map_or_else(String::new, |&(index, _)| {
                    self.probe_sets[index].label.clone()
                }),
            leaking: sweep.leaking,
            early_stopped: state.early_stopped,
            interrupted: state.interrupted,
            cell_evals: state.cell_evals(),
            table_bytes: state.tables.iter().map(Table::resident_bytes).sum(),
            perf: self.observer.perf().snapshot(),
            ..RunRecord::default()
        }
    }

    /// Pools each table once at the state's frontier and ranks the sets
    /// by `-log10(p)`. The pooled pass yields every set's pooling
    /// summary and, for a G-test campaign, its outcome; a t-test walks
    /// the table once more. Probe health is added for the sets of the
    /// ranked cut whenever an observer listens. A set's health extends
    /// its trajectory by the current point, so an interim sweep runs
    /// before the checkpoint records that point.
    pub(crate) fn sweep(&self, state: &CampaignState) -> Sweep {
        let config = self.config;
        let mut sweep = Sweep {
            traces: state.batches_done * LANES as u64,
            ..Sweep::default()
        };
        for (index, table) in state.tables.iter().enumerate() {
            let pooled = stats::pool(g_columns(table.columns(), table.overflow()), |_| {});
            let outcome = match config.statistic {
                StatisticKind::GTest => pooled.test,
                kind => kind
                    .as_statistic()
                    .evaluate_columns(table.columns(), table.overflow()),
            };
            let minus_log10_p = outcome.map_or(0.0, |outcome| outcome.minus_log10_p);
            sweep.outcomes.push(outcome);
            sweep.summaries.push(pooled.summary);
            sweep.ranked.push((index, minus_log10_p));
            sweep.leaking += usize::from(minus_log10_p > config.threshold);
        }
        sweep
            .ranked
            .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        sweep.max_minus_log10_p = sweep.ranked.first().map_or(0.0, |&(_, value)| value);
        // `-log10(p)` is never NaN, so the sets over the threshold are
        // exactly the first `leaking` ranks.
        sweep.shown = sweep
            .leaking
            .max(CHECKPOINT_TOP_PROBES)
            .min(sweep.ranked.len());
        if self.observer.enabled() {
            for &(index, minus_log10_p) in &sweep.ranked[..sweep.shown] {
                sweep.healths.push(health::probe_health(
                    &self.probe_sets[index].label,
                    &sweep.summaries[index],
                    minus_log10_p,
                    &state.trajectories[index],
                    sweep.traces,
                    config.threshold,
                ));
            }
        }
        sweep
    }

    /// The campaign-wide health at a sweep, from every set's pooling
    /// summary and the cut's probe health, which it takes. Its
    /// randomness-consumption accounting counts the masking randomness
    /// [`Engine::drive_cycle`] draws per lane per cycle — d−1 random
    /// shares per secret bit, one bit per free mask, eight bits per
    /// non-zero byte bus — over the trace's `0..=warmup_cycles` driven
    /// cycles. The secret value itself is the population variable, not
    /// masking randomness.
    pub(crate) fn assess(&self, sweep: &mut Sweep) -> HealthCheckpoint {
        let sharing_bits: usize = self
            .secrets
            .iter()
            .map(|(_, shares)| (shares.len() - 1) * shares[0].len())
            .sum();
        let mask_bits = self.free_masks.len() + 8 * self.nonzero_byte_buses.len();
        health::assess(
            std::mem::take(&mut sweep.healths),
            &sweep.summaries,
            sweep.traces,
            self.batches * LANES as u64,
            self.config.threshold,
            ((sharing_bits + mask_bits) * (self.config.warmup_cycles + 1)) as u64,
            self.config.statistic,
        )
    }

    /// Saves the campaign state to `path` inside a `snapshot` span,
    /// encoded straight from the live tables (the encoder walks each
    /// table's columns in place, so no column is copied) and written
    /// with bounded retries. The caller decides what a failure means.
    pub(crate) fn save_snapshot(
        &self,
        state: &CampaignState,
        path: &Path,
    ) -> Result<(), SnapshotError> {
        let _span = self.observer.perf().span("snapshot");
        let header = snapshot::Header {
            config_fingerprint: self.fingerprint,
            statistic: self.config.statistic,
            batches_done: state.batches_done,
            total_batches: self.batches,
            cell_evals: state.cell_evals(),
        };
        let tables: Vec<TableView<'_>> = state
            .tables
            .iter()
            .zip(&state.flagged)
            .zip(&state.trajectories)
            .map(|((table, &flagged), trajectory)| TableView {
                samples: table.samples(),
                overflow: table.overflow(),
                flagged,
                counts: table.columns(),
                trajectory,
            })
            .collect();
        snapshot::save_bytes_with_retry(&snapshot::encode(&header, &tables), path)
    }

    /// Runs the sampling pipeline from `state.batches_done` to
    /// `self.batches` (or an early stop / interrupt / fatal fault),
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
    pub(crate) fn run(&self, state: &mut CampaignState) -> Result<(), CampaignError> {
        if state.batches_done >= self.batches {
            return Ok(());
        }
        let perf = self.observer.perf();
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
                perf: if threads > 1 && perf.is_enabled() {
                    PerfRecorder::enabled()
                } else {
                    PerfRecorder::disabled()
                },
            })
            .collect();
        let mut result = Ok(());
        while state.batches_done < self.batches {
            let window = Window {
                next: AtomicU64::new(state.batches_done),
                end: self.window_end(state.batches_done),
                chunk: if threads == 1 { 1 } else { CHUNK },
                stop: AtomicBool::new(false),
            };
            let (stats, fault) = if let [Worker { sim, lanes, .. }] = workers.as_mut_slice() {
                self.work(sim, lanes, &mut state.tables, &window, perf, &heartbeats, 0)
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
                let _span = perf.span("merge");
                for worker in &mut workers {
                    for (table, local) in state.tables.iter_mut().zip(&mut worker.shard) {
                        table.merge_from(local);
                    }
                }
            }
            add_stats(&mut state.folded, stats);
            state.batches_done = reached;
            if self.after_batch(state) || reached < window.end {
                break;
            }
        }
        for worker in &workers {
            perf.absorb(&worker.perf);
        }
        result
    }

    /// Where the window starting at `start` ends: the next decision
    /// point — checkpoint multiple, deterministic batch cap, or the
    /// end. (`cap.max(start + 1)` always runs one batch when resumed at
    /// or past the cap: the cap is only noticed after a batch.)
    fn window_end(&self, start: u64) -> u64 {
        let mut end = match start.checked_div(self.checkpoint_every) {
            Some(windows_done) => ((windows_done + 1) * self.checkpoint_every).min(self.batches),
            None => self.batches,
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
    /// the interrupt flag is raised, and then settles `tables`, in
    /// parallel with the other workers. Returns the simulator work it
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
        let mut absorbed = SimStats::default();
        let mut fault = None;
        'claims: while !window.stop.load(Ordering::Acquire) {
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
                        fault = Some(error);
                        break 'claims;
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
            if self.signalled() {
                // Stop claiming; completed chunks stand, and the window
                // end folds the contiguous claimed range.
                break;
            }
        }
        let _span = perf.span("tabulate");
        tables.iter_mut().for_each(Table::settle);
        (absorbed, fault)
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

    /// Whether a signal handler raised the interrupt flag.
    fn signalled(&self) -> bool {
        let flag = self.config.durability.interrupt.as_ref();
        flag.is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// Everything a window end triggers besides absorption: the interim
    /// checkpoint (running statistic sweep, events, snapshot,
    /// early-stop decision) and the cooperative-interrupt check, purely
    /// as a function of `state.batches_done` and the tables — which is
    /// what keeps checkpoints, trajectories, early stops and interrupt
    /// frontiers byte-identical across thread counts. Returns `true`
    /// when the campaign should stop before `self.batches`.
    fn after_batch(&self, state: &mut CampaignState) -> bool {
        let config = self.config;

        // Interim checkpoint: running statistic per probing set,
        // events, and the early-stop decision. Skipped on the last
        // batch (the final statistics cover it).
        if self.checkpoint_every > 0
            && state.batches_done.is_multiple_of(self.checkpoint_every)
            && state.batches_done < self.batches
        {
            let _span = self.observer.perf().span("g_test");
            let observed = self.observer.enabled();
            let mut sweep = self.sweep(state);
            for (index, outcome) in sweep.outcomes.iter().enumerate() {
                let minus_log10_p = outcome.map_or(0.0, |outcome| outcome.minus_log10_p);
                state.trajectories[index].push((sweep.traces, minus_log10_p));
                if minus_log10_p > config.threshold
                    && !std::mem::replace(&mut state.flagged[index], true)
                    && observed
                {
                    self.observer.emit(&Event::ProbeFlagged {
                        label: self.probe_sets[index].label.clone(),
                        minus_log10_p,
                        traces: sweep.traces,
                    });
                }
            }
            if observed {
                let probes: Vec<ProbePoint> = sweep.ranked[..sweep.shown]
                    .iter()
                    .map(|&(index, value)| ProbePoint {
                        label: self.probe_sets[index].label.clone(),
                        minus_log10_p: value,
                        leaking: value > config.threshold,
                    })
                    .collect();
                let record = self.record(state, &sweep);
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
                    lane_utilization: config.traces.min(sweep.traces) as f64 / sweep.traces as f64,
                });
                self.observer.emit(&Event::Health(self.assess(&mut sweep)));
            }
            let snapshot_path = config.durability.snapshot_path.as_ref();
            let interim_path = snapshot_path.filter(|_| !state.snapshot_degraded);
            if let Some(Err(error)) = interim_path.map(|path| self.save_snapshot(state, path)) {
                // Interim saves are an amenity; losing them must not
                // kill a healthy campaign. Degrade: skip further interim
                // saves (the final save is still attempted) and surface
                // the outage.
                state.snapshot_degraded = true;
                mmaes_telemetry::degraded::mark(
                    "snapshot",
                    &format!("checkpoint at batch {}: {error}", state.batches_done),
                );
            }
            if config.early_stop && sweep.max_minus_log10_p >= DECISIVE_MARGIN * config.threshold {
                state.early_stopped = true;
                return true;
            }
        }

        // Cooperative interruption: a signal flag (set from a
        // SIGINT/SIGTERM handler) or a deterministic batch cap. The
        // folded prefix is contiguous, so the state is consistent; the
        // final snapshot persists it.
        let capped = config
            .durability
            .stop_after_batches
            .is_some_and(|cap| state.batches_done >= cap);
        if (self.signalled() || capped) && state.batches_done < self.batches {
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
