//! The exhaustive verifier.

use std::collections::HashMap;

use mmaes_leakage::tabulate::for_each_minterm;
use mmaes_leakage::{enumerate_probe_sets, ProbeModel, ProbeSet, MAX_MINTERM_WIDTH};
use mmaes_netlist::{Netlist, SecretId, SignalRole, StableCones, WireId};
use mmaes_sim::{Simulator, LANES};
use mmaes_telemetry::{Event, Observer, Stopwatch};

use crate::report::{Counterexample, ExactReport, ProbeVerdict};
use crate::unroll::{Unrolled, UnrolledVar};

/// Configuration of an exhaustive verification.
#[derive(Debug, Clone)]
pub struct ExactConfig {
    /// The probing model.
    pub model: ProbeModel,
    /// The cycle at which observations are made (must be at least the
    /// sequential depth of the design so no register still holds its
    /// reset value; `ExactVerifier::new` picks depth + 2).
    pub observe_cycle: usize,
    /// Maximum support (conditioning + free variables) enumerated per
    /// probe; wider probes get [`ProbeVerdict::TooWide`].
    pub max_support_bits: usize,
    /// Cap on the number of probing sets examined.
    pub max_probe_sets: usize,
    /// Restrict probes to wires whose name starts with this prefix.
    pub probe_scope_filter: Option<String>,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            model: ProbeModel::Glitch,
            observe_cycle: 6,
            max_support_bits: 24,
            max_probe_sets: 10_000,
            probe_scope_filter: None,
        }
    }
}

/// Exhaustive probing-security verifier for one netlist.
///
/// # Example
///
/// ```no_run
/// use mmaes_circuits::build_kronecker;
/// use mmaes_exact::ExactVerifier;
/// use mmaes_masking::KroneckerRandomness;
///
/// let circuit = build_kronecker(&KroneckerRandomness::de_meyer_eq6())?;
/// let report = ExactVerifier::new(&circuit.netlist).verify_all();
/// assert!(report.leak_found()); // with a concrete counterexample
/// # Ok::<(), mmaes_netlist::BuildError>(())
/// ```
#[derive(Debug)]
pub struct ExactVerifier<'a> {
    netlist: &'a Netlist,
    config: ExactConfig,
    observer: Observer,
}

impl<'a> ExactVerifier<'a> {
    /// Creates a verifier with defaults: glitch model, observation after
    /// the design's sequential depth has flushed.
    pub fn new(netlist: &'a Netlist) -> Self {
        let config = ExactConfig {
            observe_cycle: sequential_depth(netlist) + 2,
            ..ExactConfig::default()
        };
        ExactVerifier {
            netlist,
            config,
            observer: Observer::null(),
        }
    }

    /// Creates a verifier with an explicit configuration.
    pub fn with_config(netlist: &'a Netlist, config: ExactConfig) -> Self {
        ExactVerifier {
            netlist,
            config,
            observer: Observer::null(),
        }
    }

    /// Attaches a telemetry observer: enumeration lifecycle, per-set
    /// progress, and counterexample hit times.
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// The effective configuration.
    pub fn config(&self) -> &ExactConfig {
        &self.config
    }

    /// Verifies every (deduplicated) probing set.
    pub fn verify_all(&self) -> ExactReport {
        let watch = Stopwatch::start();
        let cones = StableCones::new(self.netlist);
        let sets = enumerate_probe_sets(
            self.netlist,
            &cones,
            1,
            self.config.probe_scope_filter.as_deref(),
            self.config.max_probe_sets,
        );
        if self.observer.enabled() {
            self.observer.emit(&Event::EnumerationStarted {
                design: self.netlist.name().to_owned(),
                probe_sets: sets.len(),
            });
        }
        let perf = self.observer.perf();
        let unroll_span = perf.span("unroll");
        let unrolled = Unrolled::new(self.netlist, self.config.observe_cycle + 1);
        drop(unroll_span);
        let mut verdicts: Vec<(String, ProbeVerdict)> = Vec::with_capacity(sets.len());
        // One simulator for every set: its lifetime `cell_evals` is the
        // run's.
        let mut simulator = Simulator::new(self.netlist);
        for (done, set) in sets.iter().enumerate() {
            let verdict = {
                let _span = perf.span("enumerate");
                self.verify_probe_with(&unrolled, &mut simulator, set)
            };
            if self.observer.enabled() {
                if matches!(verdict, ProbeVerdict::Leaky { .. }) {
                    self.observer.emit(&Event::CounterexampleFound {
                        label: set.label.clone(),
                        elapsed_ms: watch.elapsed_ms(),
                    });
                }
                self.observer.emit(&Event::EnumerationProgress {
                    done: done + 1,
                    total: sets.len(),
                    elapsed_ms: watch.elapsed_ms(),
                });
            }
            verdicts.push((set.label.clone(), verdict));
        }
        let cell_evals = simulator.counters().cell_evals;
        if perf.is_enabled() {
            perf.add("probe_sets", verdicts.len() as u64);
            perf.add("cell_evals", cell_evals);
            if self.observer.enabled() {
                if let Some(snapshot) = perf.snapshot() {
                    self.observer.emit(&Event::PerfSnapshot {
                        scope: "exact".to_owned(),
                        snapshot,
                    });
                }
            }
        }
        let report = ExactReport {
            design: self.netlist.name().to_owned(),
            cell_evals,
            verdicts,
        };
        if self.observer.enabled() {
            self.observer.emit(&Event::EnumerationFinished {
                design: report.design.clone(),
                secure: report.secure_count(),
                leaky: report.leaks().len(),
                too_wide: report.too_wide().len(),
                wall_ms: watch.elapsed_ms(),
            });
        }
        report
    }

    /// Verifies a single probing set (see [`ExactVerifier::verify_all`]
    /// for obtaining sets; any set built from this netlist's wires works).
    pub fn verify_probe(&self, set: &ProbeSet) -> ProbeVerdict {
        let unrolled = Unrolled::new(self.netlist, self.config.observe_cycle + 1);
        self.verify_probe_with(&unrolled, &mut Simulator::new(self.netlist), set)
    }

    /// Verifies one set on `simulator`, any simulator of this netlist:
    /// every batch starts from a reset. The [`ProbeVerdict::TooWide`]
    /// path runs no simulation.
    fn verify_probe_with(
        &self,
        unrolled: &Unrolled,
        simulator: &mut Simulator,
        set: &ProbeSet,
    ) -> ProbeVerdict {
        let observe = self.config.observe_cycle;
        let mut observations: Vec<(WireId, usize)> =
            set.observed.iter().map(|&wire| (wire, observe)).collect();
        if matches!(self.config.model, ProbeModel::GlitchTransition) {
            observations.extend(set.observed.iter().map(|&wire| (wire, observe - 1)));
        }
        let support = unrolled.support(self.netlist, &observations);

        // Classify the support into conditioning secrets and free vars.
        // A share-0 variable forces: (a) a conditioning secret bit and
        // (b) *all* sibling shares (k ≥ 1) of that bit/cycle as free
        // variables, because share 0 = secret ⊕ (⊕ siblings).
        let mut conditioning: Vec<(usize, SecretId, u8)> = Vec::new();
        let mut free: Vec<UnrolledVar> = Vec::new();
        for variable in &support {
            match self.netlist.role(variable.wire) {
                SignalRole::Share { secret, share, bit } => {
                    if share == 0 {
                        conditioning.push((variable.cycle, secret, bit));
                        for (sibling_share, sibling_bit, wire) in self.netlist.shares_of(secret) {
                            if sibling_share >= 1 && sibling_bit == bit {
                                free.push(UnrolledVar {
                                    cycle: variable.cycle,
                                    wire,
                                });
                            }
                        }
                    } else {
                        free.push(*variable);
                    }
                }
                SignalRole::Mask => free.push(*variable),
                SignalRole::Control => {} // held at 0
                SignalRole::Internal => unreachable!("support contains inputs only"),
            }
        }
        conditioning.sort_unstable_by_key(|&(cycle, secret, bit)| (cycle, secret, bit));
        conditioning.dedup();
        free.sort_unstable();
        free.dedup();

        let support_bits = conditioning.len() + free.len();
        if support_bits > self.config.max_support_bits || conditioning.len() > 16 {
            return ProbeVerdict::TooWide { support_bits };
        }

        // Map each conditioning tuple to its share-0 wire (for driving).
        let share0_wires: Vec<(usize, WireId)> = conditioning
            .iter()
            .map(|&(cycle, secret, bit)| {
                let wire = self
                    .netlist
                    .shares_of(secret)
                    .into_iter()
                    .find(|&(share, share_bit, _)| share == 0 && share_bit == bit)
                    .map(|(_, _, wire)| wire)
                    .expect("share 0 exists for every conditioned bit");
                (cycle, wire)
            })
            .collect();
        // For each conditioning tuple, the sibling free-variable indices.
        let siblings_of: Vec<Vec<usize>> = conditioning
            .iter()
            .map(|&(cycle, secret, bit)| {
                self.netlist
                    .shares_of(secret)
                    .into_iter()
                    .filter(|&(share, share_bit, _)| share >= 1 && share_bit == bit)
                    .filter_map(|(_, _, wire)| {
                        free.binary_search(&UnrolledVar { cycle, wire }).ok()
                    })
                    .collect()
            })
            .collect();

        let free_count = free.len();
        let assignments_total: u64 = 1u64 << free_count;
        let lanes_used = assignments_total.min(LANES as u64) as usize;
        let batches = assignments_total.div_ceil(LANES as u64).max(1);

        // Per-cycle input plan: free variables grouped by cycle.
        let mut free_by_cycle: Vec<Vec<(usize, WireId)>> = vec![Vec::new(); observe + 1];
        for (index, variable) in free.iter().enumerate() {
            if variable.cycle <= observe {
                free_by_cycle[variable.cycle].push((index, variable.wire));
            }
        }
        let mut share0_by_cycle: Vec<Vec<(usize, WireId)>> = vec![Vec::new(); observe + 1];
        for (cond_index, &(cycle, wire)) in share0_wires.iter().enumerate() {
            if cycle <= observe {
                share0_by_cycle[cycle].push((cond_index, wire));
            }
        }

        // Count each secret assignment's observations and compare them
        // with assignment 0's as soon as they are complete: the first
        // assignment, then the smallest observation, whose counts differ
        // is the counterexample. Enumeration runs to the end either way,
        // so `cell_evals` does not depend on where a leak shows.
        let model = self.config.model;
        let mut planes = vec![0u64; set.observation_bits(model)];
        let lanes = u64::MAX >> (LANES - lanes_used);
        let mut baseline = Histogram::new(planes.len());
        let mut current = Histogram::new(planes.len());
        let mut first_difference: Option<(usize, u128, u64, u64)> = None;
        for secret_assignment in 0..1usize << conditioning.len() {
            let histogram = if secret_assignment == 0 {
                &mut baseline
            } else {
                current.clear();
                &mut current
            };
            for batch in 0..batches {
                simulator.reset();
                for cycle in 0..=observe {
                    // Inputs not driven this cycle are 0: `reset` clears
                    // them all, so only last cycle's need clearing.
                    if let Some(previous) = cycle.checked_sub(1) {
                        for &(_, wire) in free_by_cycle[previous]
                            .iter()
                            .chain(&share0_by_cycle[previous])
                        {
                            simulator.set_input(wire, 0);
                        }
                    }
                    for &(var_index, wire) in &free_by_cycle[cycle] {
                        simulator.set_input(wire, variable_word(var_index, batch, lanes_used));
                    }
                    for &(cond_index, wire) in &share0_by_cycle[cycle] {
                        let secret_bit = (secret_assignment >> cond_index) & 1 == 1;
                        let mut word = if secret_bit { u64::MAX } else { 0 };
                        for &sibling in &siblings_of[cond_index] {
                            word ^= variable_word(sibling, batch, lanes_used);
                        }
                        simulator.set_input(wire, word);
                    }
                    if cycle < observe {
                        simulator.step();
                    } else {
                        simulator.eval();
                    }
                }
                set.observation_planes(simulator, model, &mut planes);
                histogram.absorb(&planes, lanes);
            }
            if secret_assignment > 0 && first_difference.is_none() {
                first_difference = baseline
                    .first_difference(&current)
                    .map(|(key, count_a, count_b)| (secret_assignment, key, count_a, count_b));
            }
        }

        let total = (batches * lanes_used as u64) as f64;
        let describe = |assignment: usize| -> String {
            conditioning
                .iter()
                .enumerate()
                .map(|(index, &(cycle, secret, bit))| {
                    format!(
                        "s{}[{bit}]@c{cycle}={}",
                        secret.0,
                        (assignment >> index) & 1
                    )
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        if let Some((assignment, key, count_a, count_b)) = first_difference {
            return ProbeVerdict::Leaky {
                counterexample: Counterexample {
                    secret_a: describe(0),
                    secret_b: describe(assignment),
                    observation: key,
                    probability_a: count_a as f64 / total,
                    probability_b: count_b as f64 / total,
                },
                support_bits,
            };
        }
        ProbeVerdict::Secure {
            support_bits,
            enumerated: (1u64 << conditioning.len()) * batches * lanes_used as u64,
        }
    }
}

/// One secret assignment's observation counts.
enum Histogram {
    /// Observations at most [`MAX_MINTERM_WIDTH`] bits wide: a count per
    /// key, filled by minterm popcount.
    Flat(Vec<u64>),
    /// Wider observations: a count per key seen.
    Keyed(HashMap<u128, u64>),
}

impl Histogram {
    fn new(width: usize) -> Self {
        if width <= MAX_MINTERM_WIDTH {
            Histogram::Flat(vec![0; 1 << width])
        } else {
            Histogram::Keyed(HashMap::new())
        }
    }

    fn clear(&mut self) {
        match self {
            Histogram::Flat(counts) => counts.fill(0),
            Histogram::Keyed(counts) => counts.clear(),
        }
    }

    /// Counts one batch's observations ([`ProbeSet::observation_planes`])
    /// on the lanes set in `lanes`. Observed bit `i` is key bit `i`.
    fn absorb(&mut self, planes: &[u64], lanes: u64) {
        match self {
            Histogram::Flat(counts) => for_each_minterm(planes, lanes, |key, minterm| {
                counts[key] += u64::from(minterm.count_ones());
            }),
            Histogram::Keyed(counts) => {
                for lane in (0..LANES).filter(|&lane| (lanes >> lane) & 1 == 1) {
                    let key = planes
                        .iter()
                        .enumerate()
                        .fold(0u128, |key, (position, &plane)| {
                            key | (((plane >> lane) & 1) as u128) << position
                        });
                    *counts.entry(key).or_insert(0) += 1;
                }
            }
        }
    }

    /// The smallest key whose counts differ between `self` and `other`
    /// (built with the same width), with both counts.
    fn first_difference(&self, other: &Histogram) -> Option<(u128, u64, u64)> {
        match (self, other) {
            (Histogram::Flat(a), Histogram::Flat(b)) => a
                .iter()
                .zip(b)
                .position(|(count_a, count_b)| count_a != count_b)
                .map(|key| (key as u128, a[key], b[key])),
            (Histogram::Keyed(a), Histogram::Keyed(b)) => {
                let mut keys: Vec<u128> = a.keys().chain(b.keys()).copied().collect();
                keys.sort_unstable();
                keys.dedup();
                keys.into_iter().find_map(|key| {
                    let count_a = a.get(&key).copied().unwrap_or(0);
                    let count_b = b.get(&key).copied().unwrap_or(0);
                    (count_a != count_b).then_some((key, count_a, count_b))
                })
            }
            _ => unreachable!("histograms of one set share a width"),
        }
    }
}

/// Per-lane bit patterns for the first six free variables (the ones that
/// vary within a 64-lane batch): variable `v`'s bit equals bit `v` of the
/// lane number.
const LANE_PATTERNS: [u64; 6] = [
    0xaaaa_aaaa_aaaa_aaaa,
    0xcccc_cccc_cccc_cccc,
    0xf0f0_f0f0_f0f0_f0f0,
    0xff00_ff00_ff00_ff00,
    0xffff_0000_ffff_0000,
    0xffff_ffff_0000_0000,
];

/// The 64-lane word of free variable `var_index` in `batch`: assignment
/// number `batch · lanes_used + lane`, bit `var_index`.
fn variable_word(var_index: usize, batch: u64, lanes_used: usize) -> u64 {
    let lane_bits = lanes_used.trailing_zeros() as usize;
    if var_index < lane_bits {
        LANE_PATTERNS[var_index]
    } else if (batch >> (var_index - lane_bits)) & 1 == 1 {
        u64::MAX
    } else {
        0
    }
}

/// The longest register chain in the design (how many cycles until every
/// register can hold input-derived data).
fn sequential_depth(netlist: &Netlist) -> usize {
    let register_count = netlist.register_count();
    let mut depth = vec![0usize; netlist.wire_count()];
    for _ in 0..=register_count {
        let mut changed = false;
        for &cell_id in netlist.topo_cells() {
            let cell = netlist.cell(cell_id);
            let max_in = cell
                .inputs
                .iter()
                .map(|input| depth[input.index()])
                .max()
                .unwrap_or(0);
            if depth[cell.output.index()] != max_in {
                depth[cell.output.index()] = max_in;
                changed = true;
            }
        }
        for (_, register) in netlist.registers() {
            let new_depth = (depth[register.d.index()] + 1).min(register_count + 1);
            if depth[register.q.index()] < new_depth {
                depth[register.q.index()] = new_depth;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    netlist
        .registers()
        .map(|(_, register)| depth[register.q.index()])
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmaes_netlist::NetlistBuilder;

    fn share_role(share: u8, bit: u8) -> SignalRole {
        SignalRole::Share {
            secret: SecretId(0),
            share,
            bit,
        }
    }

    #[test]
    fn recombining_shares_is_proven_leaky() {
        let mut builder = NetlistBuilder::new("recombine");
        let s0 = builder.input("s0", share_role(0, 0));
        let s1 = builder.input("s1", share_role(1, 0));
        let x = builder.xor2(s0, s1);
        let q = builder.register(x);
        builder.output("q", q);
        let netlist = builder.build().expect("valid");
        let report = ExactVerifier::new(&netlist).verify_all();
        assert!(report.leak_found(), "{report}");
        let (_, counterexample) = report.leaks()[0];
        // A genuine distribution gap is witnessed (0.5 vs 0 on the XOR
        // probe, 1 vs 0 on the register probe, depending on order).
        assert!((counterexample.probability_a - counterexample.probability_b).abs() > 0.4);
    }

    #[test]
    fn independent_share_registers_are_proven_secure() {
        let mut builder = NetlistBuilder::new("independent");
        let s0 = builder.input("s0", share_role(0, 0));
        let s1 = builder.input("s1", share_role(1, 0));
        let q0 = builder.register(s0);
        let q1 = builder.register(s1);
        builder.output("q0", q0);
        builder.output("q1", q1);
        let netlist = builder.build().expect("valid");
        let report = ExactVerifier::new(&netlist).verify_all();
        assert!(report.proven_secure(), "{report}");
    }

    #[test]
    fn masked_product_with_fresh_mask_is_secure_per_share() {
        // z0 = s0 & t ⊕ r registered — the Eq. 5 simplified DOM share.
        // The sibling share s1 exists (making s0 a one-time-pad view of
        // the secret) even though this fragment never reads it.
        let mut builder = NetlistBuilder::new("dom_share");
        let s0 = builder.input("s0", share_role(0, 0));
        let _s1 = builder.input("s1", share_role(1, 0));
        let t = builder.input("t", SignalRole::Control);
        let mask = builder.input("r", SignalRole::Mask);
        let product = builder.and2(s0, t);
        let blinded = builder.xor2(product, mask);
        let q = builder.register(blinded);
        builder.output("q", q);
        let netlist = builder.build().expect("valid");
        let report = ExactVerifier::new(&netlist).verify_all();
        assert!(report.proven_secure(), "{report}");
    }

    #[test]
    fn glitchy_unregistered_mask_is_caught() {
        // out = (s0 ⊕ s1) & r computed combinationally: the glitch-extended
        // probe on out sees s0 and s1 jointly → leaky, with proof.
        let mut builder = NetlistBuilder::new("glitchy");
        let s0 = builder.input("s0", share_role(0, 0));
        let s1 = builder.input("s1", share_role(1, 0));
        let mask = builder.input("r", SignalRole::Mask);
        let x = builder.xor2(s0, s1);
        let masked = builder.and2(x, mask);
        let q = builder.register(masked);
        builder.output("q", q);
        let netlist = builder.build().expect("valid");
        let report = ExactVerifier::new(&netlist).verify_all();
        assert!(report.leak_found(), "{report}");
    }

    #[test]
    fn observer_sees_enumeration_lifecycle_and_counterexample() {
        use mmaes_telemetry::MemorySink;
        let mut builder = NetlistBuilder::new("recombine");
        let s0 = builder.input("s0", share_role(0, 0));
        let s1 = builder.input("s1", share_role(1, 0));
        let x = builder.xor2(s0, s1);
        let q = builder.register(x);
        builder.output("q", q);
        let netlist = builder.build().expect("valid");

        let sink = MemorySink::new();
        let collected = sink.events();
        let report = ExactVerifier::new(&netlist)
            .with_observer(Observer::single(sink))
            .verify_all();
        assert!(report.leak_found());

        let events = collected.lock().unwrap();
        assert!(matches!(
            events.first(),
            Some(Event::EnumerationStarted { .. })
        ));
        assert!(events
            .iter()
            .any(|event| matches!(event, Event::CounterexampleFound { .. })));
        let progress = events
            .iter()
            .filter(|event| matches!(event, Event::EnumerationProgress { .. }))
            .count();
        assert_eq!(progress, report.verdicts.len());
        match events.last() {
            Some(Event::EnumerationFinished { leaky, .. }) => {
                assert_eq!(*leaky, report.leaks().len());
            }
            other => panic!("expected EnumerationFinished, got {other:?}"),
        }
    }

    #[test]
    fn too_wide_supports_are_reported_not_skipped() {
        let mut builder = NetlistBuilder::new("wide");
        let inputs: Vec<_> = (0..30)
            .map(|i| builder.input(format!("m{i}"), SignalRole::Mask))
            .collect();
        let s0 = builder.input("s0", share_role(0, 0));
        let s1 = builder.input("s1", share_role(1, 0));
        let mut acc = builder.xor2(s0, s1);
        for &input in &inputs {
            acc = builder.xor2(acc, input);
        }
        builder.output("acc", acc);
        let netlist = builder.build().expect("valid");
        let verifier = ExactVerifier::with_config(
            &netlist,
            ExactConfig {
                observe_cycle: 2,
                max_support_bits: 16,
                ..Default::default()
            },
        );
        let report = verifier.verify_all();
        assert!(!report.too_wide().is_empty());
    }

    #[test]
    fn sequential_depth_counts_register_chains() {
        let mut builder = NetlistBuilder::new("depth");
        let a = builder.input("a", SignalRole::Control);
        let q1 = builder.register(a);
        let q2 = builder.register(q1);
        let q3 = builder.register(q2);
        builder.output("q3", q3);
        let netlist = builder.build().expect("valid");
        assert_eq!(sequential_depth(&netlist), 3);
    }
}
