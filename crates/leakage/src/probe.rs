//! Probe placement and extension under the probing models.

use std::collections::HashMap;

use mmaes_netlist::{Netlist, StableCones, WireId};
use mmaes_sim::{Simulator, LANES};

use crate::tabulate::{planes_to_indices, MAX_DENSE_WIDTH};

/// The adversarial model used to extend probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProbeModel {
    /// Glitch-extended probing: a probe on a wire observes every stable
    /// signal (register output / primary input) in its combinational
    /// fan-in, at the current cycle.
    #[default]
    Glitch,
    /// Glitch- and transition-extended probing: each of those stable
    /// signals is observed in *two consecutive cycles* (`t-1` and `t`).
    GlitchTransition,
}

impl ProbeModel {
    /// Human-readable name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            ProbeModel::Glitch => "glitch-extended",
            ProbeModel::GlitchTransition => "glitch+transition-extended",
        }
    }
}

/// A probing set: one or more probe wires and the stable signals their
/// extended observation covers.
#[derive(Debug, Clone)]
pub struct ProbeSet {
    /// The probed wires (1 for univariate, `order` for multivariate).
    pub wires: Vec<WireId>,
    /// The wires carrying the observed stable signals (deduplicated,
    /// sorted). Under [`ProbeModel::GlitchTransition`] each is observed
    /// twice (previous and current cycle).
    pub observed: Vec<WireId>,
    /// A display label (the probed wires' names).
    pub label: String,
}

impl ProbeSet {
    /// Number of observed bits per sample under `model`.
    pub fn observation_bits(&self, model: ProbeModel) -> usize {
        match model {
            ProbeModel::Glitch => self.observed.len(),
            ProbeModel::GlitchTransition => 2 * self.observed.len(),
        }
    }

    /// The exact packed-key width for a dense direct-indexed
    /// contingency table, when this set qualifies for one: the set's
    /// full key space (`2^bits`) must fit within `max_table_keys` (so
    /// the dense table can never overflow the cap the hashed fallback
    /// enforces) and the packed key must fit the per-lane `u32` index
    /// ([`MAX_DENSE_WIDTH`]). `None` selects the hashed fallback.
    pub fn dense_index_width(&self, model: ProbeModel, max_table_keys: usize) -> Option<usize> {
        let bits = self.observation_bits(model);
        if bits > MAX_DENSE_WIDTH {
            return None;
        }
        ((1u64 << bits) <= max_table_keys as u64).then_some(bits)
    }

    /// Packs each lane's extended observation of this set into a key:
    /// observed bit `i` at key bit `i` (a wire's current value, then —
    /// under transitions — its previous one).
    ///
    /// Up to 128 observed bits are packed exactly, from the
    /// [`ProbeSet::observation_planes`] by 32×32 bit transposes, 32 key
    /// bits at a time; beyond that, bits are folded with a
    /// deterministic 128-bit mix (collisions can only merge contingency
    /// columns — they can weaken detection, never fabricate it).
    pub(crate) fn observation_keys(&self, sim: &Simulator, model: ProbeModel) -> [u128; LANES] {
        let width = self.observation_bits(model);
        if width > 128 {
            return self.folded_observation_keys(sim, model);
        }
        let mut planes = [0u64; 128];
        self.observation_planes(sim, model, &mut planes[..width]);
        let mut keys = [0u128; LANES];
        let mut indices = [0u32; LANES];
        for (chunk, planes) in planes[..width.div_ceil(32) * 32]
            .chunks_exact(MAX_DENSE_WIDTH)
            .enumerate()
        {
            planes_to_indices(planes.try_into().expect("32 planes"), &mut indices);
            for (key, &index) in keys.iter_mut().zip(&indices) {
                *key |= u128::from(index) << (32 * chunk);
            }
        }
        keys
    }

    /// [`ProbeSet::observation_keys`] for sets wider than 128 bits: the
    /// first 128 bits packed lane by lane, the rest folded in.
    fn folded_observation_keys(&self, sim: &Simulator, model: ProbeModel) -> [u128; LANES] {
        let mut keys = [0u128; LANES];
        let mut position = 0usize;
        let push_word = |keys: &mut [u128; LANES], word: u64, position: usize| {
            if position < 128 {
                for (lane, key) in keys.iter_mut().enumerate() {
                    *key |= (((word >> lane) & 1) as u128) << position;
                }
            } else {
                const PRIME: u128 = 0x0000_0100_0000_01b3_0000_0100_0000_01b3;
                for (lane, key) in keys.iter_mut().enumerate() {
                    *key = key.wrapping_mul(PRIME) ^ (((word >> lane) & 1) as u128 + 2);
                }
            }
        };
        for &wire in &self.observed {
            push_word(&mut keys, sim.value(wire), position);
            position += 1;
            if matches!(model, ProbeModel::GlitchTransition) {
                push_word(&mut keys, sim.prev_value(wire), position);
                position += 1;
            }
        }
        debug_assert_eq!(position, self.observation_bits(model));
        keys
    }

    /// Writes this set's extended observation as bit-planes:
    /// `planes[i]` holds observed bit `i` of all 64 lanes, in key-bit
    /// order (a wire's current value, then — under transitions — its
    /// previous one). Both evaluators count from planes: the campaign's
    /// narrow tables and the exact verifier by minterm popcount
    /// ([`crate::tabulate::for_each_minterm`]), wider dense tables after
    /// a bit transpose into per-lane indices.
    ///
    /// # Panics
    ///
    /// Panics if `planes` is not [`ProbeSet::observation_bits`] long.
    pub fn observation_planes(&self, sim: &Simulator, model: ProbeModel, planes: &mut [u64]) {
        assert_eq!(planes.len(), self.observation_bits(model), "plane count");
        match model {
            ProbeModel::Glitch => {
                for (plane, &wire) in planes.iter_mut().zip(&self.observed) {
                    *plane = sim.value(wire);
                }
            }
            ProbeModel::GlitchTransition => {
                for (pair, &wire) in planes.chunks_exact_mut(2).zip(&self.observed) {
                    pair[0] = sim.value(wire);
                    pair[1] = sim.prev_value(wire);
                }
            }
        }
    }

    /// [`ProbeSet::observation_keys`] specialized to dense-eligible
    /// sets: packs each lane's observation into a `u32` index using the
    /// *same* bit layout, so the index is bit-for-bit the zero-extended
    /// `u128` key — which is why a dense table's walk in index order
    /// serializes in the exact sorted-key order a sorted table holds. The
    /// [`ProbeSet::observation_planes`] are transposed into indices
    /// whole. Only called for sets whose
    /// [`ProbeSet::dense_index_width`] fits `u32`, so no overflow-mix arm
    /// exists here.
    pub(crate) fn observation_indices(
        &self,
        sim: &Simulator,
        model: ProbeModel,
        indices: &mut [u32; LANES],
    ) {
        let mut planes = [0u64; MAX_DENSE_WIDTH];
        let width = self.observation_bits(model);
        self.observation_planes(sim, model, &mut planes[..width]);
        planes_to_indices(&planes, indices);
    }
}

/// Enumerates deduplicated probing sets of the given order.
///
/// Probe positions are all cell outputs plus all register outputs
/// (optionally filtered to wires whose name starts with `scope_filter`).
/// Probes with identical glitch-extended observation sets are
/// observationally equivalent and merged; for `order == 2`, all pairs of
/// the deduplicated univariate probes are formed (then deduplicated by
/// their union cones), up to `max_sets` — pairs beyond the cap are
/// dropped deterministically and the caller is expected to report the
/// truncation.
///
/// # Panics
///
/// Panics if `order` is 0 or greater than 2 (higher orders are out of
/// scope for this reproduction).
pub fn enumerate_probe_sets(
    netlist: &Netlist,
    cones: &StableCones,
    order: usize,
    scope_filter: Option<&str>,
    max_sets: usize,
) -> Vec<ProbeSet> {
    assert!(
        (1..=2).contains(&order),
        "supported probing orders: 1 and 2"
    );

    // Candidate probe positions.
    let mut candidates: Vec<WireId> = netlist.cell_outputs().collect();
    candidates.extend(netlist.registers().map(|(_, register)| register.q));
    if let Some(prefix) = scope_filter {
        candidates.retain(|&wire| netlist.wire_name(wire).starts_with(prefix));
    }

    // Deduplicate by cone signature; keep the shallowest representative
    // (nicer labels) — first in netlist order works since generators emit
    // sources before sinks.
    let mut by_signature: HashMap<Vec<u64>, WireId> = HashMap::new();
    let mut univariate: Vec<WireId> = Vec::new();
    for &wire in &candidates {
        if cones.cone_size(wire) == 0 {
            continue; // constants observe nothing
        }
        let signature = cones.signature(wire);
        if let std::collections::hash_map::Entry::Vacant(e) = by_signature.entry(signature) {
            e.insert(wire);
            univariate.push(wire);
        }
    }

    let make_set = |wires: Vec<WireId>| -> ProbeSet {
        let union = cones.union_of(&wires);
        let mut observed: Vec<WireId> = union
            .into_iter()
            .map(|signal| StableCones::signal_wire(netlist, signal))
            .collect();
        observed.sort_unstable();
        observed.dedup();
        let label = wires
            .iter()
            .map(|&wire| netlist.wire_name(wire).to_owned())
            .collect::<Vec<_>>()
            .join(" + ");
        ProbeSet {
            wires,
            observed,
            label,
        }
    };

    if order == 1 {
        return univariate
            .into_iter()
            .take(max_sets)
            .map(|wire| make_set(vec![wire]))
            .collect();
    }

    // Order 2: pairs of deduplicated univariate probes (a univariate probe
    // is also a valid 2-probe set, but its observations are subsumed by
    // pairs containing it; we still include singles so first-order leakage
    // is caught in the same run).
    let mut sets: Vec<ProbeSet> = Vec::new();
    let mut pair_signatures: HashMap<Vec<WireId>, ()> = HashMap::new();
    for &wire in &univariate {
        sets.push(make_set(vec![wire]));
        if sets.len() >= max_sets {
            return sets;
        }
    }
    'outer: for (index, &first) in univariate.iter().enumerate() {
        for &second in &univariate[index + 1..] {
            let candidate = make_set(vec![first, second]);
            if pair_signatures
                .insert(candidate.observed.clone(), ())
                .is_none()
            {
                sets.push(candidate);
                if sets.len() >= max_sets {
                    break 'outer;
                }
            }
        }
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmaes_netlist::{NetlistBuilder, SignalRole};

    fn sample_netlist() -> Netlist {
        let mut builder = NetlistBuilder::new("probes");
        let a = builder.input("a", SignalRole::Control);
        let b = builder.input("b", SignalRole::Control);
        let c = builder.input("c", SignalRole::Control);
        let ab = builder.and2(a, b);
        let ab_or = builder.or2(a, b); // same cone as `ab`
        let q = builder.register(ab);
        let out = builder.xor2(q, c);
        builder.output("o1", ab_or);
        builder.output("o2", out);
        builder.build().expect("valid")
    }

    #[test]
    fn univariate_probes_are_deduplicated_by_cone() {
        let netlist = sample_netlist();
        let cones = StableCones::new(&netlist);
        let sets = enumerate_probe_sets(&netlist, &cones, 1, None, usize::MAX);
        // Cones: {a,b} (ab and ab_or merge), {reg} (q), {reg,c} (out).
        assert_eq!(sets.len(), 3);
    }

    #[test]
    fn observation_bits_double_under_transitions() {
        let netlist = sample_netlist();
        let cones = StableCones::new(&netlist);
        let sets = enumerate_probe_sets(&netlist, &cones, 1, None, usize::MAX);
        for set in &sets {
            assert_eq!(
                set.observation_bits(ProbeModel::GlitchTransition),
                2 * set.observation_bits(ProbeModel::Glitch)
            );
        }
    }

    #[test]
    fn second_order_includes_singles_and_pairs() {
        let netlist = sample_netlist();
        let cones = StableCones::new(&netlist);
        let sets = enumerate_probe_sets(&netlist, &cones, 2, None, usize::MAX);
        assert!(sets.iter().any(|set| set.wires.len() == 1));
        assert!(sets.iter().any(|set| set.wires.len() == 2));
        // 3 singles + up to 3 pairs (some pairs may dedup).
        assert!(sets.len() > 3);
    }

    #[test]
    fn max_sets_caps_enumeration() {
        let netlist = sample_netlist();
        let cones = StableCones::new(&netlist);
        let sets = enumerate_probe_sets(&netlist, &cones, 2, None, 2);
        assert_eq!(sets.len(), 2);
    }

    #[test]
    fn observation_indices_match_per_lane_packing_up_to_32_bits() {
        let mut builder = NetlistBuilder::new("wide");
        let inputs: Vec<WireId> = (0..32)
            .map(|index| builder.input(format!("i{index}"), SignalRole::Mask))
            .collect();
        let folded = inputs[1..]
            .iter()
            .fold(inputs[0], |acc, &input| builder.xor2(acc, input));
        builder.output("folded", folded);
        let netlist = builder.build().expect("valid");
        let mut sim = Simulator::new(&netlist);
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(0x1405_7b7e_f767_814f);
            state ^ (state >> 29)
        };
        // Two cycles of fresh inputs, so current and previous values differ.
        for &input in &inputs {
            sim.set_input(input, next());
        }
        sim.step();
        for &input in &inputs {
            sim.set_input(input, next());
        }
        sim.eval();
        for model in [ProbeModel::Glitch, ProbeModel::GlitchTransition] {
            for count in 0..=32 {
                let set = ProbeSet {
                    wires: vec![folded],
                    observed: inputs[..count].to_vec(),
                    label: format!("{count} wires"),
                };
                let width = set.observation_bits(model);
                if width > crate::tabulate::MAX_DENSE_WIDTH {
                    continue;
                }
                let mut indices = [0u32; LANES];
                set.observation_indices(&sim, model, &mut indices);
                let keys = set.observation_keys(&sim, model);
                for lane in 0..LANES {
                    let mut packed = 0u32;
                    let mut bit = 0;
                    for &wire in &set.observed {
                        packed |= (((sim.value(wire) >> lane) & 1) as u32) << bit;
                        bit += 1;
                        if model == ProbeModel::GlitchTransition {
                            packed |= (((sim.prev_value(wire) >> lane) & 1) as u32) << bit;
                            bit += 1;
                        }
                    }
                    assert_eq!(indices[lane], packed, "{} bits, lane {lane}", width);
                    assert_eq!(
                        keys[lane],
                        u128::from(packed),
                        "{} bits, lane {lane}",
                        width
                    );
                }
            }
        }
    }

    #[test]
    fn observation_keys_pack_exactly_up_to_128_bits() {
        let mut builder = NetlistBuilder::new("wider");
        let inputs: Vec<WireId> = (0..136)
            .map(|index| builder.input(format!("i{index}"), SignalRole::Mask))
            .collect();
        let folded = inputs[1..]
            .iter()
            .fold(inputs[0], |acc, &input| builder.xor2(acc, input));
        builder.output("folded", folded);
        let netlist = builder.build().expect("valid");
        let mut sim = Simulator::new(&netlist);
        let mut state = 0x0bad_5eed_u64;
        for _ in 0..2 {
            for &input in &inputs {
                state = state
                    .wrapping_mul(0x5851_f42d_4c95_7f2d)
                    .wrapping_add(0x1405_7b7e_f767_814f);
                sim.set_input(input, state ^ (state >> 29));
            }
            sim.step();
        }
        for model in [ProbeModel::Glitch, ProbeModel::GlitchTransition] {
            for count in 0..=inputs.len() {
                let set = ProbeSet {
                    wires: vec![folded],
                    observed: inputs[..count].to_vec(),
                    label: format!("{count} wires"),
                };
                let width = set.observation_bits(model);
                let keys = set.observation_keys(&sim, model);
                // Lane by lane: exact up to 128 bits, the fold beyond.
                assert_eq!(
                    keys,
                    set.folded_observation_keys(&sim, model),
                    "{width} bits"
                );
                if width > 128 {
                    continue;
                }
                let mut planes = vec![0u64; width];
                set.observation_planes(&sim, model, &mut planes);
                for (lane, &key) in keys.iter().enumerate() {
                    let packed = planes.iter().enumerate().fold(0u128, |key, (bit, plane)| {
                        key | u128::from((plane >> lane) & 1) << bit
                    });
                    assert_eq!(key, packed, "{width} bits, lane {lane}");
                }
            }
        }
    }

    #[test]
    fn scope_filter_restricts_probe_positions() {
        let mut builder = NetlistBuilder::new("scoped");
        let a = builder.input("a", SignalRole::Control);
        let b = builder.input("b", SignalRole::Control);
        let inner = builder.scoped("inner", |builder| builder.and2(a, b));
        let outer = builder.or2(a, b);
        builder.output("x", inner);
        builder.output("y", outer);
        let netlist = builder.build().expect("valid");
        let cones = StableCones::new(&netlist);
        let sets = enumerate_probe_sets(&netlist, &cones, 1, Some("inner"), usize::MAX);
        assert_eq!(sets.len(), 1);
        assert!(sets[0].label.starts_with("inner/"));
    }
}
