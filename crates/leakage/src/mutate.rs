//! Structural fault injection for detector self-tests.
//!
//! An evaluation tool is only trustworthy if it *fails* when it should:
//! this module generates mutants of a masked netlist — single structural
//! faults that break the masking scheme — so `mmaes selftest` can assert
//! that the fixed-vs-random detector flags every mutant as leaky while
//! keeping the unmutated design clean. It is the leakage-evaluation
//! analogue of mutation testing.
//!
//! Three fault kinds are injected, all through the netlist crate's
//! revalidating edit operations (a mutant is always a *valid* netlist —
//! just a wrong one):
//!
//! * [`FaultKind::GateFlip`] — one cell's function is replaced by its
//!   paired opposite (XOR↔AND, XNOR↔OR, NAND↔NOR, NOT↔BUF). Flipping a
//!   linear gate to a non-linear one (or vice versa) breaks share-wise
//!   correctness and typically recombines shares.
//! * [`FaultKind::StuckRandomness`] — one fresh-mask input is rewired to
//!   constant 0, modelling a broken RNG line. Multiplicative masking
//!   with a stuck mask degenerates to an unmasked value.
//! * [`FaultKind::ShareSwap`] — the uses of two share inputs of the same
//!   secret bit (different share index) are exchanged, routing one
//!   domain's signal into the other and violating non-completeness.

use mmaes_netlist::{CellKind, Netlist};

/// The kind of structural fault a [`Mutant`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// One cell's function replaced by its paired opposite.
    GateFlip,
    /// One fresh-mask input stuck at constant 0.
    StuckRandomness,
    /// Two shares of the same secret bit exchanged at their uses.
    ShareSwap,
}

impl FaultKind {
    /// Short machine-friendly name (`gate-flip`, `stuck-randomness`,
    /// `share-swap`).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::GateFlip => "gate-flip",
            FaultKind::StuckRandomness => "stuck-randomness",
            FaultKind::ShareSwap => "share-swap",
        }
    }
}

/// One single-fault variant of a netlist.
#[derive(Debug, Clone)]
pub struct Mutant {
    /// The injected fault kind.
    pub kind: FaultKind,
    /// Human-readable description of the exact fault site.
    pub description: String,
    /// The mutated (still structurally valid) netlist.
    pub netlist: Netlist,
}

/// The paired opposite used by [`FaultKind::GateFlip`], if any.
fn flipped_kind(kind: CellKind) -> Option<CellKind> {
    match kind {
        CellKind::Xor => Some(CellKind::And),
        CellKind::And => Some(CellKind::Xor),
        CellKind::Xnor => Some(CellKind::Or),
        CellKind::Or => Some(CellKind::Xnor),
        CellKind::Nand => Some(CellKind::Nor),
        CellKind::Nor => Some(CellKind::Nand),
        CellKind::Not => Some(CellKind::Buf),
        CellKind::Buf => Some(CellKind::Not),
        _ => None,
    }
}

/// Picks up to `limit` evenly spaced indices from `0..total`, so a
/// capped mutant set still spreads over the whole circuit instead of
/// clustering at the start.
fn spread(total: usize, limit: usize) -> Vec<usize> {
    if total <= limit {
        return (0..total).collect();
    }
    (0..limit).map(|rank| rank * total / limit).collect()
}

/// Enumerates single-fault mutants of `netlist`, at most `per_kind` of
/// each [`FaultKind`], in a deterministic order (cell index, mask input
/// order, share-matrix order). Edits that would produce an invalid
/// netlist (e.g. a wire swap closing a combinational loop) are skipped.
pub fn mutants(netlist: &Netlist, per_kind: usize) -> Vec<Mutant> {
    let mut result = Vec::new();

    // Gate flips, spread over the flippable cells.
    let flippable: Vec<_> = netlist
        .cells()
        .filter(|(_, cell)| flipped_kind(cell.kind).is_some())
        .collect();
    for &index in &spread(flippable.len(), per_kind) {
        let (cell_id, cell) = flippable[index];
        let flipped = flipped_kind(cell.kind).expect("filtered to flippable");
        if let Ok(mutated) = netlist.with_cell_kind(cell_id, flipped) {
            result.push(Mutant {
                kind: FaultKind::GateFlip,
                description: format!(
                    "cell `{}`: {} → {flipped}",
                    netlist.wire_name(cell.output),
                    cell.kind
                ),
                netlist: mutated,
            });
        }
    }

    // Stuck-at-0 fresh randomness, spread over the mask inputs.
    let masks = netlist.mask_inputs();
    for &index in &spread(masks.len(), per_kind) {
        let wire = masks[index];
        if let Ok(mutated) = netlist.with_input_stuck_at_zero(wire) {
            result.push(Mutant {
                kind: FaultKind::StuckRandomness,
                description: format!("mask `{}` stuck at 0", netlist.wire_name(wire)),
                netlist: mutated,
            });
        }
    }

    // Share swaps: adjacent share indices of the same secret bit.
    let mut swaps = Vec::new();
    for secret in netlist.secrets() {
        let mut triples = netlist.shares_of(secret);
        triples.sort_unstable_by_key(|&(share, bit, _)| (bit, share));
        for pair in triples.windows(2) {
            let (share_a, bit_a, wire_a) = pair[0];
            let (share_b, bit_b, wire_b) = pair[1];
            if bit_a == bit_b && share_a != share_b {
                swaps.push((wire_a, wire_b));
            }
        }
    }
    for &index in &spread(swaps.len(), per_kind) {
        let (a, b) = swaps[index];
        if let Ok(mutated) = netlist.with_swapped_wires(a, b) {
            result.push(Mutant {
                kind: FaultKind::ShareSwap,
                description: format!(
                    "shares `{}` ↔ `{}`",
                    netlist.wire_name(a),
                    netlist.wire_name(b)
                ),
                netlist: mutated,
            });
        }
    }

    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmaes_netlist::{NetlistBuilder, SecretId, SignalRole};

    fn share(index: u8, bit: u8) -> SignalRole {
        SignalRole::Share {
            secret: SecretId(0),
            share: index,
            bit,
        }
    }

    /// A 2-share, 2-bit design with a mask and real gates, so all three
    /// fault kinds have targets.
    fn masked_design() -> Netlist {
        let mut builder = NetlistBuilder::new("mutate_me");
        let s00 = builder.input("s00", share(0, 0));
        let s10 = builder.input("s10", share(1, 0));
        let s01 = builder.input("s01", share(0, 1));
        let s11 = builder.input("s11", share(1, 1));
        let mask = builder.input("m", SignalRole::Mask);
        let a = builder.xor2(s00, mask);
        let b = builder.xor2(s10, mask);
        let qa = builder.register(a);
        let qb = builder.register(b);
        let c = builder.and2(s01, qa);
        let d = builder.and2(s11, qb);
        builder.output("c", c);
        builder.output("d", d);
        builder.build().expect("valid")
    }

    #[test]
    fn mutants_cover_every_fault_kind() {
        let netlist = masked_design();
        let mutants = mutants(&netlist, 2);
        for kind in [
            FaultKind::GateFlip,
            FaultKind::StuckRandomness,
            FaultKind::ShareSwap,
        ] {
            assert!(
                mutants.iter().any(|mutant| mutant.kind == kind),
                "missing {kind:?} in {:?}",
                mutants
                    .iter()
                    .map(|mutant| (mutant.kind, mutant.description.clone()))
                    .collect::<Vec<_>>()
            );
        }
        // Every mutant is a valid netlist (the edits revalidate).
        for mutant in &mutants {
            assert_eq!(mutant.netlist.validate(), Ok(()), "{}", mutant.description);
        }
    }

    #[test]
    fn mutant_enumeration_is_deterministic_and_capped() {
        let netlist = masked_design();
        let first = mutants(&netlist, 1);
        let second = mutants(&netlist, 1);
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.description, b.description);
        }
        let per_kind: std::collections::HashMap<FaultKind, usize> =
            first.iter().fold(Default::default(), |mut map, mutant| {
                *map.entry(mutant.kind).or_default() += 1;
                map
            });
        for (&kind, &count) in &per_kind {
            assert!(count <= 1, "{kind:?} exceeded cap: {count}");
        }
    }

    #[test]
    fn spread_picks_evenly_spaced_sites() {
        assert_eq!(spread(3, 5), vec![0, 1, 2]);
        assert_eq!(spread(10, 2), vec![0, 5]);
        assert_eq!(spread(0, 4), Vec::<usize>::new());
    }

    #[test]
    fn stuck_randomness_on_a_masked_design_is_detected_as_leaky() {
        // Behavioral check: a design that is clean because the mask
        // decorrelates its output becomes leaky once that mask is stuck
        // at 0 — the detector must notice the difference.
        use crate::{EvaluationConfig, FixedVsRandom};
        // Holds the failpoint gate: these campaigns pass batch 3 through
        // the process-global registry and would otherwise consume a
        // concurrent fault test's hits.
        let _failpoints = mmaes_telemetry::failpoint::scoped("");
        let mut builder = NetlistBuilder::new("one_time_pad");
        let s0 = builder.input("s0", share(0, 0));
        let s1 = builder.input("s1", share(1, 0));
        let mask = builder.input("m", SignalRole::Mask);
        // Refresh share 0 with the mask *behind a register*, then
        // recombine: the recombination wire's glitch-extended cone is
        // {r0, r1} = {s0 ⊕ m, s1}, jointly uniform — clean. With the
        // mask stuck at 0 it collapses to {s0, s1}, which determines
        // the secret — leaky.
        let refreshed = builder.xor2(s0, mask);
        let r0 = builder.register(refreshed);
        let r1 = builder.register(s1);
        let recombined = builder.xor2(r0, r1);
        let q = builder.register(recombined);
        builder.output("q", q);
        let netlist = builder.build().expect("valid");

        let config = EvaluationConfig {
            traces: 20_000,
            warmup_cycles: 3,
            ..EvaluationConfig::default()
        };
        let clean = FixedVsRandom::new(&netlist, config.clone())
            .try_run()
            .expect("campaign");
        assert!(clean.passed(), "{clean}");

        let stuck = netlist
            .with_input_stuck_at_zero(netlist.find_wire("m").expect("mask"))
            .expect("valid edit");
        let leaky = FixedVsRandom::new(&stuck, config)
            .try_run()
            .expect("campaign");
        assert!(!leaky.passed(), "stuck mask must leak: {leaky}");
    }
}
