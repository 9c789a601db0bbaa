//! Regression pins for the exhaustive verifier's counting.
//!
//! The verifier tabulates every secret assignment's observation
//! histogram and reports the first (assignment, observation) pair, in
//! ascending order, whose counts differ. These tests pin that output:
//! the full Eq. 6 counterexamples, the per-set enumeration counts of the
//! Eq. 9 proof, and — on designs small enough to enumerate by hand — the
//! verdicts a brute-force histogram computation predicts, including
//! supports of fewer than six free variables, where only part of each
//! 64-lane batch holds assignments.

use std::collections::BTreeMap;

use mmaes_circuits::build_kronecker;
use mmaes_exact::{ExactConfig, ExactVerifier, ProbeVerdict};
use mmaes_leakage::{enumerate_probe_sets, ProbeModel, ProbeSet};
use mmaes_masking::KroneckerRandomness;
use mmaes_netlist::{Netlist, NetlistBuilder, SecretId, SignalRole, StableCones, WireId};

/// The configuration `mmaes verify` runs with.
fn cli_config() -> ExactConfig {
    ExactConfig {
        observe_cycle: 5,
        probe_scope_filter: Some("kronecker/G7".to_owned()),
        ..ExactConfig::default()
    }
}

#[test]
fn eq6_counterexamples_are_unchanged() {
    let circuit = build_kronecker(&KroneckerRandomness::de_meyer_eq6()).expect("valid");
    let report = ExactVerifier::with_config(&circuit.netlist, cli_config()).verify_all();
    let rendered = report.to_string();
    let leaks: Vec<&str> = rendered
        .lines()
        .filter(|line| line.starts_with("  LEAK"))
        .collect();
    let expected = [
        "  LEAK kronecker/G7/$and83: P[obs=0x0 | s0[0]@c3=0,s0[1]@c3=0,s0[2]@c3=0,s0[3]@c3=0,s0[4]@c3=0,s0[5]@c3=0,s0[6]@c3=0,s0[7]@c3=0] = 0.140625 ≠ 0.156250 = P[obs=0x0 | s0[0]@c3=0,s0[1]@c3=1,s0[2]@c3=0,s0[3]@c3=0,s0[4]@c3=0,s0[5]@c3=1,s0[6]@c3=0,s0[7]@c3=0]",
        "  LEAK kronecker/G7/$and85: P[obs=0x0 | s0[0]@c3=0,s0[1]@c3=0,s0[2]@c3=0,s0[3]@c3=0,s0[5]@c3=0,s0[6]@c3=0,s0[7]@c3=0] = 0.140625 ≠ 0.156250 = P[obs=0x0 | s0[0]@c3=0,s0[1]@c3=1,s0[2]@c3=0,s0[3]@c3=0,s0[5]@c3=1,s0[6]@c3=0,s0[7]@c3=0]",
        "  LEAK kronecker/G7/$xor86: P[obs=0x0 | s0[0]@c3=0,s0[1]@c3=0,s0[2]@c3=0,s0[3]@c3=0,s0[5]@c3=0,s0[6]@c3=0,s0[7]@c3=0] = 0.070312 ≠ 0.078125 = P[obs=0x0 | s0[0]@c3=0,s0[1]@c3=1,s0[2]@c3=0,s0[3]@c3=0,s0[5]@c3=1,s0[6]@c3=0,s0[7]@c3=0]",
        "  LEAK kronecker/G7/$and89: P[obs=0x0 | s0[1]@c3=0,s0[2]@c3=0,s0[3]@c3=0,s0[5]@c3=0,s0[6]@c3=0,s0[7]@c3=0] = 0.140625 ≠ 0.156250 = P[obs=0x0 | s0[1]@c3=1,s0[2]@c3=0,s0[3]@c3=0,s0[5]@c3=1,s0[6]@c3=0,s0[7]@c3=0]",
        "  LEAK kronecker/G7/$and91: P[obs=0x0 | s0[1]@c3=0,s0[2]@c3=0,s0[3]@c3=0,s0[4]@c3=0,s0[5]@c3=0,s0[6]@c3=0,s0[7]@c3=0] = 0.140625 ≠ 0.156250 = P[obs=0x0 | s0[1]@c3=1,s0[2]@c3=0,s0[3]@c3=0,s0[4]@c3=0,s0[5]@c3=1,s0[6]@c3=0,s0[7]@c3=0]",
        "  LEAK kronecker/G7/$xor92: P[obs=0x0 | s0[1]@c3=0,s0[2]@c3=0,s0[3]@c3=0,s0[4]@c3=0,s0[5]@c3=0,s0[6]@c3=0,s0[7]@c3=0] = 0.070312 ≠ 0.078125 = P[obs=0x0 | s0[1]@c3=1,s0[2]@c3=0,s0[3]@c3=0,s0[4]@c3=0,s0[5]@c3=1,s0[6]@c3=0,s0[7]@c3=0]",
    ];
    assert_eq!(leaks, expected, "{rendered}");
    assert_eq!(report.secure_count(), 6);
    assert_eq!(report.cell_evals, 67_092_480);
}

#[test]
fn eq9_proof_enumerates_the_same_assignments_per_set() {
    let circuit = build_kronecker(&KroneckerRandomness::proposed_eq9()).expect("valid");
    let report = ExactVerifier::with_config(&circuit.netlist, cli_config()).verify_all();
    let per_set: Vec<(&str, usize, u64)> = report
        .verdicts
        .iter()
        .map(|(label, verdict)| match verdict {
            ProbeVerdict::Secure {
                support_bits,
                enumerated,
            } => (label.as_str(), *support_bits, *enumerated),
            other => panic!("{label}: {other:?}"),
        })
        .collect();
    let expected: [(&str, usize, u64); 12] = [
        ("kronecker/G7/$and81", 22, 4_194_304),
        ("kronecker/G7/$and83", 21, 2_097_152),
        ("kronecker/G7/$xor84", 22, 4_194_304),
        ("kronecker/G7/z0", 23, 8_388_608),
        ("kronecker/G7/$and87", 20, 1_048_576),
        ("kronecker/G7/$and89", 21, 2_097_152),
        ("kronecker/G7/$xor90", 22, 4_194_304),
        ("kronecker/G7/z1", 22, 4_194_304),
        ("kronecker/G7/inner0", 22, 4_194_304),
        ("kronecker/G7/cross0_1", 22, 4_194_304),
        ("kronecker/G7/inner1", 20, 1_048_576),
        ("kronecker/G7/cross1_0", 22, 4_194_304),
    ];
    assert_eq!(per_set, expected);
    assert_eq!(report.cell_evals, 264_241_152);
}

fn share(secret: u16, share: u8, bit: u8) -> SignalRole {
    SignalRole::Share {
        secret: SecretId(secret),
        share,
        bit,
    }
}

/// A combinational design whose probes observe only primary inputs:
/// secret 0 has two bits in two shares, secret 1 one bit in three
/// shares, plus two masks and a control. Its probes enumerate one to
/// eight free variables (up to 256 assignments), so most batches fill
/// only part of the 64 lanes.
fn small_design() -> Netlist {
    let mut builder = NetlistBuilder::new("small");
    let a0 = builder.input("a0", share(0, 0, 0));
    let a1 = builder.input("a1", share(0, 1, 0));
    let b0 = builder.input("b0", share(0, 0, 1));
    let b1 = builder.input("b1", share(0, 1, 1));
    let t0 = builder.input("t0", share(1, 0, 0));
    let t1 = builder.input("t1", share(1, 1, 0));
    let t2 = builder.input("t2", share(1, 2, 0));
    let r0 = builder.input("r0", SignalRole::Mask);
    let r1 = builder.input("r1", SignalRole::Mask);
    let enable = builder.input("en", SignalRole::Control);
    let masked = builder.and2(a0, r0);
    builder.output("masked", masked);
    let recombined = builder.xor2(a0, a1);
    builder.output("recombined", recombined);
    let blinded = builder.xor2(b0, r1);
    let gated = builder.and2(blinded, t0);
    builder.output("gated", gated);
    let partial = builder.xor2(t0, t1);
    let mixed = builder.xor2(partial, a0);
    builder.output("mixed", mixed);
    let full = builder.xor2(partial, t2);
    builder.output("full", full);
    let bits = builder.and2(b0, b1);
    let both = builder.or2(bits, recombined);
    builder.output("both", both);
    let enabled = builder.and2(enable, r1);
    builder.output("enabled", enabled);
    builder.build().expect("valid")
}

/// A verdict with its counterexample's fields inlined.
#[derive(Debug, PartialEq)]
enum Outcome {
    Secure {
        support_bits: usize,
        enumerated: u64,
    },
    Leaky {
        secrets: (String, String),
        observation: u128,
        probabilities: (f64, f64),
        support_bits: usize,
    },
}

impl From<ProbeVerdict> for Outcome {
    fn from(verdict: ProbeVerdict) -> Self {
        match verdict {
            ProbeVerdict::Secure {
                support_bits,
                enumerated,
            } => Outcome::Secure {
                support_bits,
                enumerated,
            },
            ProbeVerdict::Leaky {
                counterexample,
                support_bits,
            } => Outcome::Leaky {
                secrets: (counterexample.secret_a, counterexample.secret_b),
                observation: counterexample.observation,
                probabilities: (counterexample.probability_a, counterexample.probability_b),
                support_bits,
            },
            ProbeVerdict::TooWide { support_bits } => panic!("{support_bits} bits: too wide"),
        }
    }
}

/// The verdict for `set`, computed without the simulator: every
/// observed wire is a primary input, so each observation is a function
/// of the enumerated variables alone. Variables, conditioning order and
/// the ascending (assignment, observation) comparison follow the
/// verifier's definitions.
fn brute_force(netlist: &Netlist, set: &ProbeSet, model: ProbeModel, observe: usize) -> Outcome {
    let cycles: Vec<usize> = match model {
        ProbeModel::Glitch => vec![observe],
        ProbeModel::GlitchTransition => vec![observe, observe - 1],
    };
    let siblings = |secret: SecretId, bit: u8| -> Vec<WireId> {
        netlist
            .shares_of(secret)
            .into_iter()
            .filter(|&(share, share_bit, _)| share >= 1 && share_bit == bit)
            .map(|(_, _, wire)| wire)
            .collect()
    };
    let mut conditioning: Vec<(usize, SecretId, u8)> = Vec::new();
    let mut free: Vec<(usize, WireId)> = Vec::new();
    for &wire in &set.observed {
        for &cycle in &cycles {
            match netlist.role(wire) {
                SignalRole::Share {
                    secret,
                    share: 0,
                    bit,
                } => {
                    conditioning.push((cycle, secret, bit));
                    free.extend(siblings(secret, bit).into_iter().map(|wire| (cycle, wire)));
                }
                SignalRole::Share { .. } | SignalRole::Mask => free.push((cycle, wire)),
                SignalRole::Control | SignalRole::Internal => {}
            }
        }
    }
    conditioning.sort_unstable();
    conditioning.dedup();
    free.sort_unstable();
    free.dedup();

    let value = |assignment: usize, free_values: u64, cycle: usize, wire: WireId| -> u64 {
        let free_bit = |cycle: usize, wire: WireId| {
            free.binary_search(&(cycle, wire))
                .map_or(0, |index| (free_values >> index) & 1)
        };
        match netlist.role(wire) {
            SignalRole::Share {
                secret,
                share: 0,
                bit,
            } => {
                let index = conditioning
                    .binary_search(&(cycle, secret, bit))
                    .expect("conditioned");
                siblings(secret, bit)
                    .into_iter()
                    .fold(((assignment >> index) & 1) as u64, |acc, sibling| {
                        acc ^ free_bit(cycle, sibling)
                    })
            }
            _ => free_bit(cycle, wire),
        }
    };
    let histograms: Vec<BTreeMap<u128, u64>> = (0..1usize << conditioning.len())
        .map(|assignment| {
            let mut histogram = BTreeMap::new();
            for free_values in 0..1u64 << free.len() {
                let mut key = 0u128;
                let mut position = 0;
                for &wire in &set.observed {
                    for &cycle in &cycles {
                        key |= (value(assignment, free_values, cycle, wire) as u128) << position;
                        position += 1;
                    }
                }
                *histogram.entry(key).or_insert(0u64) += 1;
            }
            histogram
        })
        .collect();

    let support_bits = conditioning.len() + free.len();
    let total = (1u64 << free.len()) as f64;
    let describe = |assignment: usize| {
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
    for (assignment, histogram) in histograms.iter().enumerate().skip(1) {
        let baseline = &histograms[0];
        let mut keys: Vec<u128> = baseline.keys().chain(histogram.keys()).copied().collect();
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            let count_a = baseline.get(&key).copied().unwrap_or(0);
            let count_b = histogram.get(&key).copied().unwrap_or(0);
            if count_a != count_b {
                return Outcome::Leaky {
                    secrets: (describe(0), describe(assignment)),
                    observation: key,
                    probabilities: (count_a as f64 / total, count_b as f64 / total),
                    support_bits,
                };
            }
        }
    }
    Outcome::Secure {
        support_bits,
        enumerated: (1u64 << conditioning.len()) << free.len(),
    }
}

#[test]
fn verdicts_match_a_brute_force_histogram_on_partial_batches() {
    let netlist = small_design();
    let cones = StableCones::new(&netlist);
    let sets = enumerate_probe_sets(&netlist, &cones, 1, None, usize::MAX);
    assert!(sets.len() >= 6, "{} sets", sets.len());
    for model in [ProbeModel::Glitch, ProbeModel::GlitchTransition] {
        let observe = 2;
        let verifier = ExactVerifier::with_config(
            &netlist,
            ExactConfig {
                model,
                observe_cycle: observe,
                ..ExactConfig::default()
            },
        );
        let (mut secure, mut leaky) = (0, 0);
        for set in &sets {
            let verdict = verifier.verify_probe(set);
            secure += usize::from(verdict.is_secure());
            leaky += usize::from(verdict.is_leaky());
            assert_eq!(
                Outcome::from(verdict),
                brute_force(&netlist, set, model, observe),
                "{} under {}",
                set.label,
                model.name()
            );
        }
        assert!(secure > 0 && leaky > 0, "{secure} secure, {leaky} leaky");
    }
}
