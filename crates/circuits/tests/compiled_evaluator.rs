//! The levelized compiled evaluator against the interpreter on the
//! paper's own netlists: the Eq. 6 and Eq. 9 Kronecker cores and the
//! full Eq. 9 S-box. Random words drive every primary input each cycle,
//! and both engines must agree on every wire's current and previous
//! value, cycle by cycle, and on the work they account.

use mmaes_circuits::{build_kronecker, build_masked_sbox, SboxOptions};
use mmaes_masking::KroneckerRandomness;
use mmaes_netlist::Netlist;
use mmaes_sim::Simulator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CYCLES: usize = 12;

fn assert_engines_agree(netlist: &Netlist, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut compiled = Simulator::new(netlist);
    let mut interpreted = Simulator::interpreted(netlist);
    for cycle in 0..CYCLES {
        for &input in netlist.inputs() {
            let word: u64 = rng.gen();
            compiled.set_input(input, word);
            interpreted.set_input(input, word);
        }
        compiled.step();
        interpreted.step();
        for wire in netlist.wires() {
            assert_eq!(
                (compiled.value(wire), compiled.prev_value(wire)),
                (interpreted.value(wire), interpreted.prev_value(wire)),
                "{}: cycle {cycle}, wire {}",
                netlist.name(),
                netlist.wire_name(wire)
            );
        }
    }
    assert_eq!(compiled.counters(), interpreted.counters());
}

#[test]
fn kronecker_cores_evaluate_identically_on_both_engines() {
    for (schedule, seed) in [
        (KroneckerRandomness::de_meyer_eq6(), 6),
        (KroneckerRandomness::proposed_eq9(), 9),
    ] {
        let circuit = build_kronecker(&schedule).expect("paper schedules build");
        assert_engines_agree(&circuit.netlist, seed);
    }
}

#[test]
fn eq9_sbox_evaluates_identically_on_both_engines() {
    let circuit = build_masked_sbox(SboxOptions {
        schedule: KroneckerRandomness::proposed_eq9(),
        ..SboxOptions::default()
    })
    .expect("the Eq. 9 S-box builds");
    assert_engines_agree(&circuit.netlist, 99);
}
