//! Property-based tests: randomly generated circuits, simulated two
//! ways — the 64-lane bit-parallel engine versus an independent
//! software evaluation of the same DAG — must always agree; and the
//! structural cone analysis must soundly over-approximate real
//! sensitivity (a wire never changes when an input outside its cone
//! flips).

use mmaes_netlist::{
    CellKind, Netlist, NetlistBuilder, SignalRole, StableCones, StableSignal, WireId,
};
use mmaes_sim::{ScalarSimulator, Simulator};
use proptest::prelude::*;

/// A recipe for one random combinational/sequential circuit.
#[derive(Debug, Clone)]
struct CircuitRecipe {
    input_count: usize,
    operations: Vec<(u8, usize, usize)>, // (kind selector, operand a, operand b)
    register_every: usize,
}

fn recipe() -> impl Strategy<Value = CircuitRecipe> {
    (
        2usize..6,
        prop::collection::vec((0u8..7, any::<usize>(), any::<usize>()), 1..40),
        1usize..6,
    )
        .prop_map(|(input_count, operations, register_every)| CircuitRecipe {
            input_count,
            operations,
            register_every,
        })
}

fn build(recipe: &CircuitRecipe) -> (Netlist, Vec<WireId>, Vec<WireId>) {
    let mut builder = NetlistBuilder::new("random");
    let inputs: Vec<WireId> = (0..recipe.input_count)
        .map(|index| builder.input(format!("in{index}"), SignalRole::Control))
        .collect();
    let mut pool = inputs.clone();
    for (position, &(kind, a, b)) in recipe.operations.iter().enumerate() {
        let a = pool[a % pool.len()];
        let b = pool[b % pool.len()];
        let out = match kind {
            0 => builder.and2(a, b),
            1 => builder.or2(a, b),
            2 => builder.xor2(a, b),
            3 => builder.nand2(a, b),
            4 => builder.nor2(a, b),
            5 => builder.xnor2(a, b),
            _ => builder.not(a),
        };
        let out = if position % recipe.register_every == recipe.register_every - 1 {
            builder.register(out)
        } else {
            out
        };
        pool.push(out);
    }
    let outputs: Vec<WireId> = pool.iter().rev().take(4).copied().collect();
    for (index, &wire) in outputs.iter().enumerate() {
        builder.output(format!("out{index}"), wire);
    }
    let netlist = builder
        .build()
        .expect("random recipes are always valid DAGs");
    (netlist, inputs, outputs)
}

/// Independent evaluation: walk cells in topo order with plain bools,
/// keeping register state across cycles.
fn reference_simulate(
    netlist: &Netlist,
    inputs: &[WireId],
    stimulus: &[Vec<bool>],
) -> Vec<Vec<bool>> {
    let mut values = vec![false; netlist.wire_count()];
    let mut register_state = vec![false; netlist.register_count()];
    let mut snapshots = Vec::new();
    for cycle_inputs in stimulus {
        for (&wire, &bit) in inputs.iter().zip(cycle_inputs) {
            values[wire.index()] = bit;
        }
        for (register_id, register) in netlist.registers() {
            values[register.q.index()] = register_state[register_id.index()];
        }
        for &cell_id in netlist.topo_cells() {
            let cell = netlist.cell(cell_id);
            let operands: Vec<bool> = cell
                .inputs
                .iter()
                .map(|input| values[input.index()])
                .collect();
            values[cell.output.index()] = cell.kind.eval(&operands);
        }
        for (register_id, register) in netlist.registers() {
            register_state[register_id.index()] = values[register.d.index()];
        }
        snapshots.push(values.clone());
    }
    snapshots
}

/// A recipe mixing every cell shape the compiled evaluator lowers and
/// levelizes: two-input gates, wide (3–4 input) gates of every
/// negatable kind (accumulate chains, with a trailing `Not` when
/// negated), muxes, buffers, constants, pipeline registers and
/// feedback registers whose output feeds the logic that drives them.
#[derive(Debug, Clone)]
struct WideRecipe {
    input_count: usize,
    feedback_count: usize,
    operations: Vec<(u8, usize, usize, usize, usize)>,
    register_every: usize,
}

fn wide_recipe() -> impl Strategy<Value = WideRecipe> {
    (
        2usize..6,
        0usize..3,
        prop::collection::vec(
            (
                0u8..17,
                any::<usize>(),
                any::<usize>(),
                any::<usize>(),
                any::<usize>(),
            ),
            1..40,
        ),
        1usize..6,
    )
        .prop_map(
            |(input_count, feedback_count, operations, register_every)| WideRecipe {
                input_count,
                feedback_count,
                operations,
                register_every,
            },
        )
}

fn build_wide(recipe: &WideRecipe) -> (Netlist, Vec<WireId>) {
    let mut builder = NetlistBuilder::new("random-wide");
    let inputs: Vec<WireId> = (0..recipe.input_count)
        .map(|index| builder.input(format!("in{index}"), SignalRole::Control))
        .collect();
    let mut pool = inputs.clone();
    let mut feedback = Vec::new();
    for index in 0..recipe.feedback_count {
        let (state, handle) = builder.register_feedback(index % 2 == 1);
        pool.push(state);
        feedback.push(handle);
    }
    for (position, &(kind, a, b, c, d)) in recipe.operations.iter().enumerate() {
        let pick = |selector: usize| pool[selector % pool.len()];
        let (a, b, c, d) = (pick(a), pick(b), pick(c), pick(d));
        let out = match kind {
            0 => builder.cell(CellKind::And, vec![a, b, c]),
            1 => builder.cell(CellKind::Or, vec![a, b, c, d]),
            2 => builder.cell(CellKind::Xor, vec![a, b, c]),
            3 => builder.cell(CellKind::Nand, vec![a, b, c, d]),
            4 => builder.cell(CellKind::Nor, vec![a, b, c]),
            5 => builder.cell(CellKind::Xnor, vec![a, b, c, d]),
            6 => builder.mux(a, b, c),
            7 => builder.buf(a),
            8 => builder.not(a),
            9 => builder.const0(),
            10 => builder.const1(),
            11 => builder.and2(a, b),
            12 => builder.or2(a, b),
            13 => builder.xor2(a, b),
            14 => builder.nand2(a, b),
            15 => builder.nor2(a, b),
            _ => builder.xnor2(a, b),
        };
        let out = if position % recipe.register_every == recipe.register_every - 1 {
            builder.register(out)
        } else {
            out
        };
        pool.push(out);
    }
    // Close each feedback loop on one of the last wires built.
    for (index, handle) in feedback.into_iter().enumerate() {
        builder.set_register_d(handle, pool[pool.len() - 1 - index]);
    }
    for (index, &wire) in pool.iter().rev().take(4).enumerate() {
        builder.output(format!("out{index}"), wire);
    }
    let netlist = builder.build().expect("wide recipes are always valid DAGs");
    (netlist, inputs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The levelized compiled evaluator and the tree-walking interpreter
    /// must agree on every wire and register of every cycle, across the
    /// full cell-kind alphabet (two-input and wide gates, mux, buf, not,
    /// constants) and through feedback registers.
    #[test]
    fn compiled_evaluator_matches_the_interpreter(recipe in wide_recipe(), seed in any::<u64>()) {
        let (netlist, inputs) = build_wide(&recipe);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

        let mut compiled = Simulator::new(&netlist);
        let mut interpreted = Simulator::interpreted(&netlist);
        for cycle in 0..8 {
            for &input in &inputs {
                let word: u64 = rng.gen();
                compiled.set_input(input, word);
                interpreted.set_input(input, word);
            }
            if cycle % 3 == 2 {
                compiled.eval();
                interpreted.eval();
            } else {
                compiled.step();
                interpreted.step();
            }
            for wire in netlist.wires() {
                prop_assert_eq!(
                    compiled.value(wire),
                    interpreted.value(wire),
                    "cycle {} wire {}",
                    cycle,
                    netlist.wire_name(wire)
                );
                prop_assert_eq!(
                    compiled.prev_value(wire),
                    interpreted.prev_value(wire),
                    "cycle {} wire {} (prev)",
                    cycle,
                    netlist.wire_name(wire)
                );
            }
        }
    }

    #[test]
    fn bit_parallel_simulation_matches_reference(recipe in recipe(), seed in any::<u64>()) {
        let (netlist, inputs, _) = build(&recipe);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let stimulus: Vec<Vec<bool>> =
            (0..6).map(|_| (0..inputs.len()).map(|_| rng.gen()).collect()).collect();

        let snapshots = reference_simulate(&netlist, &inputs, &stimulus);

        let mut sim = ScalarSimulator::new(&netlist);
        for (cycle, cycle_inputs) in stimulus.iter().enumerate() {
            for (&wire, &bit) in inputs.iter().zip(cycle_inputs) {
                sim.set(wire, bit);
            }
            sim.eval();
            for wire in netlist.wires() {
                prop_assert_eq!(
                    sim.get(wire),
                    snapshots[cycle][wire.index()],
                    "cycle {} wire {}",
                    cycle,
                    netlist.wire_name(wire)
                );
            }
            sim.clock();
        }
    }

    #[test]
    fn cones_soundly_bound_combinational_sensitivity(recipe in recipe(), seed in any::<u64>()) {
        let (netlist, inputs, outputs) = build(&recipe);
        let cones = StableCones::new(&netlist);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

        // Two assignments differing in exactly one input.
        let base: Vec<bool> = (0..inputs.len()).map(|_| rng.gen()).collect();
        let flip_index = rng.gen_range(0..inputs.len());
        let mut flipped = base.clone();
        flipped[flip_index] = !flipped[flip_index];

        let mut sim = Simulator::new(&netlist);
        let run = |sim: &mut Simulator, assignment: &[bool]| -> Vec<bool> {
            sim.reset();
            for (&wire, &bit) in inputs.iter().zip(assignment) {
                sim.set_input(wire, if bit { 1 } else { 0 });
            }
            sim.eval();
            outputs.iter().map(|&wire| sim.value_bit(wire, 0)).collect()
        };
        let before = run(&mut sim, &base);
        let after = run(&mut sim, &flipped);

        for (position, &output) in outputs.iter().enumerate() {
            if before[position] != after[position] {
                // A change implies the flipped input is in the cone.
                let in_cone = cones
                    .signals_of(output)
                    .contains(&StableSignal::Input(inputs[flip_index]));
                prop_assert!(in_cone, "output {} changed but cone misses the input", position);
            }
        }
    }

    #[test]
    fn logic_depth_is_consistent_with_cone_size(recipe in recipe()) {
        let (netlist, _, _) = build(&recipe);
        let depths = netlist.logic_depths();
        let cones = StableCones::new(&netlist);
        for wire in netlist.wires() {
            // Depth-0 wires are stable signals: singleton cones.
            if depths[wire.index()] == 0 && !matches!(netlist.origin(wire), mmaes_netlist::WireOrigin::Cell(_)) {
                prop_assert_eq!(cones.cone_size(wire), 1);
            }
        }
        // Cell-kind sanity: the builder only emitted supported kinds.
        for (_, cell) in netlist.cells() {
            prop_assert!(!matches!(cell.kind, CellKind::Mux | CellKind::Buf));
        }
    }
}
