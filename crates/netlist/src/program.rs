//! Levelized compilation of the combinational logic.
//!
//! The simulator's interpreted hot loop pays, per cell per cycle, for a
//! bounds-checked gather of the input wires and a dynamic dispatch on
//! [`CellKind`]. A [`CellProgram`] pays those costs once, at
//! construction: the topological cell order is lowered into
//! fixed-arity instructions with pre-resolved wire indices, and
//! register-output copies are inlined as a prologue.
//!
//! The instructions are then *levelized*: each gets a level one above
//! the highest level of the slots it reads or writes (primary inputs,
//! register outputs and never-written slots are level 0), and the
//! program is sorted by `(level, opcode)`. No instruction reads or
//! writes a slot that another instruction of its level writes, so each
//! stretch of one opcode inside a level is a *run* of independent
//! gates. Executing a cycle dispatches once per run and then loops over
//! the run's operands with no branch on the opcode, and no gate waits
//! on the store of the gate before it.
//!
//! # Lowering
//!
//! * Fixed-arity kinds (`Not`, `Buf`, `Mux`, constants) and two-input
//!   variadic kinds map to one instruction each.
//! * A variadic cell with more than two inputs becomes an accumulate
//!   chain writing its own output slot: `out = op(in0, in1)` followed by
//!   `out = op(out, in_i)` for the remaining inputs. Every link reads or
//!   writes `out`, so each sits one level above the last, and every
//!   reader of `out` sits above the whole chain: the intermediate values
//!   are never observable.
//! * Wide *negated* kinds (`Nand`, `Nor`, `Xnor`) chain the positive
//!   operation and append one in-place `Not` on the output slot, one
//!   level above the chain.

use crate::kind::CellKind;
use crate::netlist::Netlist;

/// A fixed-arity operation over 64-lane words (one bit per trace).
///
/// The declaration order is the order of the runs within a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    /// `out = a & b`
    And2,
    /// `out = a | b`
    Or2,
    /// `out = !(a & b)`
    Nand2,
    /// `out = !(a | b)`
    Nor2,
    /// `out = a ^ b`
    Xor2,
    /// `out = !(a ^ b)`
    Xnor2,
    /// `out = !a`
    Not,
    /// `out = a`
    Copy,
    /// `out = (a & c) | (!a & b)` — inputs `[sel, d0, d1]`
    Mux,
    /// `out = 0`
    Const0,
    /// `out = !0`
    Const1,
}

impl Op {
    /// How many of the operands `a`, `b`, `c` the operation reads.
    fn arity(self) -> usize {
        match self {
            Op::Const0 | Op::Const1 => 0,
            Op::Not | Op::Copy => 1,
            Op::Mux => 3,
            Op::And2 | Op::Or2 | Op::Nand2 | Op::Nor2 | Op::Xor2 | Op::Xnor2 => 2,
        }
    }
}

/// One lowered instruction's pre-resolved wire indices. Unused operands
/// are 0 (never read for the ops that ignore them); the opcode is held
/// by the [`Run`] the instruction belongs to.
#[derive(Debug, Clone, Copy)]
struct Instr {
    out: u32,
    a: u32,
    b: u32,
    c: u32,
}

impl Instr {
    /// The slots `op` reads.
    fn reads(&self, op: Op) -> impl Iterator<Item = u32> {
        [self.a, self.b, self.c].into_iter().take(op.arity())
    }
}

/// A stretch of consecutive instructions sharing one opcode and one
/// level: no instruction of a run reads or writes another's output.
#[derive(Debug, Clone, Copy)]
struct Run {
    op: Op,
    len: u32,
}

/// The combinational logic of a [`Netlist`], compiled to runs of
/// independent single-opcode instructions (see the
/// [module docs](self)).
///
/// A program borrows nothing: it holds only indices into the wire-value
/// and register-state vectors the caller supplies to [`CellProgram::run`],
/// so it can be built once per netlist and shared or cloned freely
/// (e.g. one per worker thread).
#[derive(Debug, Clone)]
pub struct CellProgram {
    /// `(value slot, register slot)` pairs: the register-output copies
    /// executed before the runs.
    register_copies: Vec<(u32, u32)>,
    /// Every instruction, sorted by `(level, opcode)`.
    instructions: Vec<Instr>,
    /// The partition of `instructions` into runs, in order.
    runs: Vec<Run>,
    cell_count: usize,
}

impl CellProgram {
    /// Compiles `netlist`'s combinational cells into levelized runs.
    pub fn compile(netlist: &Netlist) -> Self {
        let register_copies = netlist
            .registers()
            .map(|(register_id, register)| (register.q.index() as u32, register_id.index() as u32))
            .collect();
        let stream = lower(netlist);
        let mut slot_level = vec![0u32; netlist.wire_count()];
        let mut leveled: Vec<(u32, Op, Instr)> = stream
            .into_iter()
            .map(|(op, instr)| {
                let level = 1 + instr
                    .reads(op)
                    .chain([instr.out])
                    .map(|slot| slot_level[slot as usize])
                    .fold(0, u32::max);
                slot_level[instr.out as usize] = level;
                (level, op, instr)
            })
            .collect();
        // A run's gates are independent, so any order within it is
        // correct; the stable sort keeps the topological one.
        leveled.sort_by_key(|&(level, op, _)| (level, op));
        let runs = leveled
            .chunk_by(|x, y| (x.0, x.1) == (y.0, y.1))
            .map(|run| Run {
                op: run[0].1,
                len: run.len() as u32,
            })
            .collect();
        CellProgram {
            register_copies,
            instructions: leveled.into_iter().map(|(_, _, instr)| instr).collect(),
            runs,
            cell_count: netlist.topo_cells().len(),
        }
    }

    /// Number of netlist cells the program covers (the work unit the
    /// simulator's `cell_evals` counter is denominated in).
    pub fn cell_count(&self) -> usize {
        self.cell_count
    }

    /// Number of lowered instructions (≥ [`CellProgram::cell_count`];
    /// wide cells expand into chains).
    pub fn instruction_count(&self) -> usize {
        self.instructions.len()
    }

    /// Executes one combinational evaluation: copies the register state
    /// into the register-output slots of `values`, then executes the
    /// runs over `values`.
    ///
    /// # Panics
    ///
    /// Panics (via slice indexing) if `values` or `register_state` are
    /// shorter than the netlist the program was compiled from expects.
    pub fn run(&self, values: &mut [u64], register_state: &[u64]) {
        for &(slot, register) in &self.register_copies {
            values[slot as usize] = register_state[register as usize];
        }
        let mut rest = self.instructions.as_slice();
        for run in &self.runs {
            let (batch, tail) = rest.split_at(run.len as usize);
            rest = tail;
            match run.op {
                Op::And2 => binary(values, batch, |a, b| a & b),
                Op::Or2 => binary(values, batch, |a, b| a | b),
                Op::Nand2 => binary(values, batch, |a, b| !(a & b)),
                Op::Nor2 => binary(values, batch, |a, b| !(a | b)),
                Op::Xor2 => binary(values, batch, |a, b| a ^ b),
                Op::Xnor2 => binary(values, batch, |a, b| !(a ^ b)),
                Op::Not => unary(values, batch, |a| !a),
                Op::Copy => unary(values, batch, |a| a),
                Op::Mux => {
                    for instr in batch {
                        let select = values[instr.a as usize];
                        values[instr.out as usize] = (select & values[instr.c as usize])
                            | (!select & values[instr.b as usize]);
                    }
                }
                Op::Const0 => batch
                    .iter()
                    .for_each(|instr| values[instr.out as usize] = 0),
                Op::Const1 => batch
                    .iter()
                    .for_each(|instr| values[instr.out as usize] = u64::MAX),
            }
        }
    }
}

/// One run of a one-operand opcode.
#[inline(always)]
fn unary(values: &mut [u64], batch: &[Instr], op: impl Fn(u64) -> u64) {
    for instr in batch {
        values[instr.out as usize] = op(values[instr.a as usize]);
    }
}

/// One run of a two-operand opcode.
#[inline(always)]
fn binary(values: &mut [u64], batch: &[Instr], op: impl Fn(u64, u64) -> u64) {
    for instr in batch {
        values[instr.out as usize] = op(values[instr.a as usize], values[instr.b as usize]);
    }
}

/// Lowers `netlist`'s cells, in topological order, into the
/// instruction stream the levelizer sorts.
fn lower(netlist: &Netlist) -> Vec<(Op, Instr)> {
    let mut stream = Vec::with_capacity(netlist.cell_count());
    let mut inputs = Vec::new();
    for &cell_id in netlist.topo_cells() {
        let cell = netlist.cell(cell_id);
        inputs.clear();
        inputs.extend(cell.inputs.iter().map(|wire| wire.index() as u32));
        lower_cell(cell.kind, &inputs, cell.output.index() as u32, &mut stream);
    }
    stream
}

/// Lowers one cell into `stream` (see the [module docs](self)).
fn lower_cell(kind: CellKind, inputs: &[u32], out: u32, stream: &mut Vec<(Op, Instr)>) {
    let mut push = |op: Op, a: u32, b: u32, c: u32| stream.push((op, Instr { out, a, b, c }));
    match kind {
        CellKind::Not => push(Op::Not, inputs[0], 0, 0),
        CellKind::Buf => push(Op::Copy, inputs[0], 0, 0),
        CellKind::Mux => push(Op::Mux, inputs[0], inputs[1], inputs[2]),
        CellKind::Const0 => push(Op::Const0, 0, 0, 0),
        CellKind::Const1 => push(Op::Const1, 0, 0, 0),
        CellKind::And
        | CellKind::Or
        | CellKind::Xor
        | CellKind::Nand
        | CellKind::Nor
        | CellKind::Xnor => {
            let (positive, fused, negated) = match kind {
                CellKind::And => (Op::And2, Op::And2, false),
                CellKind::Or => (Op::Or2, Op::Or2, false),
                CellKind::Xor => (Op::Xor2, Op::Xor2, false),
                CellKind::Nand => (Op::And2, Op::Nand2, true),
                CellKind::Nor => (Op::Or2, Op::Nor2, true),
                CellKind::Xnor => (Op::Xor2, Op::Xnor2, true),
                _ => unreachable!(),
            };
            if inputs.len() == 2 {
                push(fused, inputs[0], inputs[1], 0);
                return;
            }
            // Accumulate chain through the output slot; the levelizer
            // keeps its links, and the trailing `Not`, in order.
            push(positive, inputs[0], inputs[1], 0);
            for &input in &inputs[2..] {
                push(positive, out, input, 0);
            }
            if negated {
                push(Op::Not, out, 0, 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::netlist::SignalRole;

    /// Runs one eval both ways and compares every wire.
    fn assert_program_matches_interpreter(netlist: &Netlist, inputs: &[(crate::WireId, u64)]) {
        let wires = netlist.wire_count();
        let registers = vec![0u64; netlist.register_count()];
        let mut interpreted = vec![0u64; wires];
        let mut compiled = vec![0u64; wires];
        for &(wire, word) in inputs {
            interpreted[wire.index()] = word;
            compiled[wire.index()] = word;
        }
        for &cell_id in netlist.topo_cells() {
            let cell = netlist.cell(cell_id);
            let gathered: Vec<u64> = cell
                .inputs
                .iter()
                .map(|input| interpreted[input.index()])
                .collect();
            interpreted[cell.output.index()] = cell.kind.eval_wide(&gathered);
        }
        CellProgram::compile(netlist).run(&mut compiled, &registers);
        assert_eq!(compiled, interpreted);
    }

    #[test]
    fn two_input_gates_lower_to_single_instructions() {
        let mut builder = NetlistBuilder::new("pairs");
        let a = builder.input("a", SignalRole::Control);
        let b = builder.input("b", SignalRole::Control);
        let and = builder.and2(a, b);
        let nand = builder.nand2(a, b);
        let xor = builder.xor2(a, b);
        builder.output("and", and);
        builder.output("nand", nand);
        builder.output("xor", xor);
        let netlist = builder.build().expect("valid");
        let program = CellProgram::compile(&netlist);
        assert_eq!(program.cell_count(), 3);
        assert_eq!(program.instruction_count(), 3);
        assert_program_matches_interpreter(&netlist, &[(a, 0xdead_beef), (b, 0x0f0f_f0f0)]);
    }

    #[test]
    fn wide_negated_gates_chain_and_invert() {
        let mut builder = NetlistBuilder::new("wide");
        let a = builder.input("a", SignalRole::Control);
        let b = builder.input("b", SignalRole::Control);
        let c = builder.input("c", SignalRole::Control);
        let d = builder.input("d", SignalRole::Control);
        let nand4 = builder.cell(CellKind::Nand, vec![a, b, c, d]);
        let xnor3 = builder.cell(CellKind::Xnor, vec![a, b, c]);
        let or3 = builder.cell(CellKind::Or, vec![b, c, d]);
        builder.output("nand4", nand4);
        builder.output("xnor3", xnor3);
        builder.output("or3", or3);
        let netlist = builder.build().expect("valid");
        let program = CellProgram::compile(&netlist);
        // nand4 → and,and,and,not (4); xnor3 → xor,xor,not (3); or3 → or,or (2)
        assert_eq!(program.cell_count(), 3);
        assert_eq!(program.instruction_count(), 9);
        assert_program_matches_interpreter(
            &netlist,
            &[(a, u64::MAX), (b, 0xffff_0000), (c, 0b1010), (d, 0b1100)],
        );
    }

    #[test]
    fn register_copies_are_inlined_as_a_prologue() {
        let mut builder = NetlistBuilder::new("reg");
        let d = builder.input("d", SignalRole::Control);
        let q = builder.register(d);
        let n = builder.not(q);
        builder.output("n", n);
        let netlist = builder.build().expect("valid");
        let program = CellProgram::compile(&netlist);
        let mut values = vec![0u64; netlist.wire_count()];
        program.run(&mut values, &[0x1234]);
        assert_eq!(values[q.index()], 0x1234);
        assert_eq!(values[n.index()], !0x1234);
    }

    /// For every write of the stream, in execution order, keyed by
    /// `(slot, how many writes that slot had before)`: the opcode and
    /// the same key for each slot read. Two streams with equal maps
    /// compute the same values.
    fn dataflow(stream: impl IntoIterator<Item = (Op, Instr)>) -> BTreeMap<(u32, u32), Dataflow> {
        let mut writes: BTreeMap<u32, u32> = BTreeMap::new();
        let mut edges = BTreeMap::new();
        for (op, instr) in stream {
            let version = |slot: u32| (slot, writes.get(&slot).copied().unwrap_or(0));
            let reads = instr.reads(op).map(version).collect();
            edges.insert(version(instr.out), (op, reads));
            *writes.entry(instr.out).or_insert(0) += 1;
        }
        edges
    }

    type Dataflow = (Op, Vec<(u32, u32)>);

    #[test]
    fn levelized_runs_are_independent_and_keep_the_dataflow() {
        let mut builder = NetlistBuilder::new("levels");
        let a = builder.input("a", SignalRole::Control);
        let b = builder.input("b", SignalRole::Control);
        let c = builder.input("c", SignalRole::Control);
        let d = builder.input("d", SignalRole::Control);
        let (state, handle) = builder.register_feedback(false);
        let one = builder.const1();
        let xor = builder.xor2(a, state);
        let and = builder.and2(b, c);
        let and_cd = builder.and2(c, d);
        // Wide chains, one with a trailing `Not`, reading and read by
        // two-input gates at several depths.
        let nand4 = builder.cell(CellKind::Nand, vec![xor, and, c, d]);
        let or3 = builder.cell(CellKind::Or, vec![a, nand4, one]);
        let xnor3 = builder.cell(CellKind::Xnor, vec![xor, d, or3]);
        let mux = builder.mux(xnor3, and_cd, nand4);
        let nor = builder.nor2(mux, or3);
        builder.set_register_d(handle, nor);
        builder.output("nor", nor);
        builder.output("xnor3", xnor3);
        let netlist = builder.build().expect("valid");
        let program = CellProgram::compile(&netlist);

        // Run by run: no instruction touches a slot that another
        // instruction of its own run writes.
        let mut written_by_run = vec![None; netlist.wire_count()];
        let mut executed = Vec::new();
        let mut rest = program.instructions.as_slice();
        for (index, run) in program.runs.iter().enumerate() {
            let (batch, tail) = rest.split_at(run.len as usize);
            rest = tail;
            for instr in batch {
                for slot in instr.reads(run.op).chain([instr.out]) {
                    assert_ne!(
                        written_by_run[slot as usize],
                        Some(index),
                        "{run:?} {instr:?}"
                    );
                }
            }
            for instr in batch {
                written_by_run[instr.out as usize] = Some(index);
                executed.push((run.op, *instr));
            }
        }
        assert!(rest.is_empty());
        // The two level-1 ANDs share a run.
        assert!(program.runs.len() < program.instruction_count());
        // Every read sees the write it saw in topological order, so
        // chain links and their trailing `Not` keep their order.
        assert_eq!(dataflow(executed), dataflow(lower(&netlist)));
        assert_program_matches_interpreter(
            &netlist,
            &[
                (a, 0x0123_4567),
                (b, !0x00ff),
                (c, 0xf0f0_f0f0),
                (d, 0x3c3c),
            ],
        );
    }

    #[test]
    fn mux_and_constants_lower_correctly() {
        let mut builder = NetlistBuilder::new("mux");
        let sel = builder.input("sel", SignalRole::Control);
        let d0 = builder.input("d0", SignalRole::Control);
        let d1 = builder.input("d1", SignalRole::Control);
        let out = builder.mux(sel, d0, d1);
        builder.output("out", out);
        let netlist = builder.build().expect("valid");
        assert_program_matches_interpreter(&netlist, &[(sel, 0xff00), (d0, 0xaaaa), (d1, 0x5555)]);
    }
}
