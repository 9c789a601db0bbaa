//! Cycle-accurate simulation of gate-level netlists.
//!
//! The [`Simulator`] evaluates a [`Netlist`] one clock cycle at a time.
//! It is *bit-parallel*: every wire holds a 64-bit word, one bit per
//! independent trace, so a single pass over the cells simulates 64
//! traces. This is what makes million-trace PROLEAD-style campaigns and
//! exhaustive SILVER-style enumerations tractable on a laptop.
//!
//! The simulator keeps the previous cycle's wire values, which is exactly
//! the extra information the *transition*-extended probing model needs
//! (a probe observes a stable signal at cycles `t-1` and `t`).
//!
//! # Cycle protocol
//!
//! 1. [`Simulator::set_input`] for every primary input (or the bus helpers),
//! 2. [`Simulator::eval`] to propagate through the combinational cells,
//! 3. observe wire values with [`Simulator::value`] / [`Simulator::prev_value`],
//! 4. [`Simulator::clock`] to latch registers and advance the cycle.
//!
//! [`Simulator::step`] combines `eval` + `clock`.
//!
//! # Example
//!
//! ```
//! use mmaes_netlist::{NetlistBuilder, SignalRole};
//! use mmaes_sim::Simulator;
//!
//! let mut builder = NetlistBuilder::new("reg");
//! let d = builder.input("d", SignalRole::Control);
//! let q = builder.register(d);
//! builder.output("q", q);
//! let netlist = builder.build()?;
//!
//! let mut sim = Simulator::new(&netlist);
//! sim.set_input(d, u64::MAX);
//! sim.step(); // q captures 1 for the *next* cycle
//! sim.set_input(d, 0);
//! sim.eval();
//! assert_eq!(sim.value(q), u64::MAX); // register now shows last cycle's d
//! # Ok::<(), mmaes_netlist::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod waveform;

pub use waveform::Waveform;

use mmaes_netlist::{CellProgram, Netlist, NetlistError, WireId, WireOrigin};

/// Number of independent traces simulated in parallel (one per bit).
pub const LANES: usize = 64;

/// Typed error for the fallible simulator entry points.
///
/// The panicking methods ([`Simulator::set_input`] and friends) panic
/// with this error's [`Display`] message, so both spellings report
/// identically.
///
/// [`Display`]: core::fmt::Display
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A wire that is not a primary input was driven.
    NotAnInput {
        /// Name of the offending wire.
        name: String,
    },
    /// A lane index at or beyond [`LANES`] was used.
    LaneOutOfRange {
        /// The offending lane index.
        lane: usize,
    },
    /// The netlist failed structural validation (see
    /// [`Netlist::validate`](mmaes_netlist::Netlist::validate)).
    InvalidNetlist(NetlistError),
}

impl core::fmt::Display for SimError {
    fn fmt(&self, formatter: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::NotAnInput { name } => {
                write!(formatter, "wire `{name}` is not a primary input")
            }
            SimError::LaneOutOfRange { lane } => write!(formatter, "lane {lane} out of range"),
            SimError::InvalidNetlist(error) => write!(formatter, "invalid netlist: {error}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::InvalidNetlist(error) => Some(error),
            _ => None,
        }
    }
}

impl From<NetlistError> for SimError {
    fn from(error: NetlistError) -> Self {
        SimError::InvalidNetlist(error)
    }
}

/// Monotonic work counters for one [`Simulator`].
///
/// Counters accumulate over the simulator's whole lifetime — they are
/// *not* cleared by [`Simulator::reset`], so a campaign that resets the
/// pipeline between trace batches still sees its total work. Because
/// reset never rewinds them, a snapshot taken at any point stays a
/// valid baseline: campaigns wanting per-batch (or per-checkpoint)
/// figures should snapshot [`Simulator::counters`] before the batch and
/// subtract afterwards with [`SimStats::delta_since`], then convert the
/// delta into throughput with [`SimStats::rates`].
///
/// ```
/// # use mmaes_netlist::{NetlistBuilder, SignalRole};
/// # use mmaes_sim::Simulator;
/// # let mut builder = NetlistBuilder::new("t");
/// # let d = builder.input("d", SignalRole::Control);
/// # let q = builder.register(d);
/// # builder.output("q", q);
/// # let netlist = builder.build()?;
/// # let mut sim = Simulator::new(&netlist);
/// let before = sim.counters();
/// sim.step();
/// sim.reset(); // does not disturb the baseline
/// sim.step();
/// let delta = sim.counters().delta_since(before);
/// assert_eq!(delta.cycles, 2);
/// let rates = delta.rates(0.5); // cycles/cell-evals per second
/// assert_eq!(rates.cycles_per_sec, 4.0);
/// # Ok::<(), mmaes_netlist::BuildError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Clock cycles latched ([`Simulator::clock`] calls).
    pub cycles: u64,
    /// Combinational cell evaluations (cells × [`Simulator::eval`] calls).
    pub cell_evals: u64,
}

impl SimStats {
    /// The work done since an `earlier` snapshot of the same simulator
    /// (saturating, so a stale or foreign snapshot yields 0 rather than
    /// wrapping).
    pub fn delta_since(self, earlier: SimStats) -> SimStats {
        SimStats {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            cell_evals: self.cell_evals.saturating_sub(earlier.cell_evals),
        }
    }

    /// Converts a (delta) counter reading into throughput over
    /// `elapsed_secs` of wall time. Non-positive or non-finite elapsed
    /// time yields zero rates, so callers can feed a raw stopwatch
    /// reading without guarding the startup instant.
    pub fn rates(self, elapsed_secs: f64) -> SimRates {
        if elapsed_secs > 0.0 && elapsed_secs.is_finite() {
            SimRates {
                cycles_per_sec: self.cycles as f64 / elapsed_secs,
                cell_evals_per_sec: self.cell_evals as f64 / elapsed_secs,
            }
        } else {
            SimRates::default()
        }
    }
}

/// Simulator throughput over an interval (see [`SimStats::rates`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimRates {
    /// Clock cycles per second.
    pub cycles_per_sec: f64,
    /// Combinational cell evaluations per second.
    pub cell_evals_per_sec: f64,
}

/// A bit-parallel, cycle-accurate netlist simulator.
///
/// See the [crate-level documentation](crate) for the cycle protocol.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    values: Vec<u64>,
    prev_values: Vec<u64>,
    register_state: Vec<u64>,
    cycle: u64,
    stats: SimStats,
    program: Option<CellProgram>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with registers at their initial values and all
    /// inputs at 0. The netlist's cells are compiled once into a
    /// levelized [`CellProgram`]: fixed-arity instructions sorted by
    /// logic level and opcode, so each `eval` runs, level by level, one
    /// branch-free loop per stretch of independent same-opcode gates,
    /// without allocating.
    pub fn new(netlist: &'a Netlist) -> Self {
        Simulator::with_program(netlist, Some(CellProgram::compile(netlist)))
    }

    /// Creates a simulator on the interpreted reference engine: each
    /// `eval` walks the cells, gathers inputs and dispatches on
    /// [`mmaes_netlist::CellKind`]. Bit-exact with [`Simulator::new`] on
    /// every wire; it exists for differential tests against the
    /// compiled program.
    pub fn interpreted(netlist: &'a Netlist) -> Self {
        Simulator::with_program(netlist, None)
    }

    fn with_program(netlist: &'a Netlist, program: Option<CellProgram>) -> Self {
        let mut simulator = Simulator {
            netlist,
            values: vec![0; netlist.wire_count()],
            prev_values: vec![0; netlist.wire_count()],
            register_state: vec![0; netlist.register_count()],
            cycle: 0,
            stats: SimStats::default(),
            program,
        };
        simulator.reset();
        simulator
    }

    /// Like [`Simulator::new`], but validates the netlist's structural
    /// invariants first — use before committing to a long campaign on a
    /// netlist that did not come straight from the builder (e.g. after a
    /// fault-injection edit).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidNetlist`] wrapping the first violated invariant.
    pub fn try_new(netlist: &'a Netlist) -> Result<Self, SimError> {
        netlist.validate()?;
        Ok(Simulator::new(netlist))
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The number of completed clock cycles since the last reset.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Lifetime work counters (survive [`Simulator::reset`]; see the
    /// [`SimStats`] docs for the snapshot/delta protocol).
    pub fn counters(&self) -> SimStats {
        self.stats
    }

    /// Resets registers to their initial values and clears all wires.
    pub fn reset(&mut self) {
        self.values.fill(0);
        self.prev_values.fill(0);
        for (register_id, register) in self.netlist.registers() {
            self.register_state[register_id.index()] = if register.init { u64::MAX } else { 0 };
        }
        self.cycle = 0;
    }

    fn require_input(&self, wire: WireId) -> Result<(), SimError> {
        if matches!(self.netlist.origin(wire), WireOrigin::Input) {
            Ok(())
        } else {
            Err(SimError::NotAnInput {
                name: self.netlist.wire_name(wire).to_owned(),
            })
        }
    }

    /// Sets a primary input for all 64 lanes at once.
    ///
    /// # Panics
    ///
    /// Panics if `wire` is not a primary input.
    pub fn set_input(&mut self, wire: WireId, word: u64) {
        if !matches!(self.netlist.origin(wire), WireOrigin::Input) {
            self.not_an_input(wire);
        }
        self.values[wire.index()] = word;
    }

    /// The panic of [`Simulator::set_input`] on a non-input wire, out of
    /// line so that the check on the hot path is one compare and branch.
    #[cold]
    #[inline(never)]
    fn not_an_input(&self, wire: WireId) -> ! {
        panic!(
            "{}",
            SimError::NotAnInput {
                name: self.netlist.wire_name(wire).to_owned(),
            }
        )
    }

    /// Fallible form of [`Simulator::set_input`].
    ///
    /// # Errors
    ///
    /// [`SimError::NotAnInput`] if `wire` is not a primary input.
    pub fn try_set_input(&mut self, wire: WireId, word: u64) -> Result<(), SimError> {
        self.require_input(wire)?;
        self.values[wire.index()] = word;
        Ok(())
    }

    /// Sets one lane of a primary input.
    ///
    /// # Panics
    ///
    /// Panics if `wire` is not a primary input or `lane >= 64`.
    pub fn set_input_bit(&mut self, wire: WireId, lane: usize, bit: bool) {
        if let Err(error) = self.try_set_input_bit(wire, lane, bit) {
            panic!("{error}");
        }
    }

    /// Fallible form of [`Simulator::set_input_bit`].
    ///
    /// # Errors
    ///
    /// [`SimError::LaneOutOfRange`] if `lane >= 64`,
    /// [`SimError::NotAnInput`] if `wire` is not a primary input.
    pub fn try_set_input_bit(
        &mut self,
        wire: WireId,
        lane: usize,
        bit: bool,
    ) -> Result<(), SimError> {
        if lane >= LANES {
            return Err(SimError::LaneOutOfRange { lane });
        }
        self.require_input(wire)?;
        let mask = 1u64 << lane;
        if bit {
            self.values[wire.index()] |= mask;
        } else {
            self.values[wire.index()] &= !mask;
        }
        Ok(())
    }

    /// Sets a little-endian bus of inputs from an integer, one lane.
    ///
    /// # Panics
    ///
    /// Panics if any wire is not an input or `lane >= 64`.
    pub fn set_bus_lane(&mut self, wires: &[WireId], lane: usize, value: u64) {
        for (bit, &wire) in wires.iter().enumerate() {
            self.set_input_bit(wire, lane, (value >> bit) & 1 == 1);
        }
    }

    /// Sets a little-endian bus of inputs, same value on all lanes.
    pub fn set_bus_all_lanes(&mut self, wires: &[WireId], value: u64) {
        for (bit, &wire) in wires.iter().enumerate() {
            self.set_input(wire, if (value >> bit) & 1 == 1 { u64::MAX } else { 0 });
        }
    }

    /// Sets a bus from 64 per-lane values (`values[lane]`), transposing
    /// into the bit-sliced representation.
    pub fn set_bus_per_lane(&mut self, wires: &[WireId], per_lane: &[u64; LANES]) {
        for (bit, &wire) in wires.iter().enumerate() {
            let mut word = 0u64;
            for (lane, &value) in per_lane.iter().enumerate() {
                word |= ((value >> bit) & 1) << lane;
            }
            self.set_input(wire, word);
        }
    }

    /// Propagates inputs and register state through the combinational
    /// cells. Idempotent until inputs or register state change.
    ///
    /// On a [`Simulator::new`] simulator this executes the levelized
    /// [`CellProgram`]; the interpreted engine walks the cells and
    /// dispatches per kind. Both engines are bit-exact on every wire and
    /// account the same `cell_evals`.
    pub fn eval(&mut self) {
        if let Some(program) = &self.program {
            program.run(&mut self.values, &self.register_state);
        } else {
            self.eval_interpreted();
        }
        self.stats.cell_evals += self.netlist.topo_cells().len() as u64;
    }

    /// The interpreted engine: inputs are gathered into a fixed stack
    /// buffer (netlist cells are almost always ≤ 4 inputs; wider cells
    /// take a cold heap path), then dispatched through
    /// [`mmaes_netlist::CellKind::eval_wide`].
    fn eval_interpreted(&mut self) {
        for (register_id, register) in self.netlist.registers() {
            self.values[register.q.index()] = self.register_state[register_id.index()];
        }
        let mut input_buffer = [0u64; 4];
        for &cell_id in self.netlist.topo_cells() {
            let cell = self.netlist.cell(cell_id);
            let arity = cell.inputs.len();
            let word = if arity <= input_buffer.len() {
                for (slot, input) in input_buffer.iter_mut().zip(&cell.inputs) {
                    *slot = self.values[input.index()];
                }
                cell.kind.eval_wide(&input_buffer[..arity])
            } else {
                let gathered: Vec<u64> = cell
                    .inputs
                    .iter()
                    .map(|input| self.values[input.index()])
                    .collect();
                cell.kind.eval_wide(&gathered)
            };
            self.values[cell.output.index()] = word;
        }
    }

    /// Latches all registers from their D inputs and advances the cycle.
    ///
    /// Call after [`Simulator::eval`]; the current wire values become the
    /// "previous cycle" values observable via [`Simulator::prev_value`].
    pub fn clock(&mut self) {
        for (register_id, register) in self.netlist.registers() {
            self.register_state[register_id.index()] = self.values[register.d.index()];
        }
        self.prev_values.copy_from_slice(&self.values);
        self.cycle += 1;
        self.stats.cycles += 1;
    }

    /// [`Simulator::eval`] followed by [`Simulator::clock`].
    pub fn step(&mut self) {
        self.eval();
        self.clock();
    }

    /// The current (post-`eval`) value of a wire, one bit per lane.
    pub fn value(&self, wire: WireId) -> u64 {
        self.values[wire.index()]
    }

    /// The value a wire had at the end of the previous cycle.
    pub fn prev_value(&self, wire: WireId) -> u64 {
        self.prev_values[wire.index()]
    }

    /// One lane of the current value of a wire.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    pub fn value_bit(&self, wire: WireId, lane: usize) -> bool {
        assert!(lane < LANES, "lane {lane} out of range");
        (self.values[wire.index()] >> lane) & 1 == 1
    }

    /// Reads a little-endian bus on one lane as an integer.
    pub fn bus_lane(&self, wires: &[WireId], lane: usize) -> u64 {
        wires.iter().enumerate().fold(0u64, |acc, (bit, &wire)| {
            acc | ((u64::from(self.value_bit(wire, lane))) << bit)
        })
    }

    /// Reads a little-endian bus across all 64 lanes (`result[lane]`).
    pub fn bus_all_lanes(&self, wires: &[WireId]) -> [u64; LANES] {
        let mut result = [0u64; LANES];
        for (bit, &wire) in wires.iter().enumerate() {
            let word = self.values[wire.index()];
            for (lane, value) in result.iter_mut().enumerate() {
                *value |= ((word >> lane) & 1) << bit;
            }
        }
        result
    }
}

/// Convenience single-trace (scalar) facade over [`Simulator`].
///
/// Uses lane 0 only; handy for functional tests and examples where
/// bit-parallelism is noise.
///
/// # Example
///
/// ```
/// use mmaes_netlist::{NetlistBuilder, SignalRole};
/// use mmaes_sim::ScalarSimulator;
///
/// let mut builder = NetlistBuilder::new("xor");
/// let a = builder.input("a", SignalRole::Control);
/// let b = builder.input("b", SignalRole::Control);
/// let x = builder.xor2(a, b);
/// builder.output("x", x);
/// let netlist = builder.build()?;
///
/// let mut sim = ScalarSimulator::new(&netlist);
/// sim.set(a, true);
/// sim.set(b, false);
/// sim.eval();
/// assert!(sim.get(x));
/// # Ok::<(), mmaes_netlist::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScalarSimulator<'a> {
    inner: Simulator<'a>,
}

impl<'a> ScalarSimulator<'a> {
    /// Creates a scalar simulator over `netlist`.
    pub fn new(netlist: &'a Netlist) -> Self {
        ScalarSimulator {
            inner: Simulator::new(netlist),
        }
    }

    /// Access to the underlying 64-lane simulator.
    pub fn as_wide(&mut self) -> &mut Simulator<'a> {
        &mut self.inner
    }

    /// Sets a primary input bit.
    ///
    /// # Panics
    ///
    /// Panics if `wire` is not a primary input.
    pub fn set(&mut self, wire: WireId, bit: bool) {
        self.inner.set_input(wire, if bit { 1 } else { 0 });
    }

    /// Sets a little-endian input bus from an integer.
    pub fn set_bus(&mut self, wires: &[WireId], value: u64) {
        self.inner.set_bus_lane(wires, 0, value);
    }

    /// Propagates combinational logic.
    pub fn eval(&mut self) {
        self.inner.eval();
    }

    /// Latches registers and advances the cycle.
    pub fn clock(&mut self) {
        self.inner.clock();
    }

    /// `eval` + `clock`.
    pub fn step(&mut self) {
        self.inner.step();
    }

    /// Resets registers and wires.
    pub fn reset(&mut self) {
        self.inner.reset();
    }

    /// Reads a wire.
    pub fn get(&self, wire: WireId) -> bool {
        self.inner.value_bit(wire, 0)
    }

    /// Reads a wire's previous-cycle value.
    pub fn get_prev(&self, wire: WireId) -> bool {
        (self.inner.prev_value(wire) & 1) == 1
    }

    /// Reads a little-endian bus as an integer.
    pub fn bus(&self, wires: &[WireId]) -> u64 {
        self.inner.bus_lane(wires, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmaes_netlist::{NetlistBuilder, SignalRole};

    fn full_adder() -> (Netlist, Vec<WireId>, Vec<WireId>) {
        let mut builder = NetlistBuilder::new("full_adder");
        let a = builder.input("a", SignalRole::Control);
        let b = builder.input("b", SignalRole::Control);
        let cin = builder.input("cin", SignalRole::Control);
        let axb = builder.xor2(a, b);
        let sum = builder.xor2(axb, cin);
        let ab = builder.and2(a, b);
        let axb_cin = builder.and2(axb, cin);
        let cout = builder.or2(ab, axb_cin);
        builder.output("sum", sum);
        builder.output("cout", cout);
        let netlist = builder.build().expect("valid");
        (netlist, vec![a, b, cin], vec![sum, cout])
    }

    #[test]
    fn full_adder_truth_table() {
        let (netlist, inputs, outputs) = full_adder();
        let mut sim = ScalarSimulator::new(&netlist);
        for assignment in 0u64..8 {
            sim.set_bus(&inputs, assignment);
            sim.eval();
            let total = (assignment & 1) + ((assignment >> 1) & 1) + ((assignment >> 2) & 1);
            assert_eq!(sim.bus(&outputs), total, "inputs {assignment:03b}");
        }
    }

    #[test]
    fn wide_simulation_matches_scalar() {
        let (netlist, inputs, outputs) = full_adder();
        let mut wide = Simulator::new(&netlist);
        // Put assignment `lane % 8` on each lane.
        for (bit, &wire) in inputs.iter().enumerate() {
            let mut word = 0u64;
            for lane in 0..LANES {
                if ((lane % 8) >> bit) & 1 == 1 {
                    word |= 1 << lane;
                }
            }
            wide.set_input(wire, word);
        }
        wide.eval();
        for lane in 0..LANES {
            let assignment = (lane % 8) as u64;
            let total = (assignment & 1) + ((assignment >> 1) & 1) + ((assignment >> 2) & 1);
            assert_eq!(wide.bus_lane(&outputs, lane), total, "lane {lane}");
        }
    }

    #[test]
    fn registers_delay_by_one_cycle() {
        let mut builder = NetlistBuilder::new("pipe2");
        let d = builder.input("d", SignalRole::Control);
        let q1 = builder.register(d);
        let q2 = builder.register(q1);
        builder.output("q2", q2);
        let netlist = builder.build().expect("valid");
        let mut sim = ScalarSimulator::new(&netlist);

        let pattern = [true, false, true, true, false, false, true, false];
        let mut seen = Vec::new();
        for &bit in &pattern {
            sim.set(d, bit);
            sim.eval();
            seen.push(sim.get(q2));
            sim.clock();
        }
        // q2 lags d by two cycles; first two outputs are the reset value.
        assert_eq!(&seen[..2], &[false, false]);
        assert_eq!(&seen[2..], &pattern[..pattern.len() - 2]);
    }

    #[test]
    fn prev_value_tracks_last_cycle() {
        let mut builder = NetlistBuilder::new("prev");
        let d = builder.input("d", SignalRole::Control);
        let n = builder.not(d);
        builder.output("n", n);
        let netlist = builder.build().expect("valid");
        let mut sim = Simulator::new(&netlist);

        sim.set_input(d, u64::MAX);
        sim.step();
        sim.set_input(d, 0);
        sim.eval();
        assert_eq!(sim.value(n), u64::MAX);
        assert_eq!(sim.prev_value(n), 0); // last cycle d was 1 so n was 0
    }

    #[test]
    fn register_init_value_is_respected() {
        let mut builder = NetlistBuilder::new("init");
        let d = builder.input("d", SignalRole::Control);
        let q = builder.register_init(d, true);
        builder.output("q", q);
        let netlist = builder.build().expect("valid");
        let mut sim = Simulator::new(&netlist);
        sim.eval();
        assert_eq!(sim.value(q), u64::MAX);
        sim.reset();
        sim.eval();
        assert_eq!(sim.value(q), u64::MAX);
    }

    #[test]
    fn feedback_register_toggles() {
        let mut builder = NetlistBuilder::new("toggle");
        let (state, handle) = builder.register_feedback(false);
        let next = builder.not(state);
        builder.set_register_d(handle, next);
        builder.output("state", state);
        let netlist = builder.build().expect("valid");
        let mut sim = ScalarSimulator::new(&netlist);
        let mut values = Vec::new();
        for _ in 0..4 {
            sim.eval();
            values.push(sim.get(state));
            sim.clock();
        }
        assert_eq!(values, vec![false, true, false, true]);
    }

    #[test]
    fn bus_per_lane_roundtrips() {
        let mut builder = NetlistBuilder::new("bus");
        let bus = builder.input_bus("x", 8, |_| SignalRole::Control);
        let regs = builder.register_bus(&bus);
        builder.output_bus("q", &regs);
        let netlist = builder.build().expect("valid");
        let mut sim = Simulator::new(&netlist);
        let mut per_lane = [0u64; LANES];
        for (lane, value) in per_lane.iter_mut().enumerate() {
            *value = (lane as u64 * 37) & 0xff;
        }
        sim.set_bus_per_lane(&bus, &per_lane);
        sim.eval();
        let read_back = sim.bus_all_lanes(&bus);
        assert_eq!(read_back, per_lane);
    }

    #[test]
    fn compiled_and_interpreted_engines_agree_cycle_by_cycle() {
        let (netlist, inputs, _) = full_adder();
        let mut compiled = Simulator::new(&netlist);
        let mut interpreted = Simulator::interpreted(&netlist);
        let mut state = 0x9c01_ead0_f00d_5eedu64;
        for _ in 0..16 {
            for &wire in &inputs {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                compiled.set_input(wire, state);
                interpreted.set_input(wire, state);
            }
            compiled.step();
            interpreted.step();
            for wire in netlist.wires() {
                assert_eq!(compiled.value(wire), interpreted.value(wire));
                assert_eq!(compiled.prev_value(wire), interpreted.prev_value(wire));
            }
        }
        assert_eq!(compiled.counters(), interpreted.counters());
    }

    #[test]
    fn stats_count_cycles_and_cell_evals_across_resets() {
        let (netlist, inputs, _) = full_adder();
        let cells = netlist.topo_cells().len() as u64;
        let mut sim = Simulator::new(&netlist);
        sim.set_input(inputs[0], u64::MAX);
        sim.step(); // eval + clock
        sim.eval();
        sim.reset();
        let stats = sim.counters();
        assert_eq!(stats.cycles, 1);
        assert_eq!(stats.cell_evals, 2 * cells);
    }

    #[test]
    fn counter_deltas_are_reset_safe_and_rates_are_guarded() {
        let (netlist, inputs, _) = full_adder();
        let cells = netlist.topo_cells().len() as u64;
        let mut sim = Simulator::new(&netlist);
        sim.set_input(inputs[0], u64::MAX);
        sim.step();
        let baseline = sim.counters();
        sim.reset(); // must not invalidate the baseline
        sim.step();
        sim.eval();
        let delta = sim.counters().delta_since(baseline);
        assert_eq!(delta.cycles, 1);
        assert_eq!(delta.cell_evals, 2 * cells);
        // A foreign/stale snapshot saturates instead of wrapping.
        let stale = SimStats {
            cycles: u64::MAX,
            cell_evals: u64::MAX,
        };
        let clamped = sim.counters().delta_since(stale);
        assert_eq!(clamped, SimStats::default());
        // Rates: zero/negative/non-finite elapsed time stays finite.
        assert_eq!(delta.rates(0.0), SimRates::default());
        assert_eq!(delta.rates(-1.0), SimRates::default());
        assert_eq!(delta.rates(f64::NAN), SimRates::default());
        let rates = delta.rates(2.0);
        assert_eq!(rates.cycles_per_sec, 0.5);
        assert_eq!(rates.cell_evals_per_sec, cells as f64);
    }

    #[test]
    #[should_panic(expected = "not a primary input")]
    fn driving_internal_wire_panics() {
        let mut builder = NetlistBuilder::new("bad");
        let a = builder.input("a", SignalRole::Control);
        let n = builder.not(a);
        builder.output("n", n);
        let netlist = builder.build().expect("valid");
        let mut sim = Simulator::new(&netlist);
        sim.set_input(n, 1);
    }

    #[test]
    fn try_variants_return_typed_errors() {
        let mut builder = NetlistBuilder::new("typed");
        let a = builder.input("a", SignalRole::Control);
        let n = builder.not(a);
        builder.output("n", n);
        let netlist = builder.build().expect("valid");
        let mut sim = Simulator::try_new(&netlist).expect("valid netlist");
        assert_eq!(sim.try_set_input(a, 1), Ok(()));
        assert_eq!(
            sim.try_set_input(n, 1),
            Err(SimError::NotAnInput {
                name: netlist.wire_name(n).to_owned()
            })
        );
        assert_eq!(
            sim.try_set_input_bit(a, LANES, true),
            Err(SimError::LaneOutOfRange { lane: LANES })
        );
        // Panicking and fallible spellings report the same message.
        assert!(SimError::LaneOutOfRange { lane: 64 }
            .to_string()
            .contains("out of range"));
    }

    #[test]
    fn set_bus_all_lanes_broadcasts() {
        let mut builder = NetlistBuilder::new("broadcast");
        let bus = builder.input_bus("x", 4, |_| SignalRole::Control);
        builder.output_bus("y", &bus);
        let netlist = builder.build().expect("valid");
        let mut sim = Simulator::new(&netlist);
        sim.set_bus_all_lanes(&bus, 0b1010);
        sim.eval();
        for lane in [0usize, 17, 63] {
            assert_eq!(sim.bus_lane(&bus, lane), 0b1010);
        }
    }
}
