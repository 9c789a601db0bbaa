//! A PROLEAD-style statistical leakage evaluator for gate-level netlists.
//!
//! Re-implements (from scratch, in Rust) the methodology of Müller &
//! Moradi's PROLEAD tool, the instrument the paper uses for all of its
//! findings:
//!
//! * operates purely on the gate-level netlist — no power model;
//! * extends probes under the **glitch** model (a probe on a wire
//!   observes every register output / primary input in its combinational
//!   fan-in) and optionally the **transition** model (each of those
//!   signals is observed in two consecutive cycles);
//! * runs a **fixed-vs-random** sampling campaign: one population with
//!   the unshared secret fixed (e.g. the S-box input 0, the zero-value
//!   case), one with it uniformly random — both with fresh sharing and
//!   mask randomness every cycle;
//! * for every (deduplicated) probing set, builds a contingency table of
//!   the observed stable-signal tuples and applies a **G-test**; the
//!   result is reported as `-log10(p)` with the conventional threshold
//!   of 5.0, exactly as PROLEAD reports it;
//! * supports higher-order (multivariate) probing sets for second-order
//!   evaluations.
//!
//! Like PROLEAD itself, a passing report is *evidence*, not proof (use
//! `mmaes-exact` for proofs on enumerable cores); a failing report with
//! high confidence is a demonstration of insecurity.
//!
//! Entry point: [`FixedVsRandom`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod config;
pub(crate) mod engine;
pub mod error;
pub mod forensics;
pub mod health;
pub mod mutate;
pub mod probe;
pub mod report;
pub mod snapshot;
pub mod stats;
pub mod supervisor;
pub mod tabulate;

pub use campaign::{FixedVsRandom, ProbeTable};
pub use config::{CampaignMode, Durability, EvaluationConfig, SecretDomain};
pub use error::CampaignError;
pub use forensics::{EvidenceBundle, ExactDependence, RandomnessReuse};
pub use health::MIN_EXPECTED_FLOOR;
pub use mutate::{mutants, FaultKind, Mutant};
pub use probe::{enumerate_probe_sets, ProbeModel, ProbeSet};
pub use report::{LeakageReport, ProbeResult};
pub use snapshot::{CampaignSnapshot, SnapshotError, TableSnapshot, SNAPSHOT_SCHEMA_VERSION};
pub use stats::{Statistic, StatisticKind, TestOutcome};
pub use supervisor::WorkerFault;
pub use tabulate::{TabulatorMode, MAX_DENSE_WIDTH};
