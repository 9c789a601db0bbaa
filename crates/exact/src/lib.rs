//! Exhaustive (SILVER-style) probing-security verification.
//!
//! Where `mmaes-leakage` samples, this crate *enumerates*: for a probing
//! set it computes the exact joint distribution of the glitch-extended
//! (optionally transition-extended) observation, conditioned on every
//! value of the unshared secrets, and checks the distributions are
//! identical — the simulatability criterion of the probing model. A
//! passing verdict is a proof (for that probe and model); a failing one
//! comes with a concrete counterexample: two secret assignments whose
//! observation distributions differ, and an observation value witnessing
//! the difference.
//!
//! The paper's conclusion predicts that SILVER, run on the De Meyer
//! Kronecker delta, would confirm PROLEAD's findings; this crate plays
//! that role (experiments E4/E5/E6).
//!
//! # How it scales
//!
//! The circuit is *unrolled* over a window of cycles: every primary
//! input at every cycle is an independent variable (this is what makes
//! the randomness-port timing semantics exact — a port bit at cycle `t`
//! is a different variable from the same port at `t+1`). For each
//! probing set only the variables in the observation's *support*
//! (transitive dependencies through registers) are enumerated; everything
//! else is irrelevant and held at zero. Supports in the Kronecker delta
//! are 15–30 bits, so exhaustive enumeration is fast with the 64-lane
//! bit-parallel simulator. Probes whose support exceeds a configurable
//! bound are reported as [`ProbeVerdict::TooWide`] rather than silently
//! skipped.
//!
//! Counting stays bit-sliced too. Each batch's observation is read as
//! bit-planes (`ProbeSet::observation_planes`, one `u64` per observed
//! bit). For observations of up to `MAX_MINTERM_WIDTH` bits (every
//! Kronecker G7 probe), the 64 lanes are split by minterm and counted
//! by popcount into a flat `2^width` histogram. Wider observations are
//! packed per lane into a hashed histogram. Only two histograms are
//! alive at a time: secret assignment 0's and the current one. Each
//! finished assignment is compared with the first by ascending
//! observation, so the reported counterexample is the first differing
//! assignment's smallest differing observation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;
pub mod unroll;
mod verifier;

pub use report::{ExactReport, ProbeVerdict};
pub use unroll::{Unrolled, UnrolledVar};
pub use verifier::{ExactConfig, ExactVerifier};
