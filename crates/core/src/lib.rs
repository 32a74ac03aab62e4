//! # verc3-core — the explicit-state synthesis engine
//!
//! This crate implements the primary contribution of *VerC3: A Library for
//! Explicit State Synthesis of Concurrent Systems* (Elver et al., DATE 2018):
//! a synthesis procedure tightly coupled to an embedded explicit-state model
//! checker (`verc3-mck`), built around three ideas:
//!
//! * **Lazy hole discovery** ([`HoleRegistry`]) — synthesis starts from the
//!   empty candidate; holes register themselves the first time the model
//!   checker executes a rule that consults them, so unreachable holes never
//!   enter the search space.
//! * **Wildcard generations** ([`Synthesizer`]) — the candidate vector is a
//!   concrete prefix plus a wildcard suffix; wildcards abort execution
//!   branches, and the concrete frontier only grows when a full enumeration
//!   pass completes.
//! * **Candidate pruning** ([`PatternTable`]) — failing configurations are
//!   memoized as patterns; since a minimal (BFS) error trace rarely touches
//!   every hole, one failure pattern dooms an entire subtree of the candidate
//!   space, which the enumeration skips in O(1).
//!
//! The engine also provides the paper's **naïve baseline** (pruning off,
//! defaults instead of wildcards), **parallel synthesis** over shared
//! patterns, and a **refined pruning** extension that patterns on the holes a
//! failing run actually consulted.
//!
//! ## Example
//!
//! Synthesizing the paper's Figure 2 worked example:
//!
//! ```
//! use verc3_core::{SynthOptions, Synthesizer};
//! use verc3_mck::GraphModel;
//!
//! let model = GraphModel::worked_example();
//! let report = Synthesizer::new(SynthOptions::default()).run(&model);
//!
//! assert_eq!(report.stats().evaluated, 10);       // paper: 10 runs
//! assert_eq!(report.stats().patterns, 5);         // paper: 5 patterns
//! assert_eq!(report.naive_candidate_space(), 24); // paper: 24 naïve
//! assert_eq!(report.solutions().len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod candidate;
pub mod hole;
pub mod journal;
pub mod odometer;
pub mod pattern;
pub mod report;
pub mod resolver;
pub mod synth;

pub use candidate::{CandidateVec, Slot};
pub use hole::{HoleId, HoleInfo, HoleRegistry};
pub use odometer::{space_size, GuidedOdometer, Odometer};
#[cfg(any(test, feature = "reference"))]
pub use pattern::ReferencePatternTable;
pub use pattern::{PatternMode, PatternTable, Propagator, SparsePattern};
pub use report::{GenStats, Quarantined, RunRecord, Solution, StopReason, SynthReport, SynthStats};
pub use resolver::{assignment_delta, DiscoveryDefault, NameCache, SharedCandidateResolver};
pub use synth::{Enumeration, SynthOptions, Synthesizer};
