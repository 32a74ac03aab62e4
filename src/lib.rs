//! # VerC3 — explicit-state synthesis of concurrent systems
//!
//! Rust reproduction of *VerC3: A Library for Explicit State Synthesis of
//! Concurrent Systems* (Elver, Banks, Jackson, Nagarajan — DATE 2018).
//!
//! This facade crate re-exports the layers of the system:
//!
//! * [`mck`] — the embedded Murϕ-like explicit-state model checker
//!   (guarded-command models, BFS with minimal traces, symmetry reduction,
//!   safety/reachability/liveness properties);
//! * [`synth`] — the synthesis engine (lazy hole discovery, candidate
//!   enumeration with wildcard generations, dynamic-programming candidate
//!   pruning, parallel synthesis);
//! * [`protocols`] — the hand-written models: the paper's directory-based
//!   MSI cache-coherence skeletons (MSI-small, MSI-large) and its MESI
//!   extension;
//! * [`spec`] — the declarative front-end: TOML protocol descriptions
//!   validated into [`spec::ProtocolSpec`] and interpreted as transition
//!   systems, so new protocols are payloads rather than recompilations.
//!   The committed zoo in `specs/` includes the VI coherence protocol,
//!   Peterson's and Lamport's mutual-exclusion algorithms, and German's
//!   protocol.
//!
//! ## Quickstart
//!
//! Synthesize the paper's Figure 2 worked example:
//!
//! ```
//! use verc3::mck::GraphModel;
//! use verc3::synth::{SynthOptions, Synthesizer};
//!
//! let model = GraphModel::worked_example();
//! let report = Synthesizer::new(SynthOptions::default()).run(&model);
//!
//! assert_eq!(report.solutions().len(), 1);
//! assert_eq!(report.stats().evaluated, 10);     // paper: 10 runs
//! assert_eq!(report.stats().patterns, 5);       // paper: 5 pruning patterns
//! assert_eq!(report.naive_candidate_space(), 24); // paper: 24 naïve
//! assert_eq!(
//!     report.solutions()[0].display_named(report.holes()),
//!     "⟨ 1@B, 2@A, 3@B, 4@B ⟩",               // paper: the unique solution
//! );
//! ```
//!
//! See `examples/` for richer entry points, DESIGN.md for the architecture,
//! and EXPERIMENTS.md for the paper-vs-measured reproduction record.

pub use verc3_core as synth;
pub use verc3_mck as mck;
pub use verc3_protocols as protocols;
pub use verc3_spec as spec;
