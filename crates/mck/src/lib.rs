//! # verc3-mck — an embedded Murphi-like explicit-state model checker
//!
//! This crate is the verification substrate of the VerC3 reproduction
//! (Elver et al., *VerC3: A Library for Explicit State Synthesis of
//! Concurrent Systems*, DATE 2018). It provides:
//!
//! * a **guarded-command modelling framework** for finite-state transition
//!   systems ([`TransitionSystem`], [`Rule`], [`ModelBuilder`]) kept close in
//!   expressiveness to Murϕ, as the paper requires;
//! * an **explicit-state model checker** ([`Checker`]) performing
//!   breadth-first search, which therefore yields *minimal* counterexample
//!   traces — the property the paper's candidate-pruning optimization
//!   depends on (§II, footnote 1);
//! * **reusable check sessions** ([`CheckSession`], via [`Checker::session`])
//!   for workloads that verify many related candidates of one model: the
//!   session checkpoints the BFS at every layer and resumes each new
//!   candidate from the deepest layer whose hole resolutions are unchanged,
//!   with a persistent worker pool for parallel sessions;
//! * **symmetry reduction** in the style of Ip & Dill via scalarset
//!   permutation canonicalization ([`scalarset`]) — an orbit-pruning
//!   partition-refinement canonicalizer for large scalarsets, with the
//!   exhaustive all-permutations sweep retained as reference and tiny-n
//!   fast path;
//! * **properties**: safety invariants (e.g. Single-Writer–Multiple-Reader),
//!   deadlock detection, reachability obligations ("all stable states must
//!   be visited at least once"), and an *eventually-quiescent* liveness check
//!   computed over the explored state graph ([`properties`]);
//! * the **hole mechanism** used by the synthesis layer: transition rules may
//!   consult a [`HoleResolver`] to select one of several candidate actions,
//!   and unresolved holes ("wildcards") abort the execution branch, producing
//!   the paper's three-valued verdict *success / failure / unknown*
//!   ([`eval`], [`Verdict`]). The checker discovers holes lazily into a
//!   [`HoleRegistry`] and tracks every consultation itself; a caller's
//!   [`SharedResolver`] only answers.
//!
//! The synthesis engine itself lives in the sibling crate `verc3-core`; the
//! protocol case studies (directory-based MSI coherence and friends) live in
//! `verc3-protocols`.
//!
//! ## Quick example
//!
//! Model a two-bit counter and verify it never reaches 3:
//!
//! ```
//! use verc3_mck::{ModelBuilder, Checker, CheckerOptions, RuleOutcome, Verdict};
//!
//! let mut b = ModelBuilder::new("counter");
//! b.initial(0u8);
//! b.rule("incr", |&s: &u8, _ctx| {
//!     if s < 2 { RuleOutcome::Next(s + 1) } else { RuleOutcome::Disabled }
//! });
//! b.invariant("below three", |&s: &u8| s < 3);
//! let model = b.finish();
//!
//! let outcome = Checker::new(CheckerOptions::default().allow_deadlock())
//!     .run(&model);
//! assert_eq!(outcome.verdict(), Verdict::Success);
//! assert_eq!(outcome.stats().states_visited, 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checker;
pub mod error;
pub mod eval;
pub mod faults;
pub mod graph_model;
pub mod hashers;
pub mod model;
pub mod multiset;
pub mod properties;
pub mod registry;
pub mod rule;
pub mod scalarset;

pub use checker::{
    CheckSession, Checker, CheckerOptions, ExploredGraph, FailureKind, Outcome, SessionStats,
    Stats, Trace, TraceStep, Verdict,
};
pub use error::MckError;
pub use eval::{
    Choice, FixedResolver, HoleResolver, HoleSpec, NoHoles, SessionResolver, SharedResolver,
};
pub use graph_model::{GraphModel, GraphModelBuilder};
pub use model::{BuiltModel, ModelBuilder, TransitionSystem};
pub use multiset::Multiset;
pub use properties::Property;
pub use registry::{HoleId, HoleInfo, HoleRegistry};
pub use rule::{Rule, RuleOutcome};
pub use scalarset::{
    all_permutations, apply_perm_to_index, perm_table, rank_keys, OrbitPartition, Perm, Symmetric,
};
