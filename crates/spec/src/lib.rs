//! # verc3-spec — runtime-defined protocols
//!
//! A declarative protocol front-end: a TOML document with typed state
//! variables, scalarset symmetry annotations, guarded rules, invariants and
//! synthesis-hole declarations is validated into a [`ProtocolSpec`] and
//! interpreted as a [`verc3_mck::TransitionSystem`] — no recompilation, a
//! protocol is a payload, not a PR.
//!
//! The pipeline:
//!
//! 1. [`toml`] — a small, offline TOML-subset reader (tables,
//!    array-of-tables, strings, ints, bools, arrays, `'''` blocks) that
//!    preserves key order, because declaration order is semantic: variable
//!    order fixes the state's lexicographic [`Ord`], and rule order fixes
//!    the checker's breadth-first insertion order.
//! 2. [`parse`] — an expression/statement language for guards and effects
//!    (`require`, `let`, `choose … = hole("…")`, `if`/`elif`/`else`,
//!    `for p in pids`, assignment, calls), compiled against the declared
//!    types so every name/field/variant error is a structured
//!    [`InvalidSpec`] at load time, never a panic.
//! 3. [`layout`] — the state representation: a [`SpecState`] is one packed
//!    byte string in declaration order, with an encoding per type whose
//!    byte order equals the order of an equivalent hand-written state
//!    struct, a permutation program per layout (pid remapping, pid-indexed
//!    block moves, multiset re-sorting), and a `signature` over the leading
//!    pid-indexed array, so orbit canonicalization works unchanged.
//! 4. [`interp`] — the compiler lowers each validated spec to typed IR with
//!    byte offsets and strides resolved, and each spec rule becomes a
//!    [`verc3_mck::Rule`] closure that runs it over the state bytes with a
//!    reused per-thread frame for locals and temporaries; `choose` consults
//!    the live [`verc3_mck::HoleResolver`] exactly like hand-written
//!    skeletons do (every hole of a rule is consulted before a wildcard
//!    aborts the application), so lazy hole discovery, pruning patterns and
//!    candidate enumeration are oblivious to the front-end.
//!
//! The equivariance contract: with `symmetry = true`, the first declared
//! variable must be an `array[pid] of R` whose element record contains no
//! `pid`-typed leaves. Rank keys over that array are then permutation
//! covariant, which makes the signature sound for orbit pruning; because
//! the array is also the first `Ord` component of the state, the signature
//! dominates the state order and dense-sweep and orbit canonicalization
//! pick identical representatives.

pub mod ast;
pub mod error;
pub mod interp;
pub mod layout;
pub mod parse;
pub mod spec;
pub mod toml;

pub use error::InvalidSpec;
pub use interp::SpecModel;
pub use layout::SpecState;
pub use spec::{ProtocolSpec, SpecGolden};
