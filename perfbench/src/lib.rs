//! End-to-end benchmark of the VerC3 workspace.
//!
//! The workloads ([`workloads`]) drive the public API — `Synthesizer::try_run`,
//! `Checker::run`/`run_with`, `ProtocolSpec::from_path`/`model` — and diff
//! every result against committed goldens. The per-layer numbers come from
//! outside the measured crates: [`trace::Traced`] wraps a model and counts
//! and times each callback the checker makes into it.

pub mod trace;
pub mod workloads;
