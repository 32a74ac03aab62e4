//! # verc3-protocols — hand-written protocol models for VerC3
//!
//! Concurrent-system models built directly on the `verc3-mck` modelling
//! framework and synthesizable with `verc3-core`. A protocol that does not
//! need hand-written speed is a `specs/*.toml` document interpreted by
//! `verc3-spec`, not a module here; each model below stays for a stated
//! reason:
//!
//! * [`msi`] — the paper's case study: a directory-based MSI cache-coherence
//!   protocol over an unordered interconnect, with the transient-state
//!   actions exposed as synthesis holes (MSI-small: 8 holes, MSI-large: 12
//!   holes, exactly as in §III and Table I). It stays because it is the
//!   compiled reference the spec interpreter is held to bit for bit
//!   (`specs/msi_small.toml`), it carries the named skeletons (`msi_tiny`
//!   to `msi_xl`, `msi5`) and the data-values variant, and the benchmark
//!   builds it for its synthesis and verification workloads.
//! * [`mesi`] — a MESI extension of the MSI model (Exclusive state),
//!   following the paper's future-work direction of widening the tool's
//!   scope. It stays because the benchmark's verification workload checks
//!   its golden protocol.
//!
//! All models implement [`verc3_mck::TransitionSystem`] and can be verified
//! with [`verc3_mck::Checker`] or synthesized with
//! `verc3_core::Synthesizer`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod mesi;
pub mod msi;
