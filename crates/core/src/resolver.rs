//! The candidate resolver: answers the model checker's hole consultations
//! from one candidate configuration.
//!
//! One [`SharedCandidateResolver`] lives for exactly one model-checking run
//! (one candidate evaluation). It answers as follows:
//!
//! * hole id `< k` (inside the enumeration frontier): the candidate's
//!   concrete action for it;
//! * hole id `≥ k` (wildcard suffix), or a first sighting the checker has
//!   not registered yet: the configured *default* —
//!   [`verc3_mck::Choice::Wildcard`] in pruning mode (aborting the branch,
//!   per §II), or action `0` in the naïve baseline mode ("the default
//!   action substituted, such that the model checker may continue").
//!
//! The resolver only answers. The checker looks each hole up in the
//! generation's registry, registers first sightings, and logs which holes a
//! run consulted — the "touched" set that failures prune on in
//! refined-pattern mode and that identifies a solution (holes never
//! consulted by a successful run are genuine don't-cares), read from the
//! check session's logs ([`verc3_mck::CheckSession::touched`]).

use crate::hole::HoleId;
use verc3_mck::{HoleSpec, SessionResolver, SharedResolver};

/// What undiscovered/unassigned holes resolve to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscoveryDefault {
    /// Pruning mode: wildcard, aborting the execution branch.
    Wildcard,
    /// Naïve mode: the hole's first action, letting exploration continue.
    ActionZero,
}

/// The hole resolver for one candidate evaluation, shared by the checker's
/// workers (the thread count of `SynthOptions::checker`).
///
/// Answers are pure functions of the `(digits, default)` pair and the
/// hole's id, so every worker answers every hole identically — the
/// consistency contract the parallel checker relies on.
#[derive(Debug)]
pub struct SharedCandidateResolver<'a> {
    digits: &'a [u16],
    default: DiscoveryDefault,
}

impl<'a> SharedCandidateResolver<'a> {
    /// Creates a shareable resolver for the candidate whose concrete prefix
    /// is `digits`.
    pub fn new(digits: &'a [u16], default: DiscoveryDefault) -> Self {
        SharedCandidateResolver { digits, default }
    }

    /// The one candidate-resolution rule: holes inside the concrete prefix
    /// answer their digit; holes beyond it, and first sightings (which lie
    /// beyond the frontier by construction: a generation's registry starts
    /// with the frontier), answer the discovery default. `Some(action)` is
    /// a concrete answer; `None` is the wildcard.
    fn resolve_digit(&self, id: Option<HoleId>) -> Option<u16> {
        match id.and_then(|id| self.digits.get(id)) {
            Some(&action) => Some(action),
            None => match self.default {
                DiscoveryDefault::Wildcard => None,
                DiscoveryDefault::ActionZero => Some(0),
            },
        }
    }
}

impl SharedResolver for SharedCandidateResolver<'_> {
    fn answer(&self, _hole: &HoleSpec, id: Option<usize>) -> Option<u16> {
        self.resolve_digit(id)
    }
}

impl SessionResolver for SharedCandidateResolver<'_> {
    /// The same rule keyed by id alone: a hole id a session recorded is
    /// registered by construction, and its answer within one generation
    /// depends only on the candidate prefix.
    fn assignment(&self, hole: usize) -> Option<u16> {
        self.resolve_digit(Some(hole))
    }
}
