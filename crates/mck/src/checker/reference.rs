//! The reference serial BFS: the original queue-driven exploration driver,
//! kept off the production path as the differential oracle — and the
//! parallel engine's stress hooks ([`CheckerOptions::chunk_states`],
//! [`CheckerOptions::claim_stripes`]), which only the equivalence and
//! fault-injection suites set.
//!
//! Production checks all run through [`super::CheckSession`]'s layer loops.
//! This driver shares only the committed-state core ([`SearchCore`]) with
//! them and discovers states with its own queue and visited index, so the
//! equivalence suites compare two independent exploration loops rather than
//! one loop against itself. Compiled only for tests and under the
//! `reference` feature.

use super::{
    fingerprint, insert_id, CheckerOptions, DeadlockPolicy, Edge, Failure, FailureKind, IdList,
    Outcome, SearchCore, StateId, Verdict,
};
use crate::error::MckError;
use crate::eval::HoleResolver;
use crate::hashers::FnvHashMap;
use crate::model::TransitionSystem;
use crate::rule::RuleOutcome;
use std::collections::VecDeque;
use std::time::Instant;

impl CheckerOptions {
    /// Forces the parallel engine's expansion chunk size to exactly `states`
    /// per chunk, overriding the trajectory-based auto-tuner (1-state chunks
    /// maximize interleaving). A test hook.
    ///
    /// # Panics
    ///
    /// Panics if `states == 0`; see [`CheckerOptions::try_chunk_states`] for
    /// the fallible variant.
    #[track_caller]
    pub fn chunk_states(self, states: usize) -> Self {
        self.try_chunk_states(states)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`CheckerOptions::chunk_states`]: rejects `0`
    /// with [`MckError::InvalidConfig`] instead of panicking.
    pub fn try_chunk_states(mut self, states: usize) -> Result<Self, MckError> {
        if states == 0 {
            return Err(MckError::InvalidConfig {
                param: "chunk_states",
                reason: "chunks must hold at least one state".into(),
            });
        }
        self.chunk_states = Some(states);
        Ok(self)
    }

    /// Forces the claim-table stripe count (rounded up to a power of two,
    /// capped at 256; a single stripe serializes all claim-arena appends,
    /// maximizing contention). A test hook.
    ///
    /// # Panics
    ///
    /// Panics if `stripes == 0`; see [`CheckerOptions::try_claim_stripes`]
    /// for the fallible variant.
    #[track_caller]
    pub fn claim_stripes(self, stripes: usize) -> Self {
        self.try_claim_stripes(stripes)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`CheckerOptions::claim_stripes`]: rejects `0`
    /// with [`MckError::InvalidConfig`] instead of panicking.
    pub fn try_claim_stripes(mut self, stripes: usize) -> Result<Self, MckError> {
        if stripes == 0 {
            return Err(MckError::InvalidConfig {
                param: "claim_stripes",
                reason: "at least one claim stripe is required".into(),
            });
        }
        self.claim_stripes = Some(stripes);
        Ok(self)
    }
}

/// Fingerprint-indexed visited set for the serial driver.
#[derive(Debug, Default)]
struct VisitedIndex {
    map: FnvHashMap<u64, IdList>,
}

impl VisitedIndex {
    /// Finds the committed id of `state`, whose fingerprint is `hash`.
    fn find<S: Eq>(&self, hash: u64, state: &S, states: &[S]) -> Option<StateId> {
        self.map
            .get(&hash)?
            .as_slice()
            .iter()
            .copied()
            .find(|&id| states[id as usize] == *state)
    }

    /// Records that `hash` now maps to the (new) committed id.
    fn insert(&mut self, hash: u64, id: StateId) {
        insert_id(&mut self.map, hash, id);
    }
}

/// Serial exploration driver; one instance per run.
///
/// Unlike [`super::Checker::run_with`] it does not isolate panics: a panic
/// in user protocol code unwinds through [`Bfs::explore`].
pub struct Bfs<'a, M: TransitionSystem> {
    core: SearchCore<'a, M>,
    resolver: &'a mut dyn HoleResolver,
    visited: VisitedIndex,
    queue: VecDeque<StateId>,
}

impl<M: TransitionSystem> std::fmt::Debug for Bfs<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bfs")
            .field("model", &self.core.model.name())
            .field("committed", &self.core.states.len())
            .finish()
    }
}

impl<'a, M: TransitionSystem> Bfs<'a, M> {
    /// Prepares a run of `model` under `options` (the thread, chunk, and
    /// stripe knobs are ignored), resolving holes through `resolver`.
    pub fn new(
        model: &'a M,
        options: &'a CheckerOptions,
        resolver: &'a mut dyn HoleResolver,
    ) -> Self {
        Bfs {
            core: SearchCore::new(model, options.clone()),
            resolver,
            visited: VisitedIndex::default(),
            queue: VecDeque::new(),
        }
    }

    /// Inserts `state` (already canonicalized) if new; returns its id and
    /// whether it was newly inserted — or `None` if the state is new but
    /// admitting it would exceed [`CheckerOptions::max_states`] (the caller
    /// must stop exploring with [`MckError::StateLimitExceeded`]).
    fn insert(
        &mut self,
        state: M::State,
        from: Option<(StateId, u32)>,
        touches: &[(usize, u16)],
    ) -> Option<(StateId, bool)> {
        let hash = fingerprint(&state);
        if let Some(id) = self.visited.find(hash, &state, &self.core.states) {
            return Some((id, false));
        }
        if self.core.states.len() >= self.core.options.max_states {
            return None;
        }
        let id = self.core.commit(state, from, touches);
        self.visited.insert(hash, id);
        self.queue.push_back(id);
        Some((id, true))
    }

    /// Explores the model to an outcome.
    pub fn explore(mut self) -> Outcome<M::State> {
        let start = Instant::now();

        let initial = self.core.model.initial_states();
        if initial.is_empty() {
            return self.core.finish(
                start,
                Verdict::Unknown,
                None,
                Some(MckError::NoInitialStates),
            );
        }
        let mut incomplete: Option<MckError> = None;
        let state_limit = MckError::StateLimitExceeded {
            limit: self.core.options.max_states,
        };

        for s0 in initial {
            let s0 = self.core.model.canonicalize(s0);
            match self.insert(s0, None, &[]) {
                None => return self.core.analyze(start, Some(state_limit)),
                Some((id, true)) => {
                    if let Some(name) = self.core.violated_invariant(id) {
                        let failure = Failure {
                            kind: FailureKind::InvariantViolation,
                            property: name.to_owned(),
                            trace: Some(self.core.trace_to(id)),
                            touched: Some(Vec::new()),
                        };
                        return self
                            .core
                            .finish(start, Verdict::Failure, Some(failure), None);
                    }
                }
                Some((_, false)) => {}
            }
        }

        'bfs: while let Some(id) = self.queue.pop_front() {
            self.core.stats.peak_queue = self.core.stats.peak_queue.max(self.queue.len() + 1);
            let state = self.core.states[id as usize].clone();
            let mut any_next = false;
            let mut any_blocked = false;
            // Resolutions made anywhere while expanding this state; a
            // deadlock verdict depends on all of them (they decided that
            // every rule declined to fire). De-duplicated by `trace_touched`.
            let mut expansion_touches: Vec<(usize, u16)> = Vec::new();

            for (ri, rule) in self.core.model.rules().iter().enumerate() {
                self.resolver.begin_application();
                let outcome = rule.apply(&state, self.resolver);
                expansion_touches.extend_from_slice(self.resolver.application_touches());
                match outcome {
                    RuleOutcome::Disabled => {}
                    RuleOutcome::Blocked => {
                        any_blocked = true;
                        self.core.stats.wildcard_hits += 1;
                    }
                    RuleOutcome::Next(next) => {
                        any_next = true;
                        self.core.stats.transitions += 1;
                        let next = self.core.model.canonicalize(next);
                        let touches = self.resolver.application_touches().to_vec();
                        let Some((nid, new)) = self.insert(next, Some((id, ri as u32)), &touches)
                        else {
                            // Admitting this successor would exceed the state
                            // cap: stop here, before inspecting it, so the
                            // committed store never outgrows `max_states`.
                            incomplete = Some(state_limit.clone());
                            break 'bfs;
                        };
                        if let Some(edges) = &mut self.core.edges {
                            edges[id as usize].push(Edge {
                                rule: ri as u32,
                                target: nid,
                            });
                        }
                        if new {
                            if let Some(name) = self.core.violated_invariant(nid) {
                                let failure = Failure {
                                    kind: FailureKind::InvariantViolation,
                                    property: name.to_owned(),
                                    touched: Some(self.core.trace_touched(nid, &[])),
                                    trace: Some(self.core.trace_to(nid)),
                                };
                                return self.core.finish(
                                    start,
                                    Verdict::Failure,
                                    Some(failure),
                                    None,
                                );
                            }
                        }
                    }
                }
            }

            // A state with no successors is a deadlock — unless a wildcard
            // aborted some branch, in which case we cannot tell (the aborted
            // branch might have provided an exit).
            if !any_next && !any_blocked && self.core.options.deadlock == DeadlockPolicy::Disallow {
                let failure = Failure {
                    kind: FailureKind::Deadlock,
                    property: "deadlock freedom".to_owned(),
                    touched: Some(self.core.trace_touched(id, &expansion_touches)),
                    trace: Some(self.core.trace_to(id)),
                };
                return self
                    .core
                    .finish(start, Verdict::Failure, Some(failure), None);
            }
        }

        self.core.analyze(start, incomplete)
    }
}
