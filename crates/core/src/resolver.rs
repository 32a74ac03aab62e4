//! The candidate resolver: feeds one candidate configuration to the model
//! checker and performs lazy hole discovery.
//!
//! One [`SharedCandidateResolver`] lives for exactly one model-checking run
//! (one candidate evaluation). It resolves hole consultations as follows:
//!
//! * hole id `< k` (inside the enumeration frontier): answer the candidate's
//!   concrete action for it;
//! * hole id `≥ k` (wildcard suffix, or discovered during this very run):
//!   answer the configured *default* — [`verc3_mck::Choice::Wildcard`] in
//!   pruning mode (aborting the branch, per §II), or action `0` in the naïve
//!   baseline mode ("the default action substituted, such that the model
//!   checker may continue").
//!
//! The resolver also records every *concrete* resolution it hands out (the
//! "touched" set): failures prune based on it in refined-pattern mode, and
//! solutions are identified by it (holes never consulted by a successful
//! run are genuine don't-cares).

use crate::hole::{HoleId, HoleRegistry};
use parking_lot::Mutex;
use verc3_mck::hashers::FnvHashMap;
use verc3_mck::{Choice, HoleResolver, HoleSpec, SessionResolver, SharedResolver, WildcardTouch};

/// What undiscovered/unassigned holes resolve to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscoveryDefault {
    /// Pruning mode: wildcard, aborting the execution branch.
    Wildcard,
    /// Naïve mode: the hole's first action, letting exploration continue.
    ActionZero,
}

/// Per-worker cache mapping hole names to registry ids — re-exported from
/// `verc3-mck`, which also defines the seeding protocol
/// ([`verc3_mck::SharedResolver::worker_seeded`] /
/// [`verc3_mck::HoleResolver::take_name_cache`]) that lets a `CheckSession`
/// carry one cache across checks.
///
/// Lives longer than any single resolver: a session re-seeds it into every
/// check's workers so that, in the common case, resolving a hole does not
/// take the registry lock at all — the lock-free fast path the paper found
/// necessary (§II, *Parallel Synthesis*).
pub use verc3_mck::NameCache;

/// The one candidate-resolution rule: holes inside the concrete prefix answer
/// their digit; holes beyond it answer the discovery default. `Some(action)` is a concrete answer the caller
/// must record as a touch; `None` is the wildcard.
fn resolve_digit(
    digits: &[u16],
    default: DiscoveryDefault,
    id: HoleId,
    spec: &HoleSpec,
) -> Option<u16> {
    if id < digits.len() {
        let action = digits[id];
        debug_assert!(
            (action as usize) < spec.arity(),
            "candidate digit {action} out of range for hole `{}`",
            spec.name()
        );
        Some(action)
    } else {
        default_answer(default)
    }
}

/// What an unassigned (beyond-frontier or undiscovered) hole resolves to.
fn default_answer(default: DiscoveryDefault) -> Option<u16> {
    match default {
        DiscoveryDefault::Wildcard => None,
        DiscoveryDefault::ActionZero => Some(0),
    }
}

/// The changed-holes delta between two candidate prefixes under one
/// discovery default: every hole id (over a registry of `known` holes)
/// whose resolution under `digits` differs from its resolution under
/// `prev` — exactly the consultations that invalidate a
/// [`verc3_mck::CheckSession`] checkpoint when moving from candidate
/// `prev` to candidate `digits`.
///
/// Because the odometer varies the *least* significant (latest-discovered)
/// holes fastest, consecutive candidates produce deltas concentrated at
/// high hole ids — which are consulted deepest in the BFS, so consecutive
/// checks resume from deep checkpoints.
pub fn assignment_delta(
    digits: &[u16],
    prev: &[u16],
    default: DiscoveryDefault,
    known: usize,
) -> Vec<HoleId> {
    let answer = |d: &[u16], id: usize| {
        if id < d.len() {
            Some(d[id])
        } else {
            default_answer(default)
        }
    };
    (0..known.max(digits.len()).max(prev.len()))
        .filter(|&id| answer(digits, id) != answer(prev, id))
        .collect()
}

/// The hole resolver for one candidate evaluation, shareable across the
/// checker's workers (the thread count of `SynthOptions::checker`).
///
/// One instance lives for exactly one model-checking run; the checker's
/// serial loop and each parallel worker obtain their own [`HoleResolver`]
/// through the [`SharedResolver`] trait. Choices are pure functions of the
/// shared `(registry, digits, default)` triple, so every worker answers
/// every hole identically — the consistency contract the parallel checker
/// relies on. Each worker keeps:
///
/// * a private name→id cache (lock-free fast path; the shared registry is
///   consulted once per hole per worker), and
/// * a private per-application touch log, feeding the checker's per-edge
///   `Cₜ` attribution without cross-thread traffic.
///
/// Concrete resolutions are merged into one shared touched set (first touch
/// per hole per worker takes a short lock; repeats stay thread-local).
/// [`SharedCandidateResolver::into_touched`] returns it sorted by hole id —
/// resolutions are deterministic, so the *set* is thread-count-independent
/// even though consultation order is not.
///
/// Under the parallel checker's expand-then-replay discipline, workers
/// obtained via [`SharedResolver::expansion_worker`] are *provisional*: they
/// resolve identically but publish nothing to the shared touched set, because
/// some recorded applications are later discarded by the replay (past a
/// failure or the state cap) and must not leak into pruning patterns. The
/// replay reports the consultations it actually consumed through
/// [`SharedResolver::note_replayed_touches`] once per layer, which merges
/// them here — so `into_touched` equals a serial run's touched set exactly.
#[derive(Debug)]
pub struct SharedCandidateResolver<'a> {
    registry: &'a HoleRegistry,
    digits: &'a [u16],
    default: DiscoveryDefault,
    touched: Mutex<Vec<(HoleId, u16)>>,
}

impl<'a> SharedCandidateResolver<'a> {
    /// Creates a shareable resolver for the candidate whose concrete prefix
    /// is `digits`.
    pub fn new(registry: &'a HoleRegistry, digits: &'a [u16], default: DiscoveryDefault) -> Self {
        SharedCandidateResolver {
            registry,
            digits,
            default,
            touched: Mutex::new(Vec::new()),
        }
    }

    /// Consumes the resolver, returning the union of all workers' concrete
    /// resolutions, sorted by hole id.
    pub fn into_touched(self) -> Vec<(HoleId, u16)> {
        let mut touched = self.touched.into_inner();
        touched.sort_unstable();
        touched
    }

    /// The hole ids this candidate resolves differently from `prev` (same
    /// registry, same default); see [`assignment_delta`].
    pub fn delta_from(&self, prev: &[u16]) -> Vec<HoleId> {
        assignment_delta(self.digits, prev, self.default, self.registry.len())
    }
}

impl SharedResolver for SharedCandidateResolver<'_> {
    fn worker(&self) -> Box<dyn HoleResolver + '_> {
        self.worker_seeded(NameCache::default())
    }

    /// Seeds the worker's name → id fast path with a cache drained from an
    /// earlier worker over the same registry — how a session-held
    /// [`verc3_mck::CheckSession`] avoids re-paying the registry lock for
    /// every hole name on every check. Registry ids are stable for the
    /// registry's lifetime, so a stale entry cannot exist; only caches from
    /// a *different* registry would be wrong, which the `worker_seeded`
    /// contract forbids.
    fn worker_seeded(&self, seed: NameCache) -> Box<dyn HoleResolver + '_> {
        Box::new(WorkerCandidateResolver {
            shared: self,
            cache: seed,
            publish_touches: true,
            seen: Vec::new(),
            app_touches: Vec::new(),
            app_wildcards: Vec::new(),
            app_fresh: Vec::new(),
            pending: Vec::new(),
            pending_idx: FnvHashMap::default(),
        })
    }

    /// A provisional worker for the parallel checker's expansion phase: it
    /// answers every consultation exactly like [`SharedResolver::worker`]
    /// but contributes nothing to the shared touched set — the replay
    /// reports what it actually consumed via
    /// [`SharedResolver::note_replayed_touches`].
    fn expansion_worker(&self, seed: NameCache) -> Box<dyn HoleResolver + '_> {
        Box::new(WorkerCandidateResolver {
            shared: self,
            cache: seed,
            publish_touches: false,
            seen: Vec::new(),
            app_touches: Vec::new(),
            app_wildcards: Vec::new(),
            app_fresh: Vec::new(),
            pending: Vec::new(),
            pending_idx: FnvHashMap::default(),
        })
    }

    /// Merges the replay-confirmed concrete resolutions of one layer into
    /// the shared touched set (first mention of a hole wins, as with eager
    /// worker publication — the resolutions are deterministic, so there is
    /// nothing to disagree about).
    fn note_replayed_touches(&self, touches: &[(usize, u16)]) {
        if touches.is_empty() {
            return;
        }
        let mut touched = self.touched.lock();
        for &(hole, action) in touches {
            if !touched.iter().any(|&(h, _)| h == hole) {
                touched.push((hole, action));
            }
        }
    }

    /// Registers deferred discoveries in the driver's serial order. In naïve
    /// (`ActionZero`) mode every deferred sighting was a *concrete*
    /// consultation whose touch could not be recorded at choose time (no id
    /// existed yet), so the commit also merges the `(id, default)` touches
    /// into the shared touched set — first mention wins, as everywhere else.
    fn commit_discoveries(&self, specs: &[HoleSpec]) -> Vec<usize> {
        let ids: Vec<usize> = specs
            .iter()
            .map(|spec| self.registry.resolve_or_register(spec).0)
            .collect();
        if let Some(action) = default_answer(self.default) {
            let mut touched = self.touched.lock();
            for &id in &ids {
                if !touched.iter().any(|&(h, _)| h == id) {
                    touched.push((id, action));
                }
            }
        }
        ids
    }
}

impl SessionResolver for SharedCandidateResolver<'_> {
    /// The one candidate-resolution rule again, keyed by id alone: digits
    /// answer their hole, everything beyond the frontier answers the
    /// discovery default. Registered-ness is irrelevant — a hole id a
    /// session recorded is registered by construction, and its answer
    /// within one generation depends only on the candidate prefix.
    fn assignment(&self, hole: usize) -> Option<u16> {
        if hole < self.digits.len() {
            Some(self.digits[hole])
        } else {
            default_answer(self.default)
        }
    }
}

/// One checker worker's view of a [`SharedCandidateResolver`].
///
/// First sightings of unknown holes are **deferred** in both discovery
/// modes: the worker answers the discovery default immediately (correct — a
/// fresh hole is necessarily beyond the frontier) but parks the spec in a
/// pending list instead of registering it, so the exploration driver can
/// commit all workers' discoveries at a deterministic sequence point in
/// serial order ([`SharedResolver::commit_discoveries`]). In wildcard
/// (pruning) mode the consultation is reported as a
/// [`WildcardTouch::Fresh`]; in naïve (`ActionZero`) mode the concrete
/// `(hole, 0)` resolution cannot be recorded as a touch yet (no id exists),
/// so it is reported through
/// [`verc3_mck::HoleResolver::application_fresh_touches`] and the commit
/// publishes the touch once the id is assigned. Anything still pending when
/// the worker is dropped (a one-shot serial check, which has no sequence
/// points) is registered then, in this worker's consultation order.
#[derive(Debug)]
struct WorkerCandidateResolver<'a> {
    shared: &'a SharedCandidateResolver<'a>,
    cache: NameCache,
    /// Whether concrete resolutions are published to the shared touched set
    /// as they happen. `true` for ordinary workers; `false` for expansion
    /// workers, whose consultations are provisional until the replay
    /// confirms them ([`SharedResolver::note_replayed_touches`]).
    publish_touches: bool,
    /// Holes this worker has already resolved concretely (locally deduped
    /// mirror of its contributions to the shared touched set).
    seen: Vec<(HoleId, u16)>,
    app_touches: Vec<(HoleId, u16)>,
    app_wildcards: Vec<WildcardTouch>,
    /// Concrete resolutions of not-yet-registered holes since the last
    /// `begin_application`, as `(pending index, action)` pairs.
    app_fresh: Vec<(u32, u16)>,
    /// Specs sighted but not yet registered, in consultation order.
    pending: Vec<HoleSpec>,
    /// name → index into `pending`, so repeat sightings within one drain
    /// window reuse the parked spec.
    pending_idx: FnvHashMap<String, u32>,
}

impl WorkerCandidateResolver<'_> {
    fn record(&mut self, id: HoleId, action: u16) {
        if !self.seen.iter().any(|&(h, _)| h == id) {
            self.seen.push((id, action));
            if self.publish_touches {
                let mut touched = self.shared.touched.lock();
                if !touched.iter().any(|&(h, _)| h == id) {
                    touched.push((id, action));
                }
            }
        }
        if !self.app_touches.iter().any(|&(h, _)| h == id) {
            self.app_touches.push((id, action));
        }
    }

    fn record_wildcard(&mut self, touch: WildcardTouch) {
        if !self.app_wildcards.contains(&touch) {
            self.app_wildcards.push(touch);
        }
    }

    fn record_fresh(&mut self, index: u32, action: u16) {
        if !self.app_fresh.iter().any(|&(i, _)| i == index) {
            self.app_fresh.push((index, action));
        }
    }
}

impl HoleResolver for WorkerCandidateResolver<'_> {
    fn choose(&mut self, spec: &HoleSpec) -> Choice {
        let id = match self.cache.get(spec.name()) {
            Some(&id) => Some(id),
            None => match self.shared.registry.lookup(spec.name()) {
                Some(id) => {
                    self.cache.insert(spec.name().to_owned(), id);
                    Some(id)
                }
                None => None,
            },
        };
        match id {
            Some(id) => match resolve_digit(self.shared.digits, self.shared.default, id, spec) {
                Some(action) => {
                    self.record(id, action);
                    Choice::Action(action as usize)
                }
                None => {
                    self.record_wildcard(WildcardTouch::Known(id));
                    Choice::Wildcard
                }
            },
            None => {
                // Deferred discovery: park the spec and answer the discovery
                // default (a fresh hole is beyond the frontier by
                // construction), in both modes — registration happens at the
                // driver's commit sequence point, in serial order.
                let index = match self.pending_idx.get(spec.name()) {
                    Some(&index) => index,
                    None => {
                        let index = self.pending.len() as u32;
                        self.pending.push(spec.clone());
                        self.pending_idx.insert(spec.name().to_owned(), index);
                        index
                    }
                };
                match default_answer(self.shared.default) {
                    None => {
                        self.record_wildcard(WildcardTouch::Fresh(index));
                        Choice::Wildcard
                    }
                    Some(action) => {
                        self.record_fresh(index, action);
                        Choice::Action(action as usize)
                    }
                }
            }
        }
    }

    fn begin_application(&mut self) {
        self.app_touches.clear();
        self.app_wildcards.clear();
        self.app_fresh.clear();
    }

    fn application_touches(&self) -> &[(usize, u16)] {
        &self.app_touches
    }

    fn application_wildcards(&self) -> &[WildcardTouch] {
        &self.app_wildcards
    }

    fn application_fresh_touches(&self) -> &[(u32, u16)] {
        &self.app_fresh
    }

    fn take_pending_discoveries(&mut self) -> Vec<HoleSpec> {
        self.pending_idx.clear();
        std::mem::take(&mut self.pending)
    }

    fn take_name_cache(&mut self) -> NameCache {
        std::mem::take(&mut self.cache)
    }
}

impl Drop for WorkerCandidateResolver<'_> {
    /// Backstop for drivers without drain points: whatever is still pending
    /// registers now, in this worker's consultation order — which for a
    /// single-worker (serial) run *is* the serial discovery order.
    ///
    /// During a panic unwind the pending specs are dropped instead: they
    /// are speculative discoveries of an evaluation that never completed,
    /// and registering them from unwinding workers would make the registry
    /// order depend on which worker happened to crash first.
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        let fresh_touch = if self.publish_touches {
            default_answer(self.shared.default)
        } else {
            None
        };
        for spec in self.pending.drain(..) {
            let (id, _) = self.shared.registry.resolve_or_register(&spec);
            // Naïve-mode sightings are concrete consultations: a publishing
            // worker owes the shared touched set their `(id, 0)` touches,
            // exactly as the serial resolver would have recorded them.
            if let Some(action) = fresh_touch {
                let mut touched = self.shared.touched.lock();
                if !touched.iter().any(|&(h, _)| h == id) {
                    touched.push((id, action));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, n: usize) -> HoleSpec {
        HoleSpec::new(name, (0..n).map(|i| format!("a{i}")))
    }

    #[test]
    fn shared_resolver_workers_agree_and_merge_touches() {
        let reg = HoleRegistry::new();
        reg.resolve_or_register(&spec("x", 3));
        reg.resolve_or_register(&spec("y", 2));
        let digits = [2u16, 1u16];
        let shared = SharedCandidateResolver::new(&reg, &digits, DiscoveryDefault::Wildcard);
        {
            let mut w1 = shared.worker();
            let mut w2 = shared.worker();
            w1.begin_application();
            assert_eq!(w1.choose(&spec("x", 3)), Choice::Action(2));
            assert_eq!(w1.application_touches(), &[(0, 2)]);
            // A second worker resolves the same hole identically; the shared
            // touched set records it once.
            assert_eq!(w2.choose(&spec("x", 3)), Choice::Action(2));
            assert_eq!(w2.choose(&spec("y", 2)), Choice::Action(1));
            // Lazy discovery through a worker registers on the shared
            // registry; the wildcard answer is not a touch.
            assert_eq!(w1.choose(&spec("z", 2)), Choice::Wildcard);
        }
        assert_eq!(reg.len(), 3);
        assert_eq!(shared.into_touched(), vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn shared_resolver_action_zero_default() {
        let reg = HoleRegistry::new();
        let shared = SharedCandidateResolver::new(&reg, &[], DiscoveryDefault::ActionZero);
        {
            let mut w = shared.worker();
            assert_eq!(w.choose(&spec("fresh", 4)), Choice::Action(0));
        }
        assert_eq!(shared.into_touched(), vec![(0, 0)]);
    }

    #[test]
    fn expansion_workers_do_not_publish_touches() {
        let reg = HoleRegistry::new();
        reg.resolve_or_register(&spec("x", 3));
        reg.resolve_or_register(&spec("y", 2));
        let digits = [2u16, 1u16];
        let shared = SharedCandidateResolver::new(&reg, &digits, DiscoveryDefault::Wildcard);
        {
            let mut w = shared.expansion_worker(NameCache::default());
            w.begin_application();
            assert_eq!(w.choose(&spec("x", 3)), Choice::Action(2));
            assert_eq!(w.choose(&spec("y", 2)), Choice::Action(1));
            // Provisional: identical answers and per-application records...
            assert_eq!(w.application_touches(), &[(0, 2), (1, 1)]);
        }
        // ...but nothing in the shared touched set until the replay
        // confirms which consultations it consumed.
        shared.note_replayed_touches(&[(0, 2)]);
        shared.note_replayed_touches(&[(0, 2), (1, 1)]);
        assert_eq!(shared.into_touched(), vec![(0, 2), (1, 1)]);
    }

    #[test]
    fn touched_deduplicates_repeat_consultations() {
        let reg = HoleRegistry::new();
        reg.resolve_or_register(&spec("x", 2));
        let digits = [1u16];
        let shared = SharedCandidateResolver::new(&reg, &digits, DiscoveryDefault::Wildcard);
        {
            let mut w = shared.worker();
            let _ = w.choose(&spec("x", 2));
            let _ = w.choose(&spec("x", 2));
        }
        assert_eq!(shared.into_touched(), vec![(0, 1)]);
    }
}
