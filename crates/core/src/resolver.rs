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
//! The resolver only answers. Which holes a run consulted — the "touched"
//! set that failures prune on in refined-pattern mode and that identifies a
//! solution (holes never consulted by a successful run are genuine
//! don't-cares) — is read from the check session's logs
//! ([`verc3_mck::CheckSession::touched`]), which record every consultation
//! the checker's walk committed.

use crate::hole::{HoleId, HoleRegistry};
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
/// ([`verc3_mck::SharedResolver::worker`] /
/// [`verc3_mck::HoleResolver::take_name_cache`]) that lets a `CheckSession`
/// carry one cache across checks.
///
/// Lives longer than any single resolver: a session re-seeds it into every
/// check's workers so that, in the common case, resolving a hole does not
/// take the registry lock at all — the lock-free fast path the paper found
/// necessary (§II, *Parallel Synthesis*).
pub use verc3_mck::NameCache;

/// The one candidate-resolution rule: holes inside the concrete prefix answer
/// their digit; holes beyond it answer the discovery default. `Some(action)`
/// is a concrete answer; `None` is the wildcard.
fn resolve_digit(digits: &[u16], default: DiscoveryDefault, id: HoleId) -> Option<u16> {
    match digits.get(id) {
        Some(&action) => Some(action),
        None => default_answer(default),
    }
}

/// What an unassigned (beyond-frontier or undiscovered) hole resolves to.
fn default_answer(default: DiscoveryDefault) -> Option<u16> {
    match default {
        DiscoveryDefault::Wildcard => None,
        DiscoveryDefault::ActionZero => Some(0),
    }
}

/// The hole resolver for one candidate evaluation, shareable across the
/// checker's workers (the thread count of `SynthOptions::checker`).
///
/// One instance lives for exactly one model-checking run; the checker's
/// serial schedule and each parallel chunk obtain their own [`HoleResolver`]
/// through [`SharedResolver::worker`]. Choices are pure functions of the
/// shared `(registry, digits, default)` triple, so every worker answers
/// every hole identically — the consistency contract the parallel checker
/// relies on. Each worker keeps:
///
/// * a private name→id cache (lock-free fast path; the shared registry is
///   consulted once per hole per worker, or per session when the session
///   seeds it), and
/// * a private per-application consultation log, feeding the checker's
///   per-edge `Cₜ` attribution and its layer logs without cross-thread
///   traffic.
#[derive(Debug)]
pub struct SharedCandidateResolver<'a> {
    registry: &'a HoleRegistry,
    digits: &'a [u16],
    default: DiscoveryDefault,
}

impl<'a> SharedCandidateResolver<'a> {
    /// Creates a shareable resolver for the candidate whose concrete prefix
    /// is `digits`.
    pub fn new(registry: &'a HoleRegistry, digits: &'a [u16], default: DiscoveryDefault) -> Self {
        SharedCandidateResolver {
            registry,
            digits,
            default,
        }
    }
}

impl SharedResolver for SharedCandidateResolver<'_> {
    /// A worker whose name → id fast path starts from `seed`, a cache
    /// drained from an earlier worker over the same registry — how a
    /// session-held [`verc3_mck::CheckSession`] avoids re-paying the
    /// registry lock for every hole name on every check. Registry ids are
    /// stable for the registry's lifetime, so a stale entry cannot exist;
    /// only caches from a *different* registry would be wrong, which the
    /// seeding contract forbids.
    fn worker(&self, seed: NameCache) -> Box<dyn HoleResolver + '_> {
        Box::new(WorkerCandidateResolver {
            shared: self,
            cache: seed,
            app_touches: Vec::new(),
            app_wildcards: Vec::new(),
            app_fresh: Vec::new(),
            pending: Vec::new(),
            pending_idx: FnvHashMap::default(),
        })
    }

    /// Registers deferred discoveries in the order given: the walk's serial
    /// order.
    fn commit_discoveries(&self, specs: &[HoleSpec]) -> Vec<usize> {
        specs
            .iter()
            .map(|spec| self.registry.resolve_or_register(spec).0)
            .collect()
    }
}

impl SessionResolver for SharedCandidateResolver<'_> {
    /// The one candidate-resolution rule again, keyed by id alone: digits
    /// answer their hole, everything beyond the frontier answers the
    /// discovery default. Registered-ness is irrelevant — a hole id a
    /// session recorded is registered by construction, and its answer
    /// within one generation depends only on the candidate prefix.
    fn assignment(&self, hole: usize) -> Option<u16> {
        resolve_digit(self.digits, self.default, hole)
    }
}

/// One checker worker's view of a [`SharedCandidateResolver`].
///
/// First sightings of unknown holes are **deferred** in both discovery
/// modes: the worker answers the discovery default immediately (correct — a
/// fresh hole is necessarily beyond the frontier) but parks the spec in a
/// pending list instead of registering it, so the checker's walk can
/// commit the discoveries it reached at a deterministic sequence point in
/// serial order ([`SharedResolver::commit_discoveries`]). In wildcard
/// (pruning) mode the consultation is reported as a
/// [`WildcardTouch::Fresh`]; in naïve (`ActionZero`) mode the concrete
/// `(hole, 0)` resolution cannot be reported as a touch yet (no id exists),
/// so it goes through
/// [`verc3_mck::HoleResolver::application_fresh_touches`] and the walk
/// logs it under the id the commit assigns. A spec never drained is never
/// registered.
#[derive(Debug)]
struct WorkerCandidateResolver<'a> {
    shared: &'a SharedCandidateResolver<'a>,
    cache: NameCache,
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
            Some(id) => match resolve_digit(self.shared.digits, self.shared.default, id) {
                Some(action) => {
                    debug_assert!(
                        (action as usize) < spec.arity(),
                        "candidate digit {action} out of range for hole `{}`",
                        spec.name()
                    );
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

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, n: usize) -> HoleSpec {
        HoleSpec::new(name, (0..n).map(|i| format!("a{i}")))
    }

    #[test]
    fn workers_answer_identically() {
        let reg = HoleRegistry::new();
        reg.resolve_or_register(&spec("x", 3));
        reg.resolve_or_register(&spec("y", 2));
        let digits = [2u16, 1u16];
        let shared = SharedCandidateResolver::new(&reg, &digits, DiscoveryDefault::Wildcard);
        let mut w1 = shared.worker(NameCache::default());
        let mut w2 = shared.worker(NameCache::default());
        w1.begin_application();
        w2.begin_application();
        assert_eq!(w1.choose(&spec("x", 3)), Choice::Action(2));
        assert_eq!(w1.application_touches(), &[(0, 2)]);
        // A second worker resolves the same holes identically, and each
        // worker logs only its own consultations.
        assert_eq!(w2.choose(&spec("x", 3)), Choice::Action(2));
        assert_eq!(w2.choose(&spec("y", 2)), Choice::Action(1));
        assert_eq!(w2.application_touches(), &[(0, 2), (1, 1)]);
        assert_eq!(w1.application_touches(), &[(0, 2)]);
        // The session's assignment query gives the same answers.
        assert_eq!(shared.assignment(0), Some(2));
        assert_eq!(shared.assignment(1), Some(1));
        assert_eq!(shared.assignment(2), None);
    }

    #[test]
    fn a_first_sighting_stays_unregistered_until_committed() {
        let reg = HoleRegistry::new();
        reg.resolve_or_register(&spec("x", 2));
        let shared = SharedCandidateResolver::new(&reg, &[1], DiscoveryDefault::Wildcard);
        let mut w1 = shared.worker(NameCache::default());
        let mut w2 = shared.worker(NameCache::default());
        w1.begin_application();
        // A wildcard answer to a parked spec, numbered by first sighting;
        // a repeat sighting reuses the parked spec.
        assert_eq!(w1.choose(&spec("z", 2)), Choice::Wildcard);
        assert_eq!(w1.choose(&spec("w", 2)), Choice::Wildcard);
        assert_eq!(w1.choose(&spec("z", 2)), Choice::Wildcard);
        assert_eq!(
            w1.application_wildcards(),
            &[WildcardTouch::Fresh(0), WildcardTouch::Fresh(1)]
        );
        assert!(w1.application_touches().is_empty());
        assert_eq!(w2.choose(&spec("w", 2)), Choice::Wildcard);
        assert_eq!(reg.len(), 1, "sightings alone register nothing");
        // Dropping a worker registers nothing either: only a commit does,
        // in the order given, one id per spec.
        let (first, second) = (w1.take_pending_discoveries(), w2.take_pending_discoveries());
        drop((w1, w2));
        assert_eq!(reg.len(), 1);
        let specs: Vec<HoleSpec> = first.into_iter().chain(second).collect();
        assert_eq!(shared.commit_discoveries(&specs), vec![1, 2, 2]);
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.lookup("z"), Some(1));
        // A registered hole beyond the frontier is a known wildcard.
        let mut w = shared.worker(NameCache::default());
        assert_eq!(w.choose(&spec("w", 2)), Choice::Wildcard);
        assert_eq!(w.application_wildcards(), &[WildcardTouch::Known(2)]);
    }

    #[test]
    fn action_zero_reports_first_sightings_as_fresh_touches() {
        let reg = HoleRegistry::new();
        let shared = SharedCandidateResolver::new(&reg, &[], DiscoveryDefault::ActionZero);
        let mut w = shared.worker(NameCache::default());
        w.begin_application();
        assert_eq!(w.choose(&spec("fresh", 4)), Choice::Action(0));
        assert_eq!(w.application_fresh_touches(), &[(0, 0)]);
        assert!(w.application_touches().is_empty());
        assert_eq!(reg.len(), 0);
        let ids = shared.commit_discoveries(&w.take_pending_discoveries());
        assert_eq!(ids, vec![0]);
        // Once registered, the same hole is an ordinary concrete touch.
        let mut w = shared.worker(NameCache::default());
        assert_eq!(w.choose(&spec("fresh", 4)), Choice::Action(0));
        assert_eq!(w.application_touches(), &[(0, 0)]);
    }

    #[test]
    fn application_touches_deduplicate_repeat_consultations() {
        let reg = HoleRegistry::new();
        reg.resolve_or_register(&spec("x", 2));
        let digits = [1u16];
        let shared = SharedCandidateResolver::new(&reg, &digits, DiscoveryDefault::Wildcard);
        let mut w = shared.worker(NameCache::default());
        w.begin_application();
        let _ = w.choose(&spec("x", 2));
        let _ = w.choose(&spec("x", 2));
        assert_eq!(w.application_touches(), &[(0, 1)]);
        w.begin_application();
        assert!(w.application_touches().is_empty());
    }
}
