//! The explicit-state model checker: breadth-first search with minimal
//! counterexamples, deadlock detection, and post-exploration property
//! analysis.
//!
//! The checker is deliberately *embedded* (a library type, not a CLI): the
//! synthesis procedure of `verc3-core` dispatches every candidate protocol to
//! a [`Checker`] and consumes the three-valued [`Verdict`] directly, which is
//! the tight coupling the paper argues for over external-tool pipelines
//! (§I–II).
//!
//! One exploration driver, [`CheckSession`], serves every check. It
//! explores in layer-synchronized BFS order over one committed-state core
//! (`SearchCore`) and expands each frontier layer one of two ways, chosen by
//! the effective thread count ([`CheckerOptions::effective_threads`]):
//!
//! * **serially**, in place on the calling thread; or
//! * through the **parallel engine** (`parallel`), which expands,
//!   canonicalizes, fingerprints, and invariant-checks the layer across a
//!   persistent worker pool against a lock-free claim table, writing each
//!   state's expansion as a record draft.
//!
//! Either way every expansion is committed by one deterministic walk, so
//! verdicts, statistics, and counterexample traces are *identical* for any
//! thread count.
//!
//! Every rule application in either schedule consults its holes through the
//! checker's own consultant ([`crate::eval`]), which looks holes up in the
//! session's [`HoleRegistry`], tracks what each application consulted and
//! asks the caller's [`SharedResolver`] only for the answers; the walk
//! registers first sightings at each layer end, in the serial order.
//!
//! The one-shot entry points ([`Checker::run`], [`Checker::run_with`]) each
//! check once on a fresh session over a private registry; the synthesis
//! loop holds a session across candidates, over its generation's registry.
//! The original queue-driven serial BFS survives only as the differential
//! oracle in `reference`, compiled for tests and under the `reference`
//! feature.

mod graph;
mod outcome;
mod parallel;
mod pool;
mod records;
#[cfg(any(test, feature = "reference"))]
pub mod reference;
mod session;
mod trace;

pub use graph::{Edge, ExploredGraph, StateId};
pub use outcome::{Failure, FailureKind, Outcome, Stats, Timing, Verdict};
pub use session::{CheckSession, SessionStats};
pub use trace::{Trace, TraceStep};

use crate::error::MckError;
use crate::eval::{NoHoles, SharedResolver};
use crate::hashers::{fingerprint, FnvHashMap};
use crate::model::TransitionSystem;
use crate::properties::Property;
use crate::registry::HoleRegistry;
use std::time::Instant;

/// Configuration for a [`Checker`].
///
/// Uses a consuming-builder style so common setups read as one expression:
///
/// ```
/// use verc3_mck::CheckerOptions;
///
/// let opts = CheckerOptions::default()
///     .allow_deadlock()
///     .max_states(100_000)
///     .threads(4)
///     .keep_graph(true);
/// # let _ = opts;
/// ```
#[derive(Debug, Clone)]
pub struct CheckerOptions {
    max_states: usize,
    /// Whether a state without successors is an acceptable terminal rather
    /// than an error (off by default: distributed protocols must always be
    /// able to make progress).
    allow_deadlock: bool,
    keep_graph: bool,
    threads: usize,
    clamp_threads: bool,
    #[cfg(any(test, feature = "reference"))]
    pub(super) chunk_states: Option<usize>,
    #[cfg(any(test, feature = "reference"))]
    pub(super) claim_stripes: Option<usize>,
}

impl Default for CheckerOptions {
    fn default() -> Self {
        CheckerOptions {
            max_states: 50_000_000,
            allow_deadlock: false,
            keep_graph: false,
            threads: 1,
            clamp_threads: true,
            #[cfg(any(test, feature = "reference"))]
            chunk_states: None,
            #[cfg(any(test, feature = "reference"))]
            claim_stripes: None,
        }
    }
}

impl CheckerOptions {
    /// Caps the number of distinct states explored; needing to exceed the
    /// cap yields a [`Verdict::Unknown`] outcome flagged via
    /// [`Outcome::incomplete`].
    ///
    /// Admission is clamped, not merely detected: the first state that would
    /// make the committed store exceed the cap is *refused* and exploration
    /// stops there, so `Stats::states_visited ≤ max_states` always holds and
    /// a refused state is never inspected (its invariants are not checked —
    /// the verdict is `Unknown` regardless). Every expansion is committed
    /// through one walk, which enforces the cap at the same deterministic
    /// point at any [`CheckerOptions::threads`] count; the parallel engine
    /// may still *transiently* hold up to one expanded layer of parked
    /// candidate successors in memory before the walk clamps them.
    pub fn max_states(mut self, limit: usize) -> Self {
        self.max_states = limit;
        self
    }

    /// Treats successor-less states as acceptable terminals.
    pub fn allow_deadlock(mut self) -> Self {
        self.allow_deadlock = true;
        self
    }

    /// Retains the explored state graph in the outcome (needed for DOT
    /// export and solution fingerprinting; liveness analysis enables edge
    /// collection automatically regardless of this flag).
    pub fn keep_graph(mut self, keep: bool) -> Self {
        self.keep_graph = keep;
        self
    }

    /// Number of worker threads expanding each BFS layer (default 1: layers
    /// are expanded serially on the calling thread).
    ///
    /// Any thread count produces the same verdict, statistics, and
    /// counterexample depth — with more than one effective thread a
    /// [`CheckSession`] expands each layer through the parallel engine, which
    /// commits it in the serial loop's deterministic order (see `parallel`).
    /// A session's thread count is fixed when it opens.
    ///
    /// By default the requested count is clamped to the machine's available
    /// parallelism (see [`CheckerOptions::clamp_threads`]): asking for 8
    /// threads on a 4-core box runs 4, and asking for any count on a 1-core
    /// box expands serially.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`; see [`CheckerOptions::try_threads`] for the
    /// fallible variant.
    #[track_caller]
    pub fn threads(self, threads: usize) -> Self {
        self.try_threads(threads).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`CheckerOptions::threads`]: rejects `0` with
    /// [`MckError::InvalidConfig`] instead of panicking.
    pub fn try_threads(mut self, threads: usize) -> Result<Self, MckError> {
        if threads == 0 {
            return Err(MckError::InvalidConfig {
                param: "threads",
                reason: "at least one checker thread is required".into(),
            });
        }
        self.threads = threads;
        Ok(self)
    }

    /// Whether [`CheckerOptions::threads`] is clamped to
    /// `std::thread::available_parallelism()` (default `true`).
    ///
    /// Oversubscribing a layer-synchronized checker only adds scheduling
    /// noise, so the clamp is what production callers want; the equivalence
    /// and stress suites disable it to exercise the parallel engine's
    /// interleavings regardless of the host's core count.
    pub fn clamp_threads(mut self, clamp: bool) -> Self {
        self.clamp_threads = clamp;
        self
    }

    /// The thread count a run will actually use: the requested count,
    /// clamped to `std::thread::available_parallelism()` unless
    /// [`CheckerOptions::clamp_threads`] is disabled.
    pub fn effective_threads(&self) -> usize {
        if self.clamp_threads {
            let cores = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            self.threads.min(cores)
        } else {
            self.threads
        }
    }
}

/// The breadth-first explicit-state model checker.
///
/// See the [crate-level example](crate) for basic use; see
/// [`Checker::run_with`] for checking models that contain synthesis holes.
#[derive(Debug, Clone, Default)]
pub struct Checker {
    options: CheckerOptions,
}

impl Checker {
    /// Creates a checker with the given options.
    pub fn new(options: CheckerOptions) -> Self {
        Checker { options }
    }

    /// Verifies a complete (hole-free) model, honoring
    /// [`CheckerOptions::threads`].
    ///
    /// This is [`Checker::run_with`] over [`NoHoles`]: one check on a fresh
    /// [`CheckSession`]. Callers verifying many related candidates should
    /// hold a session themselves and call [`CheckSession::check`]
    /// repeatedly to reuse the shared exploration prefix.
    ///
    /// A model that consults a hole is a usage error: the [`NoHoles`]
    /// resolver panics, the panic-isolation layer catches it, and the run
    /// reports [`Verdict::Unknown`] with [`MckError::CandidatePanicked`].
    /// Use [`Checker::run_with`] with an appropriate resolver for models
    /// containing holes.
    pub fn run<M: TransitionSystem>(&self, model: &M) -> Outcome<M::State> {
        self.run_with(model, &NoHoles)
    }

    /// Opens a long-lived [`CheckSession`] on `model` over `registry`, the
    /// table its hole ids refer to: a reusable checker instance owning the
    /// visited set, the state store, the canonical initial states, and (for
    /// [`CheckerOptions::threads`] `> 1`) a persistent worker pool. The
    /// session registers the holes its checks first sight into `registry`.
    ///
    /// [`CheckSession::check`] can be called repeatedly with different
    /// resolvers; checks that share a resolution prefix with the previous
    /// check resume from the deepest shared BFS checkpoint instead of from
    /// the initial states (or, when every consultation of the previous
    /// check repeats, return its outcome again), while remaining
    /// observationally identical — verdict, statistics, failure
    /// attribution, counterexample trace — to a fresh check of the same
    /// candidate.
    pub fn session<'a, M: TransitionSystem>(
        &self,
        model: &'a M,
        registry: &'a HoleRegistry,
    ) -> CheckSession<'a, M> {
        CheckSession::new(model, self.options.clone(), registry)
    }

    /// Verifies a model, resolving holes through `resolver`, honoring
    /// [`CheckerOptions::threads`]: one check on a fresh [`CheckSession`]
    /// over a private [`HoleRegistry`], serially or through the parallel
    /// engine — bit-identical outcomes either way (see `parallel`). A
    /// one-shot check never queries [`crate::SessionResolver::assignment`],
    /// so any [`SharedResolver`] will do.
    ///
    /// Wildcard resolutions abort their branch and (absent a failure) demote
    /// the verdict to [`Verdict::Unknown`]; see the crate docs for the full
    /// soundness argument. A failure's touched set names holes by their ids
    /// in the private registry, which numbers holes in discovery order; an
    /// edge produced in the layer where its hole was first sighted carries
    /// none of them.
    ///
    /// A panic in user protocol code (a rule, an invariant, or the resolver
    /// itself) is caught here and reported as a [`Verdict::Unknown`] outcome
    /// carrying [`MckError::CandidatePanicked`] — including panics raised
    /// inside pool workers, which the pool collects and re-raises on this
    /// thread after the batch.
    pub fn run_with<M: TransitionSystem>(
        &self,
        model: &M,
        resolver: &dyn SharedResolver,
    ) -> Outcome<M::State> {
        self.session(model, &HoleRegistry::new())
            .check_once(resolver)
    }
}

/// The ids sharing one 64-bit state fingerprint — almost always exactly one.
///
/// Storing ids instead of cloned states halves the checker's resident state
/// memory: the full states live only in [`SearchCore::states`], and every
/// membership probe re-checks equality against that single store, so hash
/// collisions stay correct.
#[derive(Debug, Clone)]
pub(super) enum IdList {
    /// The common case: a fingerprint owned by a single state.
    One(StateId),
    /// Collision overflow.
    Many(Vec<StateId>),
}

impl IdList {
    pub(super) fn as_slice(&self) -> &[StateId] {
        match self {
            IdList::One(id) => std::slice::from_ref(id),
            IdList::Many(ids) => ids,
        }
    }

    pub(super) fn push(&mut self, id: StateId) {
        match self {
            IdList::One(first) => *self = IdList::Many(vec![*first, id]),
            IdList::Many(ids) => ids.push(id),
        }
    }
}

/// Ceiling on committed [`StateId`]s, asserted by [`SearchCore::commit`]:
/// keeps the top two bits of the 32-bit id space free for the successor
/// words of expansion records (`records`) and catches runaway stores long
/// before the id type wraps.
pub(super) const MAX_COMMITTED: StateId = 1 << 30;

/// Adds a committed id to a fingerprint-indexed map (shared by the parallel
/// engine's committed index and the reference driver's visited index).
pub(super) fn insert_id(map: &mut FnvHashMap<u64, IdList>, hash: u64, id: StateId) {
    use std::collections::hash_map::Entry;
    match map.entry(hash) {
        Entry::Occupied(mut e) => e.get_mut().push(id),
        Entry::Vacant(e) => {
            e.insert(IdList::One(id));
        }
    }
}

/// Removes an id from a fingerprint-indexed map — the inverse of
/// [`insert_id`], used by [`CheckSession`] rollback to forget truncated
/// states and stale pending claims.
pub(super) fn remove_id(map: &mut FnvHashMap<u64, IdList>, hash: u64, id: StateId) {
    use std::collections::hash_map::Entry;
    match map.entry(hash) {
        Entry::Occupied(mut e) => match e.get_mut() {
            IdList::One(x) => {
                debug_assert_eq!(*x, id, "removing an id not present in its bucket");
                e.remove();
            }
            IdList::Many(ids) => {
                ids.retain(|&x| x != id);
                match ids.as_slice() {
                    [] => {
                        e.remove();
                    }
                    &[only] => *e.get_mut() = IdList::One(only),
                    _ => {}
                }
            }
        },
        Entry::Vacant(_) => debug_assert!(false, "removing an id from a missing bucket"),
    }
}

/// Consultation record of one tree edge: the `(hole id, action)` pairs the
/// producing rule application resolved. `None` — no allocation at all — for
/// the common hole-free edge.
type TouchRecord = Option<Box<[(usize, u16)]>>;

/// The committed exploration state shared by the session's serial and
/// parallel layer loops and the reference driver: everything keyed by
/// [`StateId`], plus the post-exploration property analysis. The loops
/// differ only in how they *discover and order* states; once a state is
/// committed here the bookkeeping is identical, which is what makes their
/// outcomes comparable field by field.
pub(super) struct SearchCore<'a, M: TransitionSystem> {
    pub(super) model: &'a M,
    pub(super) options: CheckerOptions,
    /// Whether the core is dropped right after this run (one-shot checks
    /// and the reference driver) rather than reused by a [`CheckSession`]:
    /// [`SearchCore::finish`] then *moves* the committed store into a
    /// requested graph instead of cloning it, and the session keeps no
    /// ending to replay.
    pub(super) one_shot: bool,

    pub(super) states: Vec<M::State>,
    pub(super) depth: Vec<u32>,
    pub(super) pred: Vec<Option<(StateId, u32)>>,
    /// For each state, the hole resolutions consulted by the rule
    /// application that first produced it (its tree edge) — the per-edge
    /// `Cₜ` bookkeeping behind refined pruning patterns.
    pub(super) edge_touches: Vec<TouchRecord>,
    pub(super) edges: Option<Vec<Vec<Edge>>>,

    pub(super) reach_found: Vec<bool>,
    pub(super) stats: Stats,
}

impl<'a, M: TransitionSystem> SearchCore<'a, M> {
    pub(super) fn new(model: &'a M, options: CheckerOptions) -> Self {
        let has_liveness = model
            .properties()
            .iter()
            .any(|p| matches!(p, Property::EventuallyQuiescent { .. }));
        let reach_found = vec![
            false;
            model
                .properties()
                .iter()
                .filter(|p| is_reachable(p))
                .count()
        ];
        let collect_edges = options.keep_graph || has_liveness;
        SearchCore {
            model,
            options,
            one_shot: true,
            states: Vec::new(),
            depth: Vec::new(),
            pred: Vec::new(),
            edge_touches: Vec::new(),
            edges: collect_edges.then(Vec::new),
            reach_found,
            stats: Stats::default(),
        }
    }

    /// Appends `state` (already canonicalized, known to be new) and returns
    /// its id. `touches` records the hole resolutions of the producing rule
    /// application.
    pub(super) fn commit(
        &mut self,
        state: M::State,
        from: Option<(StateId, u32)>,
        touches: &[(usize, u16)],
    ) -> StateId {
        let id = self.states.len() as StateId;
        assert!(
            id < MAX_COMMITTED,
            "state store exceeded {MAX_COMMITTED} states; raise CheckerOptions::max_states \
             only below this id ceiling"
        );
        let d = from.map_or(0, |(p, _)| self.depth[p as usize] + 1);
        self.states.push(state);
        self.depth.push(d);
        self.pred.push(from);
        self.edge_touches
            .push((!touches.is_empty()).then(|| touches.to_vec().into_boxed_slice()));
        if let Some(edges) = &mut self.edges {
            edges.push(Vec::new());
        }
        self.stats.max_depth = self.stats.max_depth.max(d as usize);

        // Update reachability goals.
        let state_ref = &self.states[id as usize];
        let mut ri = 0;
        for p in self.model.properties() {
            if let Property::Reachable { pred, .. } = p {
                if !self.reach_found[ri] && pred(state_ref) {
                    self.reach_found[ri] = true;
                }
                ri += 1;
            }
        }
        id
    }

    /// The tree-edge consultation record of a state (empty for hole-free
    /// edges — one shared empty slice, no allocation).
    pub(super) fn touches_of(&self, id: StateId) -> &[(usize, u16)] {
        const NO_TOUCHES: &[(usize, u16)] = &[];
        self.edge_touches[id as usize]
            .as_deref()
            .unwrap_or(NO_TOUCHES)
    }

    /// Checks all invariants against the state with the given id.
    pub(super) fn violated_invariant(&self, id: StateId) -> Option<&str> {
        let state = &self.states[id as usize];
        for p in self.model.properties() {
            if let Property::Invariant { name, pred } = p {
                if !pred(state) {
                    return Some(name);
                }
            }
        }
        None
    }

    pub(super) fn trace_to(&self, id: StateId) -> Trace<M::State> {
        let mut rev: Vec<TraceStep<M::State>> = Vec::new();
        let mut cur = id;
        loop {
            let rule = self.pred[cur as usize]
                .map(|(_, r)| self.model.rules()[r as usize].name().to_owned());
            rev.push(TraceStep {
                rule,
                state: self.states[cur as usize].clone(),
            });
            match self.pred[cur as usize] {
                Some((p, _)) => cur = p,
                None => break,
            }
        }
        rev.reverse();
        Trace::new(rev)
    }

    /// Union of the hole resolutions along the tree path to `id`, plus any
    /// `extra` resolutions (used for the deadlocked state's own expansion),
    /// sorted by hole id.
    ///
    /// Resolvers are deterministic within a run, so a hole never appears with
    /// two different actions and sort-plus-dedup (rather than the quadratic
    /// first-occurrence scan this replaced) loses nothing.
    pub(super) fn trace_touched(&self, id: StateId, extra: &[(usize, u16)]) -> Vec<(usize, u16)> {
        let mut out: Vec<(usize, u16)> = Vec::new();
        let mut cur = id;
        loop {
            out.extend_from_slice(self.touches_of(cur));
            match self.pred[cur as usize] {
                Some((p, _)) => cur = p,
                None => break,
            }
        }
        out.extend_from_slice(extra);
        out.sort_unstable();
        out.dedup_by_key(|pair| pair.0);
        out
    }

    /// The admission clamp: refuses a new state at the cap before it is
    /// inspected, so the committed store never outgrows
    /// [`CheckerOptions::max_states`].
    pub(super) fn admit(&mut self, start: Instant) -> Result<(), Box<Outcome<M::State>>> {
        if self.states.len() < self.options.max_states {
            return Ok(());
        }
        let limit = self.options.max_states;
        let limit = MckError::StateLimitExceeded { limit };
        Err(Box::new(self.analyze(start, Some(limit))))
    }

    /// Ends the check at committed state `id`, which violates the
    /// invariant named `property`.
    pub(super) fn invariant_failure(
        &mut self,
        start: Instant,
        id: StateId,
        property: String,
    ) -> Outcome<M::State> {
        let failure = Failure {
            kind: FailureKind::InvariantViolation,
            property,
            touched: Some(self.trace_touched(id, &[])),
            trace: Some(self.trace_to(id)),
        };
        self.finish(start, Verdict::Failure, Some(failure), None)
    }

    /// Ends the check at state `id`, which has no successor; `expansion`
    /// holds the resolutions its expansion consulted, which decided that
    /// every rule declined to fire.
    pub(super) fn deadlock(
        &mut self,
        start: Instant,
        id: StateId,
        expansion: &[(usize, u16)],
    ) -> Outcome<M::State> {
        let failure = Failure {
            kind: FailureKind::Deadlock,
            property: "deadlock freedom".to_owned(),
            touched: Some(self.trace_touched(id, expansion)),
            trace: Some(self.trace_to(id)),
        };
        self.finish(start, Verdict::Failure, Some(failure), None)
    }

    /// Post-exploration property analysis (reachability obligations,
    /// eventual quiescence) and verdict computation for a run that found no
    /// failure during exploration.
    pub(super) fn analyze(
        &mut self,
        start: Instant,
        incomplete: Option<MckError>,
    ) -> Outcome<M::State> {
        self.stats.states_visited = self.states.len();
        let tainted = self.stats.wildcard_hits > 0 || incomplete.is_some();

        // Reachability obligations: "never reached" is only conclusive over
        // a complete, wildcard-free exploration.
        if !tainted {
            let mut ri = 0;
            for p in self.model.properties() {
                if let Property::Reachable { name, .. } = p {
                    if !self.reach_found[ri] {
                        let failure = Failure {
                            kind: FailureKind::UnreachableGoal,
                            property: name.to_owned(),
                            trace: None,
                            touched: None,
                        };
                        return self.finish(start, Verdict::Failure, Some(failure), None);
                    }
                    ri += 1;
                }
            }

            // Eventual quiescence (AG EF q) over the explored graph.
            if let Some(edges) = &self.edges {
                for p in self.model.properties() {
                    if let Property::EventuallyQuiescent { name, quiescent } = p {
                        let ok = graph::can_reach(&self.states, edges, |s| quiescent(s));
                        if let Some(bad) = ok.iter().position(|&r| !r) {
                            let failure = Failure {
                                kind: FailureKind::QuiescenceViolation,
                                property: name.to_owned(),
                                trace: Some(self.trace_to(bad as StateId)),
                                touched: None,
                            };
                            return self.finish(start, Verdict::Failure, Some(failure), None);
                        }
                    }
                }
            }
        }

        let verdict = if tainted {
            Verdict::Unknown
        } else {
            Verdict::Success
        };
        self.finish(start, verdict, None, incomplete)
    }

    /// Packages the run's result. Non-consuming, so a [`CheckSession`] can
    /// keep the core alive across checks: a requested graph is *moved* out
    /// of the committed store when the core is about to be dropped
    /// ([`SearchCore::one_shot`]) and cloned only for reusable
    /// sessions, whose store must survive into the next check.
    pub(super) fn finish(
        &mut self,
        start: Instant,
        verdict: Verdict,
        failure: Option<Failure<M::State>>,
        incomplete: Option<MckError>,
    ) -> Outcome<M::State> {
        self.stats.states_visited = self.states.len();
        let graph = self.options.keep_graph.then(|| {
            if self.one_shot {
                ExploredGraph {
                    rule_names: rule_names(self.model),
                    states: std::mem::take(&mut self.states),
                    depth: std::mem::take(&mut self.depth),
                    edges: self.edges.take().unwrap_or_default(),
                }
            } else {
                ExploredGraph {
                    rule_names: rule_names(self.model),
                    states: self.states.clone(),
                    depth: self.depth.clone(),
                    edges: self.edges.clone().unwrap_or_default(),
                }
            }
        });
        Outcome {
            verdict,
            failure,
            stats: self.stats.clone(),
            timing: Timing {
                elapsed: start.elapsed(),
            },
            incomplete,
            graph,
            model: self.model.name().to_owned(),
        }
    }
}

fn is_reachable<S>(p: &Property<S>) -> bool {
    matches!(p, Property::Reachable { .. })
}

fn rule_names<M: TransitionSystem>(model: &M) -> Vec<String> {
    model.rules().iter().map(|r| r.name().to_owned()).collect()
}

/// Shared assertions for the equivalence contract — every check, at any
/// thread count, matches the reference serial BFS — used by the in-crate
/// tests (the out-of-crate suites in `tests/` re-implement them over the
/// public API).
#[cfg(test)]
pub(super) mod tests_support {
    use super::*;

    /// Asserts two outcomes are indistinguishable: verdict, full `Stats`,
    /// and failure details (kind, property, touched set, and the whole
    /// trace).
    pub(crate) fn assert_same_outcome<S: std::fmt::Debug>(
        got: &Outcome<S>,
        want: &Outcome<S>,
        what: &str,
    ) {
        assert_eq!(got.verdict(), want.verdict(), "{what}: verdict");
        assert_eq!(got.stats(), want.stats(), "{what}: stats");
        match (got.failure(), want.failure()) {
            (None, None) => {}
            (Some(g), Some(w)) => {
                assert_eq!(g.kind, w.kind, "{what}: failure kind");
                assert_eq!(g.property, w.property, "{what}: property");
                assert_eq!(g.touched, w.touched, "{what}: touched");
                assert_eq!(
                    format!("{:?}", g.trace),
                    format!("{:?}", w.trace),
                    "{what}: counterexample"
                );
            }
            (g, w) => panic!("{what}: failure presence diverged: {g:?} vs {w:?}"),
        }
    }

    /// Checks `model` at 1, 2, 4, and 8 threads under `options` (clamping
    /// disabled, so the parallel engine runs for real on any host) and
    /// asserts every outcome matches the reference BFS.
    pub(crate) fn assert_equivalent<M: TransitionSystem>(
        model: &M,
        resolver: &dyn SharedResolver,
        options: CheckerOptions,
    ) {
        let want = reference::Bfs::new(model, &options, resolver, &HoleRegistry::new()).explore();
        for threads in [1, 2, 4, 8] {
            let got = Checker::new(options.clone().threads(threads).clamp_threads(false))
                .run_with(model, resolver);
            assert_same_outcome(&got, &want, &format!("{threads} threads"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelBuilder;
    use crate::rule::RuleOutcome;

    /// Counter to 3 with wraparound; invariant `< 4` holds.
    fn wrapping_counter() -> crate::model::BuiltModel<u8> {
        let mut b = ModelBuilder::new("wrap");
        b.initial(0u8);
        b.rule("step", |&s: &u8, _| RuleOutcome::Next((s + 1) % 4));
        b.invariant("bounded", |&s: &u8| s < 4);
        b.finish()
    }

    #[test]
    fn success_on_safe_cycle() {
        let m = wrapping_counter();
        let out = Checker::new(CheckerOptions::default()).run(&m);
        assert_eq!(out.verdict(), Verdict::Success);
        assert_eq!(out.stats().states_visited, 4);
        assert_eq!(out.stats().transitions, 4);
        assert!(out.failure().is_none());
    }

    #[test]
    fn invariant_violation_has_minimal_trace() {
        let mut b = ModelBuilder::new("grow");
        b.initial(0u8);
        b.rule("slow", |&s: &u8, _| {
            if s < 10 {
                RuleOutcome::Next(s + 1)
            } else {
                RuleOutcome::Disabled
            }
        });
        b.rule("fast", |&s: &u8, _| {
            if s < 10 {
                RuleOutcome::Next(s + 2)
            } else {
                RuleOutcome::Disabled
            }
        });
        b.invariant("below six", |&s: &u8| s < 6);
        let m = b.finish();
        let out = Checker::new(CheckerOptions::default().allow_deadlock()).run(&m);
        assert_eq!(out.verdict(), Verdict::Failure);
        let f = out.failure().unwrap();
        assert_eq!(f.kind, FailureKind::InvariantViolation);
        assert_eq!(f.property, "below six");
        // Minimal path to a state >= 6 is three `fast` steps: 0->2->4->6.
        let trace = f.trace.as_ref().unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(*trace.last_state(), 6);
    }

    #[test]
    fn deadlock_detected_and_allowed() {
        let mut b = ModelBuilder::new("sink");
        b.initial(0u8);
        b.rule("to-sink", |&s: &u8, _| {
            if s == 0 {
                RuleOutcome::Next(1)
            } else {
                RuleOutcome::Disabled
            }
        });
        let m = b.finish();

        let out = Checker::new(CheckerOptions::default()).run(&m);
        assert_eq!(out.verdict(), Verdict::Failure);
        assert_eq!(out.failure().unwrap().kind, FailureKind::Deadlock);
        assert_eq!(out.failure().unwrap().trace.as_ref().unwrap().len(), 1);

        let out = Checker::new(CheckerOptions::default().allow_deadlock()).run(&m);
        assert_eq!(out.verdict(), Verdict::Success);
    }

    #[test]
    fn reachability_goal_failure() {
        let mut b = ModelBuilder::new("never-nine");
        b.initial(0u8);
        b.rule("step", |&s: &u8, _| RuleOutcome::Next((s + 1) % 4));
        b.reachable("reaches nine", |&s: &u8| s == 9);
        b.reachable("reaches two", |&s: &u8| s == 2);
        let m = b.finish();
        let out = Checker::new(CheckerOptions::default()).run(&m);
        assert_eq!(out.verdict(), Verdict::Failure);
        let f = out.failure().unwrap();
        assert_eq!(f.kind, FailureKind::UnreachableGoal);
        assert_eq!(f.property, "reaches nine");
        assert!(f.trace.is_none());
    }

    #[test]
    fn quiescence_violation_detected() {
        // 0 can idle at 0 (quiescent); once it moves to 1 it is trapped in
        // the 1<->2 cycle and can never return: AG EF q fails.
        let mut b = ModelBuilder::new("trap");
        b.initial(0u8);
        b.rule("leave", |&s: &u8, _| {
            if s == 0 {
                RuleOutcome::Next(1)
            } else {
                RuleOutcome::Disabled
            }
        });
        b.rule("spin", |&s: &u8, _| match s {
            1 => RuleOutcome::Next(2),
            2 => RuleOutcome::Next(1),
            _ => RuleOutcome::Disabled,
        });
        b.eventually_quiescent("returns home", |&s: &u8| s == 0);
        let m = b.finish();
        let out = Checker::new(CheckerOptions::default().allow_deadlock()).run(&m);
        assert_eq!(out.verdict(), Verdict::Failure);
        let f = out.failure().unwrap();
        assert_eq!(f.kind, FailureKind::QuiescenceViolation);
        assert!(f.trace.is_some());
    }

    #[test]
    fn quiescence_holds_on_reversible_model() {
        let mut b = ModelBuilder::new("wrap-q");
        b.initial(0u8);
        b.rule("step", |&s: &u8, _| RuleOutcome::Next((s + 1) % 4));
        b.eventually_quiescent("home", |&s: &u8| s == 0);
        let m = b.finish();
        let out = Checker::new(CheckerOptions::default()).run(&m);
        assert_eq!(out.verdict(), Verdict::Success);
    }

    #[test]
    fn state_limit_yields_unknown() {
        let mut b = ModelBuilder::new("big");
        b.initial(0u64);
        b.rule("inc", |&s: &u64, _| RuleOutcome::Next(s + 1));
        let m = b.finish();
        let out = Checker::new(CheckerOptions::default().max_states(100)).run(&m);
        assert_eq!(out.verdict(), Verdict::Unknown);
        assert_eq!(
            out.stats().states_visited,
            100,
            "admission is clamped exactly at the cap"
        );
        assert!(matches!(
            out.incomplete(),
            Some(MckError::StateLimitExceeded { limit: 100 })
        ));
    }

    #[test]
    fn graph_is_kept_on_request() {
        let m = wrapping_counter();
        let out = Checker::new(CheckerOptions::default().keep_graph(true)).run(&m);
        let g = out.graph().expect("graph requested");
        assert_eq!(g.len(), 4);
        assert!(g.to_dot("wrap").contains("s0 -> s1"));
    }

    #[test]
    fn blocked_rules_yield_unknown() {
        use crate::eval::{Choice, FixedResolver, HoleSpec};
        let mut b = ModelBuilder::new("holey");
        b.initial(0u8);
        b.rule("choose", |&s: &u8, ctx| {
            if s != 0 {
                return RuleOutcome::Disabled;
            }
            let spec = HoleSpec::new("h", ["one", "two"]);
            match ctx.choose(&spec) {
                Choice::Action(i) => RuleOutcome::Next(i as u8 + 1),
                Choice::Wildcard => RuleOutcome::Blocked,
            }
        });
        let m = b.finish();

        // Wildcard: branch aborted, verdict unknown even though no failure.
        let wild = FixedResolver::new();
        let out = Checker::new(CheckerOptions::default().allow_deadlock()).run_with(&m, &wild);
        assert_eq!(out.verdict(), Verdict::Unknown);
        assert_eq!(out.stats().wildcard_hits, 1);
        assert_eq!(out.stats().states_visited, 1);

        // Concrete choice: fully explored.
        let fixed = FixedResolver::from_pairs([("h", 1usize)]);
        let out = Checker::new(CheckerOptions::default().allow_deadlock()).run_with(&m, &fixed);
        assert_eq!(out.verdict(), Verdict::Success);
        assert_eq!(out.stats().states_visited, 2);
    }

    #[test]
    fn deadlock_not_claimed_when_branch_blocked() {
        use crate::eval::{Choice, FixedResolver, HoleSpec};
        let mut b = ModelBuilder::new("maybe-exit");
        b.initial(0u8);
        b.rule("exit", |&s: &u8, ctx| {
            if s != 0 {
                return RuleOutcome::Disabled;
            }
            let spec = HoleSpec::new("exit-how", ["left", "right"]);
            match ctx.choose(&spec) {
                Choice::Action(i) => RuleOutcome::Next(i as u8 + 1),
                Choice::Wildcard => RuleOutcome::Blocked,
            }
        });
        let m = b.finish();
        // State 0 has no successor, but only because the hole is wildcard:
        // must NOT be reported as deadlock.
        let out = Checker::new(CheckerOptions::default()).run_with(&m, &FixedResolver::new());
        assert_eq!(out.verdict(), Verdict::Unknown);
    }

    #[test]
    fn id_list_collision_overflow() {
        let mut l = IdList::One(3);
        assert_eq!(l.as_slice(), &[3]);
        l.push(7);
        l.push(9);
        assert_eq!(l.as_slice(), &[3, 7, 9]);
    }
}
