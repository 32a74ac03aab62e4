//! The hole mechanism: how transition rules defer choices to a synthesizer.
//!
//! A *hole* is a point in a transition rule where the designer has not yet
//! committed to an implementation; instead they supply a finite library of
//! candidate **actions** (pure functions, per the paper §II) and let the
//! synthesis procedure enumerate them. A rule consults its holes through a
//! [`HoleResolver`]:
//!
//! * During plain model checking of a complete protocol there are no holes
//!   and [`NoHoles`] is used.
//! * During synthesis, `verc3-core` supplies a resolver backed by the current
//!   *candidate configuration vector*. Holes are **discovered lazily**: the
//!   first time the model checker executes a rule containing an unknown hole,
//!   the resolver registers it. Until a later candidate assigns it a concrete
//!   action, the hole resolves to [`Choice::Wildcard`], which instructs the
//!   rule to return [`crate::RuleOutcome::Blocked`] — aborting that execution
//!   branch exactly as the paper prescribes, and producing the third
//!   verification verdict, *unknown*.
//!
//! Holes are identified by name. The same [`HoleSpec`] value should be reused
//! across invocations (store it in the model), both for speed — resolvers may
//! cache by address — and because a hole's action library must never change
//! within a synthesis run.

use crate::hashers::FnvHashMap;
use std::fmt;

/// A hole name → resolver-defined id lookup cache.
///
/// Resolving a hole by name usually means taking a shared-registry lock;
/// worker resolvers therefore keep a private name cache so each hole pays
/// the lock once per worker. The cache outlives any single worker: drivers
/// that create workers repeatedly over one hole namespace (most notably
/// [`crate::checker::CheckSession`], which builds a fresh worker per
/// `check`/chunk) drain it back via [`HoleResolver::take_name_cache`] and
/// re-seed the next worker through [`SharedResolver::worker_seeded`], so
/// the per-name lock is paid once per *session*, not once per check.
///
/// Keyed with the checker's deterministic FNV hasher: the cache sits on the
/// per-rule-application hot path, where SipHash on short hole names is
/// measurable overhead.
pub type NameCache = FnvHashMap<String, usize>;

/// Declaration of a hole: its stable name plus the candidate action library.
///
/// The action list gives the *names* of the candidate actions; what each
/// action does is up to the model code that switches on the resolved index.
/// Action indices are meaningful: pruning patterns and candidate vectors
/// refer to actions by position in this list.
///
/// # Examples
///
/// ```
/// use verc3_mck::HoleSpec;
///
/// let hole = HoleSpec::new(
///     "cache/SM_AD+Inv/next",
///     ["I", "S", "M", "IS_D", "IM_AD", "SM_AD", "WM_A"],
/// );
/// assert_eq!(hole.arity(), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoleSpec {
    name: String,
    actions: Vec<String>,
}

impl HoleSpec {
    /// Creates a hole declaration from a name and action names.
    ///
    /// # Panics
    ///
    /// Panics if the action library is empty — a hole with no candidate
    /// actions can never be filled.
    pub fn new<N, I, A>(name: N, actions: I) -> Self
    where
        N: Into<String>,
        I: IntoIterator<Item = A>,
        A: Into<String>,
    {
        let actions: Vec<String> = actions.into_iter().map(Into::into).collect();
        assert!(!actions.is_empty(), "hole must offer at least one action");
        HoleSpec {
            name: name.into(),
            actions,
        }
    }

    /// The hole's stable, globally unique name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The names of the candidate actions, in index order.
    pub fn actions(&self) -> &[String] {
        &self.actions
    }

    /// Number of candidate actions (the radix this hole contributes to the
    /// candidate space).
    pub fn arity(&self) -> usize {
        self.actions.len()
    }

    /// Name of the action at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.arity()`.
    pub fn action_name(&self, index: usize) -> &str {
        &self.actions[index]
    }
}

impl fmt::Display for HoleSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.name, self.actions.join("|"))
    }
}

/// One wildcard consultation inside a rule application, as reported by
/// [`HoleResolver::application_wildcards`].
///
/// Wildcard answers are not "touches" (no concrete action was handed out,
/// so they never appear in [`HoleResolver::application_touches`]) — but a
/// [`crate::checker::CheckSession`] still needs to know *which* holes an
/// exploration consulted, because a candidate that later assigns one of
/// them a concrete action invalidates every checkpoint at or beyond that
/// consultation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WildcardTouch {
    /// A hole the resolver has already registered, by its resolver-defined
    /// id (the same id space as [`HoleResolver::application_touches`]).
    Known(usize),
    /// A hole first sighted by this worker whose registration is deferred
    /// (see [`HoleResolver::take_pending_discoveries`]): the index into the
    /// spec list the *next* `take_pending_discoveries` call will return.
    Fresh(u32),
}

/// The outcome of resolving a hole.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Choice {
    /// Use the candidate action at this index of the hole's library.
    Action(usize),
    /// The hole is unassigned in the current candidate (the wildcard/default
    /// action): the rule must abort this execution branch by returning
    /// [`crate::RuleOutcome::Blocked`]. This is the default, matching a
    /// freshly discovered hole that nobody has assigned yet.
    #[default]
    Wildcard,
}

impl Choice {
    /// Returns the action index, or `None` for a wildcard.
    pub fn action(self) -> Option<usize> {
        match self {
            Choice::Action(i) => Some(i),
            Choice::Wildcard => None,
        }
    }
}

/// Resolves hole choices during state-space exploration.
///
/// Implementations must be deterministic within one model-checker run: the
/// same hole must resolve to the same choice every time, since BFS may
/// execute a rule from many states.
///
/// The `begin_application` / `application_touches` pair lets the checker
/// attribute hole consultations to individual rule applications. The paper's
/// key insight is that a minimal error trace rarely touches every hole
/// (`Cₜ ⊆ C`, §II); by recording which holes each transition consulted, the
/// checker can report the exact consultation set of a counterexample trace,
/// and the synthesizer can prune on that set alone. Resolvers that do not
/// track consultations (e.g. [`NoHoles`]) use the default no-op
/// implementations.
pub trait HoleResolver {
    /// Resolves the choice for `hole`.
    ///
    /// Implementations may register previously unseen holes as a side effect
    /// (lazy hole discovery).
    fn choose(&mut self, hole: &HoleSpec) -> Choice;

    /// Called by the checker before each rule application; tracking
    /// resolvers reset their per-application consultation buffer here.
    fn begin_application(&mut self) {}

    /// The concrete `(hole id, action)` resolutions handed out since the
    /// last [`HoleResolver::begin_application`]. Hole ids are
    /// implementation-defined (the synthesis engine uses registry ids).
    fn application_touches(&self) -> &[(usize, u16)] {
        &[]
    }

    /// The wildcard resolutions handed out since the last
    /// [`HoleResolver::begin_application`], for resolvers that track
    /// consultations (see [`WildcardTouch`]). The default — no tracking —
    /// is correct for hole-free models and for one-shot checking, where
    /// nothing ever asks which holes went unanswered.
    fn application_wildcards(&self) -> &[WildcardTouch] {
        &[]
    }

    /// The concrete resolutions handed out since the last
    /// [`HoleResolver::begin_application`] to holes whose registration is
    /// still deferred (see [`HoleResolver::take_pending_discoveries`]):
    /// `(index, action)` pairs where `index` points into the spec list the
    /// *next* `take_pending_discoveries` call will return — the concrete
    /// sibling of [`WildcardTouch::Fresh`], for resolvers whose discovery
    /// default is a real action rather than the wildcard. Drivers log these
    /// once the commit assigns the hole its id. The default — no deferral —
    /// is an empty slice.
    fn application_fresh_touches(&self) -> &[(u32, u16)] {
        &[]
    }

    /// Drains the hole specs this worker first sighted since the last call
    /// (or since creation), in consultation order, *without* having
    /// registered them yet — the deferred-registration protocol that makes
    /// hole-discovery order deterministic under parallel exploration.
    ///
    /// Exploration drivers call this at a deterministic sequence point (the
    /// end of a worker's chunk, or a layer boundary) and forward the
    /// concatenated, serially-ordered spec lists to
    /// [`SharedResolver::commit_discoveries`]. Resolvers that register
    /// eagerly (the default) always return an empty list.
    fn take_pending_discoveries(&mut self) -> Vec<HoleSpec> {
        Vec::new()
    }

    /// Surrenders this worker's hole name → id cache so the driver can seed
    /// a future worker with it (see [`SharedResolver::worker_seeded`]).
    /// Resolvers without a name cache — the default — return an empty map.
    fn take_name_cache(&mut self) -> NameCache {
        NameCache::default()
    }
}

/// A hole-resolution strategy that can serve several checker worker threads
/// at once.
///
/// The parallel checker ([`crate::CheckerOptions::threads`]) cannot hand one
/// `&mut dyn HoleResolver` to every worker; instead it asks a shared,
/// immutable strategy for one [`HoleResolver`] *per worker* via
/// [`SharedResolver::worker`]. Each worker resolver keeps its own
/// per-application touch log (the `begin_application` /
/// `application_touches` protocol stays single-threaded), while the choices
/// themselves come from shared state.
///
/// Implementations must be **consistent**: every worker resolver must answer
/// every hole identically for the whole run, exactly as the determinism
/// contract of [`HoleResolver`] requires within one resolver. This is what
/// makes the parallel exploration's verdict independent of thread
/// interleaving.
pub trait SharedResolver: Sync {
    /// Creates the resolver one worker thread will use for the run.
    fn worker(&self) -> Box<dyn HoleResolver + '_>;

    /// Like [`SharedResolver::worker`], but seeds the worker with a hole
    /// name → id cache previously drained via
    /// [`HoleResolver::take_name_cache`] — the amortization loop that lets
    /// a [`crate::checker::CheckSession`] reuse one cache across `check`
    /// calls instead of re-resolving every hole name per check.
    ///
    /// The seed must come from a resolver over the **same hole namespace**
    /// (same ids for the same names); a `CheckSession` already requires
    /// this of the resolvers passed to successive checks, since its
    /// checkpoint logs are keyed by raw hole id. Strategies without a name
    /// cache — the default — ignore the seed.
    fn worker_seeded(&self, seed: NameCache) -> Box<dyn HoleResolver + '_> {
        let _ = seed;
        self.worker()
    }

    /// Like [`SharedResolver::worker_seeded`], but for the *expansion phase*
    /// of a parallel driver, where every consultation is provisional until
    /// the sequential replay confirms it. Strategies that log consultations
    /// should return a worker that does **not** publish its touches into any
    /// shared log — the driver reports the replay-confirmed set through
    /// [`SharedResolver::note_replayed_touches`] instead, so applications
    /// the replay discards (past a failure or a `max_states` clamp) never
    /// leak into pruning-pattern publications. The default — fine for
    /// strategies without shared logs — is `worker_seeded`.
    fn expansion_worker(&self, seed: NameCache) -> Box<dyn HoleResolver + '_> {
        self.worker_seeded(seed)
    }

    /// Reports the concrete `(hole id, action)` resolutions the sequential
    /// replay actually consumed this layer, deduplicated by hole id. Called
    /// by parallel drivers once per replayed layer; together with
    /// [`SharedResolver::expansion_worker`] this makes a strategy's touch
    /// log identical to what the serial loop would have recorded, even on
    /// layers the replay cuts short. The default is a no-op.
    fn note_replayed_touches(&self, touches: &[(usize, u16)]) {
        let _ = touches;
    }

    /// Registers the deferred discoveries drained from this strategy's
    /// workers (see [`HoleResolver::take_pending_discoveries`]), in the
    /// given order, returning one hole id per spec — the id the spec's hole
    /// now resolves under, whether this call registered it or an earlier
    /// sighting already had.
    ///
    /// Exploration drivers concatenate worker drain lists in the serial
    /// driver's deterministic order before calling this, which is what
    /// makes first-discovery ids independent of worker interleaving. The
    /// default (for strategies that register eagerly and therefore never
    /// defer) expects an empty list.
    fn commit_discoveries(&self, specs: &[HoleSpec]) -> Vec<usize> {
        assert!(
            specs.is_empty(),
            "resolver deferred discoveries but does not implement commit_discoveries"
        );
        Vec::new()
    }
}

/// A [`SharedResolver`] that can additionally be *queried* for the answer it
/// would give any hole id — the contract a [`crate::checker::CheckSession`]
/// needs to decide how much of the previous exploration a new candidate can
/// reuse.
///
/// The session records, per BFS layer, every hole the expansion consulted
/// and the answer it received; on the next [`check`] call it asks the new
/// resolver for its [`assignment`] of each recorded hole and resumes from
/// the deepest checkpoint whose prefix of consultations is answered
/// identically. Implementations must therefore keep `assignment` consistent
/// with what every worker's [`HoleResolver::choose`] would answer, over the
/// same id space as [`HoleResolver::application_touches`].
///
/// [`check`]: crate::checker::CheckSession::check
/// [`assignment`]: SessionResolver::assignment
pub trait SessionResolver: SharedResolver {
    /// The answer this strategy gives the hole with resolver-defined id
    /// `hole`: `Some(action)` for a concrete resolution, `None` for the
    /// wildcard.
    fn assignment(&self, hole: usize) -> Option<u16>;
}

/// Resolver for models without holes.
///
/// # Panics
///
/// Panics if a hole is ever consulted; use it only with complete models.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHoles;

impl SharedResolver for NoHoles {
    fn worker(&self) -> Box<dyn HoleResolver + '_> {
        Box::new(NoHoles)
    }
}

impl SessionResolver for NoHoles {
    /// Never reached in a well-formed run: a hole-free model logs no
    /// consultations, so a session has nothing to validate.
    fn assignment(&self, _hole: usize) -> Option<u16> {
        None
    }
}

impl HoleResolver for NoHoles {
    fn choose(&mut self, hole: &HoleSpec) -> Choice {
        panic!(
            "model consulted hole `{}` but was checked with NoHoles; \
             use a synthesis resolver or a FixedResolver",
            hole.name()
        );
    }
}

/// Resolver answering every hole with a fixed, name-keyed assignment.
///
/// Useful for model-checking one specific candidate outside the synthesis
/// loop (e.g. verifying a synthesized solution in a test, or "golden"
/// configurations of a skeleton).
///
/// # Examples
///
/// ```
/// use verc3_mck::{FixedResolver, HoleResolver, HoleSpec, Choice};
///
/// let mut r = FixedResolver::new();
/// r.assign("h", 2);
/// let spec = HoleSpec::new("h", ["a", "b", "c"]);
/// assert_eq!(r.choose(&spec), Choice::Action(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FixedResolver {
    assignments: std::collections::HashMap<String, usize>,
    /// What to answer for holes absent from the assignment map.
    pub fallback: Choice,
}

impl FixedResolver {
    /// Creates a resolver with no assignments and a `Wildcard` fallback.
    pub fn new() -> Self {
        FixedResolver {
            assignments: Default::default(),
            fallback: Choice::Wildcard,
        }
    }

    /// Assigns action `index` to the hole named `name`.
    pub fn assign(&mut self, name: impl Into<String>, index: usize) -> &mut Self {
        self.assignments.insert(name.into(), index);
        self
    }

    /// Creates a resolver from `(name, index)` pairs.
    pub fn from_pairs<I, N>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (N, usize)>,
        N: Into<String>,
    {
        let mut r = FixedResolver::new();
        for (n, i) in pairs {
            r.assign(n, i);
        }
        r
    }
}

impl SharedResolver for FixedResolver {
    /// Each worker gets a clone; a `FixedResolver` never changes its answers,
    /// so clones are trivially consistent.
    fn worker(&self) -> Box<dyn HoleResolver + '_> {
        Box::new(self.clone())
    }
}

impl HoleResolver for FixedResolver {
    fn choose(&mut self, hole: &HoleSpec) -> Choice {
        match self.assignments.get(hole.name()) {
            Some(&i) => {
                assert!(
                    i < hole.arity(),
                    "assignment {i} out of range for hole `{}` with {} actions",
                    hole.name(),
                    hole.arity()
                );
                Choice::Action(i)
            }
            None => self.fallback,
        }
    }
}

/// Resolver decorator that records which holes were consulted.
///
/// The synthesis engine's *refined pruning* mode (an extension of the paper's
/// scheme, see `verc3-core::pattern`) uses the recorded set to prune on the
/// holes that actually participated in a failure, mirroring the paper's key
/// insight that a minimal error trace rarely touches every hole.
#[derive(Debug)]
pub struct RecordingResolver<R> {
    inner: R,
    touched: std::collections::BTreeSet<String>,
}

impl<R: HoleResolver> RecordingResolver<R> {
    /// Wraps `inner`, recording every hole name it is asked to resolve.
    pub fn new(inner: R) -> Self {
        RecordingResolver {
            inner,
            touched: Default::default(),
        }
    }

    /// The names of all holes consulted so far, in sorted order.
    pub fn touched(&self) -> impl Iterator<Item = &str> {
        self.touched.iter().map(String::as_str)
    }
}

impl<R: HoleResolver> HoleResolver for RecordingResolver<R> {
    fn choose(&mut self, hole: &HoleSpec) -> Choice {
        self.touched.insert(hole.name().to_owned());
        self.inner.choose(hole)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one action")]
    fn empty_action_library_rejected() {
        let _ = HoleSpec::new("h", Vec::<String>::new());
    }

    #[test]
    fn display_shows_library() {
        let h = HoleSpec::new("dir/IS_B+Ack/next", ["I", "S"]);
        assert_eq!(h.to_string(), "dir/IS_B+Ack/next[I|S]");
    }

    #[test]
    #[should_panic(expected = "NoHoles")]
    fn no_holes_panics_on_use() {
        let spec = HoleSpec::new("h", ["a"]);
        NoHoles.choose(&spec);
    }

    #[test]
    fn fixed_resolver_fallback() {
        let mut r = FixedResolver::new();
        let spec = HoleSpec::new("unassigned", ["a", "b"]);
        assert_eq!(r.choose(&spec), Choice::Wildcard);
        r.fallback = Choice::Action(0);
        assert_eq!(r.choose(&spec), Choice::Action(0));
    }

    #[test]
    fn recording_resolver_tracks_names() {
        let mut r = RecordingResolver::new(FixedResolver::from_pairs([("x", 0usize)]));
        let x = HoleSpec::new("x", ["a"]);
        let y = HoleSpec::new("y", ["a"]);
        let _ = r.choose(&x);
        let _ = r.choose(&y);
        let _ = r.choose(&x);
        let touched: Vec<_> = r.touched().collect();
        assert_eq!(touched, vec!["x", "y"]);
    }

    #[test]
    fn choice_action_accessor() {
        assert_eq!(Choice::Action(3).action(), Some(3));
        assert_eq!(Choice::Wildcard.action(), None);
    }
}
