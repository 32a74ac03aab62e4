//! The hole mechanism: how transition rules defer choices to a synthesizer.
//!
//! A *hole* is a point in a transition rule where the designer has not yet
//! committed to an implementation; instead they supply a finite library of
//! candidate **actions** (pure functions, per the paper §II) and let the
//! synthesis procedure enumerate them. A rule consults its holes through a
//! [`HoleResolver`], whose one method, [`HoleResolver::choose`], answers an
//! action or the wildcard.
//!
//! The checker hands every rule application one resolver of its own, the
//! **consultant** (`Consultant`, private to this crate), and keeps all of
//! the bookkeeping of lazy hole discovery there, in the serial schedule, in
//! each parallel chunk and in the reference BFS alike:
//!
//! * it looks each consulted hole up by name in the session's
//!   [`HoleRegistry`], through a name cache the session banks across chunks
//!   and checks;
//! * it parks a hole the registry does not know yet — a **first sighting**
//!   — under an index local to its chunk; the walk registers the first
//!   sightings it reached at the end of the layer, in the serial order, so
//!   hole ids never depend on thread interleaving;
//! * it buffers each application's concrete touches, wildcard answers and
//!   answers to first sightings, which the walk commits into expansion
//!   records, per-edge `Cₜ` attribution and a held session's layer logs;
//! * it asks the caller's [`SharedResolver`] for the action, passing the
//!   hole's id (`None` for a first sighting), and range-checks the answer.
//!
//! So a caller's resolver only answers. During plain model checking of a
//! complete protocol there are no holes and [`NoHoles`] is used. During
//! synthesis, `verc3-core` answers from the current *candidate
//! configuration vector*: until a candidate assigns a hole a concrete
//! action, the hole resolves to [`Choice::Wildcard`], which instructs the
//! rule to return [`crate::RuleOutcome::Blocked`] — aborting that execution
//! branch exactly as the paper prescribes, and producing the third
//! verification verdict, *unknown*.
//!
//! Holes are identified by name. The same [`HoleSpec`] value should be reused
//! across invocations (store it in the model), and a hole's action library
//! must never change within a registry's lifetime.

use crate::hashers::FnvHashMap;
use crate::registry::HoleRegistry;
use crate::rule::{Rule, RuleOutcome};
use std::fmt;

/// A hole name → registry id cache. Resolving a hole by name otherwise takes
/// the registry's lock; a session banks its consultants' caches and seeds
/// later consultants with them, so the lock is paid once per hole per
/// session. Keyed with the checker's FNV hasher: the cache sits on the
/// per-rule-application hot path.
pub(crate) type NameCache = FnvHashMap<String, usize>;

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

/// What a rule consults its holes through.
///
/// Implementations must be deterministic within one model-checker run: the
/// same hole must resolve to the same choice every time, since BFS may
/// execute a rule from many states. The checker always passes its own
/// consultant (see the module docs); [`FixedResolver`] and [`NoHoles`]
/// implement this trait for code that applies rules directly.
pub trait HoleResolver {
    /// Resolves the choice for `hole`.
    fn choose(&mut self, hole: &HoleSpec) -> Choice;
}

/// The caller's side of hole resolution: the answer for each hole a check
/// consults, shared by every worker of the checker
/// ([`crate::CheckerOptions::threads`]).
///
/// Implementations must be **consistent**: the same hole must receive the
/// same answer for the whole check, from every thread. This is what makes
/// the parallel exploration's verdict independent of thread interleaving.
pub trait SharedResolver: Sync {
    /// The answer for `hole`: `Some(action)` for a concrete action (an index
    /// into the hole's library, which the checker range-checks), `None` for
    /// the wildcard. `id` is the hole's id in the session's
    /// [`HoleRegistry`], or `None` for a first sighting that the walk has
    /// not registered yet.
    fn answer(&self, hole: &HoleSpec, id: Option<usize>) -> Option<u16>;
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
/// identically. `assignment(id)` must therefore agree with
/// [`SharedResolver::answer`]`(_, Some(id))`.
///
/// [`check`]: crate::checker::CheckSession::check
/// [`assignment`]: SessionResolver::assignment
pub trait SessionResolver: SharedResolver {
    /// The answer this strategy gives the hole with registry id `hole`:
    /// `Some(action)` for a concrete resolution, `None` for the wildcard.
    fn assignment(&self, hole: usize) -> Option<u16>;
}

/// An answer as the rule sees it, range-checked against the hole's library.
fn checked(hole: &HoleSpec, answer: Option<u16>) -> Choice {
    match answer {
        Some(action) => {
            assert!(
                usize::from(action) < hole.arity(),
                "answer {action} out of range for hole `{}` with {} actions",
                hole.name(),
                hole.arity()
            );
            Choice::Action(usize::from(action))
        }
        None => Choice::Wildcard,
    }
}

/// One wildcard consultation inside a rule application. A held session
/// needs to know which holes an exploration consulted as wildcards too: a
/// candidate that later assigns one of them a concrete action invalidates
/// every checkpoint at or beyond that consultation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WildcardTouch {
    /// A registered hole, by registry id.
    Known(usize),
    /// A first sighting, by its index in the list the consultant's next
    /// [`Consultant::take_pending`] returns.
    Fresh(u32),
}

/// The [`HoleResolver`] every rule application receives from the checker
/// (see the module docs): it looks holes up, tracks what each application
/// consulted, parks first sightings for the walk to register, and asks the
/// caller's [`SharedResolver`] for the actions.
pub(crate) struct Consultant<'a> {
    registry: &'a HoleRegistry,
    resolver: &'a dyn SharedResolver,
    cache: NameCache,
    /// The current application's concrete answers to registered holes.
    pub(crate) touches: Vec<(usize, u16)>,
    /// The current application's wildcard answers.
    pub(crate) wildcards: Vec<WildcardTouch>,
    /// The current application's concrete answers to first sightings, as
    /// `(pending index, action)` pairs.
    pub(crate) fresh: Vec<(u32, u16)>,
    /// Specs first sighted since the last [`Consultant::take_pending`], in
    /// consultation order.
    pending: Vec<HoleSpec>,
    /// name → index into `pending`, so a repeat sighting reuses the parked
    /// spec.
    pending_idx: FnvHashMap<String, u32>,
}

impl<'a> Consultant<'a> {
    /// A consultant over `registry` answering through `resolver`, whose name
    /// cache starts from `cache` (one drained from an earlier consultant
    /// over the same registry, or empty).
    pub(crate) fn new(
        registry: &'a HoleRegistry,
        resolver: &'a dyn SharedResolver,
        cache: NameCache,
    ) -> Self {
        Consultant {
            registry,
            resolver,
            cache,
            touches: Vec::new(),
            wildcards: Vec::new(),
            fresh: Vec::new(),
            pending: Vec::new(),
            pending_idx: FnvHashMap::default(),
        }
    }

    /// Applies `rule` to `state`, buffering the application's consultations
    /// in place of the previous application's.
    pub(crate) fn apply<S>(&mut self, rule: &Rule<S>, state: &S) -> RuleOutcome<S> {
        self.touches.clear();
        self.wildcards.clear();
        self.fresh.clear();
        rule.apply(state, self)
    }

    /// Drains the specs first sighted since the last call, in consultation
    /// order: what the [`WildcardTouch::Fresh`] and `fresh` indices point
    /// into.
    pub(crate) fn take_pending(&mut self) -> Vec<HoleSpec> {
        self.pending_idx.clear();
        std::mem::take(&mut self.pending)
    }

    /// The name cache, for the session to bank.
    pub(crate) fn into_cache(self) -> NameCache {
        self.cache
    }

    /// The pending index of first sighting `hole`, parking its spec if
    /// this is its first sighting since the last drain.
    fn park(&mut self, hole: &HoleSpec) -> u32 {
        if let Some(&index) = self.pending_idx.get(hole.name()) {
            return index;
        }
        let index = self.pending.len() as u32;
        self.pending.push(hole.clone());
        self.pending_idx.insert(hole.name().to_owned(), index);
        index
    }
}

impl HoleResolver for Consultant<'_> {
    fn choose(&mut self, hole: &HoleSpec) -> Choice {
        let id = match self.cache.get(hole.name()) {
            Some(&id) => Some(id),
            None => {
                let id = self.registry.lookup(hole.name());
                if let Some(id) = id {
                    self.cache.insert(hole.name().to_owned(), id);
                }
                id
            }
        };
        let answer = self.resolver.answer(hole, id);
        let choice = checked(hole, answer);
        match (id, answer) {
            (Some(id), Some(action)) => push_once(&mut self.touches, (id, action)),
            (Some(id), None) => push_once(&mut self.wildcards, WildcardTouch::Known(id)),
            (None, Some(action)) => {
                let index = self.park(hole);
                push_once(&mut self.fresh, (index, action));
            }
            (None, None) => {
                let index = self.park(hole);
                push_once(&mut self.wildcards, WildcardTouch::Fresh(index));
            }
        }
        choice
    }
}

/// Appends `item` unless `buffer` holds it already: an application
/// consults a hole as often as its rule asks, but records it once.
fn push_once<T: PartialEq>(buffer: &mut Vec<T>, item: T) {
    if !buffer.contains(&item) {
        buffer.push(item);
    }
}

/// Resolver for models without holes.
///
/// # Panics
///
/// Panics if a hole is ever consulted; use it only with complete models.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHoles;

fn no_holes(hole: &HoleSpec) -> ! {
    panic!(
        "model consulted hole `{}` but was checked with NoHoles; \
         use a synthesis resolver or a FixedResolver",
        hole.name()
    );
}

impl SharedResolver for NoHoles {
    fn answer(&self, hole: &HoleSpec, _id: Option<usize>) -> Option<u16> {
        no_holes(hole)
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
        no_holes(hole)
    }
}

/// Resolver answering every hole with a fixed, name-keyed assignment.
///
/// Useful for model-checking one specific candidate outside the synthesis
/// loop (e.g. verifying a synthesized solution in a test, or "golden"
/// configurations of a skeleton) through [`crate::Checker::run_with`], or
/// for applying rules directly.
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
    /// Answers by name, whatever the hole's id: a fixed assignment never
    /// changes, so every thread answers alike. An index too large for 16
    /// bits saturates, which the range check then rejects.
    fn answer(&self, hole: &HoleSpec, _id: Option<usize>) -> Option<u16> {
        let saturate = |i: usize| u16::try_from(i).unwrap_or(u16::MAX);
        match self.assignments.get(hole.name()) {
            Some(&i) => Some(saturate(i)),
            None => self.fallback.action().map(saturate),
        }
    }
}

impl HoleResolver for FixedResolver {
    fn choose(&mut self, hole: &HoleSpec) -> Choice {
        checked(hole, self.answer(hole, None))
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
    fn choice_action_accessor() {
        assert_eq!(Choice::Action(3).action(), Some(3));
        assert_eq!(Choice::Wildcard.action(), None);
    }

    fn spec(name: &str, n: usize) -> HoleSpec {
        HoleSpec::new(name, (0..n).map(|i| format!("a{i}")))
    }

    /// Answers registered holes from `digits` and every other hole with
    /// `default`, as a synthesis candidate does.
    struct Digits<'a> {
        digits: &'a [u16],
        default: Option<u16>,
    }

    impl SharedResolver for Digits<'_> {
        fn answer(&self, _hole: &HoleSpec, id: Option<usize>) -> Option<u16> {
            match id.and_then(|id| self.digits.get(id)) {
                Some(&action) => Some(action),
                None => self.default,
            }
        }
    }

    #[test]
    fn consultants_answer_identically() {
        let reg = HoleRegistry::new();
        reg.resolve_or_register(&spec("x", 3));
        reg.resolve_or_register(&spec("y", 2));
        let digits = Digits {
            digits: &[2, 1],
            default: None,
        };
        let mut c1 = Consultant::new(&reg, &digits, NameCache::default());
        let mut c2 = Consultant::new(&reg, &digits, NameCache::default());
        assert_eq!(c1.choose(&spec("x", 3)), Choice::Action(2));
        assert_eq!(c1.touches, [(0, 2)]);
        // A second consultant resolves the same holes identically, and each
        // buffers only its own consultations.
        assert_eq!(c2.choose(&spec("x", 3)), Choice::Action(2));
        assert_eq!(c2.choose(&spec("y", 2)), Choice::Action(1));
        assert_eq!(c2.touches, [(0, 2), (1, 1)]);
        assert_eq!(c1.touches, [(0, 2)]);
    }

    #[test]
    fn a_first_sighting_stays_unregistered_until_the_walk_registers_it() {
        let reg = HoleRegistry::new();
        reg.resolve_or_register(&spec("x", 2));
        let wild = Digits {
            digits: &[1],
            default: None,
        };
        let mut c1 = Consultant::new(&reg, &wild, NameCache::default());
        let mut c2 = Consultant::new(&reg, &wild, NameCache::default());
        // A wildcard answer to a parked spec, numbered by first sighting;
        // a repeat sighting reuses the parked spec.
        assert_eq!(c1.choose(&spec("z", 2)), Choice::Wildcard);
        assert_eq!(c1.choose(&spec("w", 2)), Choice::Wildcard);
        assert_eq!(c1.choose(&spec("z", 2)), Choice::Wildcard);
        assert_eq!(
            c1.wildcards,
            [WildcardTouch::Fresh(0), WildcardTouch::Fresh(1)]
        );
        assert!(c1.touches.is_empty());
        assert_eq!(c2.choose(&spec("w", 2)), Choice::Wildcard);
        assert_eq!(reg.len(), 1, "sightings alone register nothing");
        // The walk registers the parked specs in the order given, one id
        // per spec.
        let parked: Vec<HoleSpec> = c1
            .take_pending()
            .into_iter()
            .chain(c2.take_pending())
            .collect();
        let ids: Vec<usize> = parked
            .iter()
            .map(|spec| reg.resolve_or_register(spec).0)
            .collect();
        assert_eq!(ids, [1, 2, 2]);
        assert_eq!(reg.lookup("z"), Some(1));
        // A registered hole beyond the candidate is a known wildcard.
        let mut c = Consultant::new(&reg, &wild, NameCache::default());
        assert_eq!(c.choose(&spec("w", 2)), Choice::Wildcard);
        assert_eq!(c.wildcards, [WildcardTouch::Known(2)]);
    }

    #[test]
    fn concrete_answers_to_first_sightings_are_fresh_touches() {
        let reg = HoleRegistry::new();
        let naive = Digits {
            digits: &[],
            default: Some(0),
        };
        let mut c = Consultant::new(&reg, &naive, NameCache::default());
        assert_eq!(c.choose(&spec("fresh", 4)), Choice::Action(0));
        assert_eq!(c.fresh, [(0, 0)]);
        assert!(c.touches.is_empty());
        assert_eq!(reg.len(), 0);
        for spec in c.take_pending() {
            reg.resolve_or_register(&spec);
        }
        // Once registered, the same hole is an ordinary concrete touch.
        let mut c = Consultant::new(&reg, &naive, c.into_cache());
        assert_eq!(c.choose(&spec("fresh", 4)), Choice::Action(0));
        assert_eq!(c.touches, [(0, 0)]);
    }

    #[test]
    fn application_touches_deduplicate_repeat_consultations() {
        let reg = HoleRegistry::new();
        reg.resolve_or_register(&spec("x", 2));
        let digits = Digits {
            digits: &[1],
            default: None,
        };
        let mut c = Consultant::new(&reg, &digits, NameCache::default());
        let twice = Rule::new("twice", |&s: &u8, ctx: &mut dyn HoleResolver| {
            ctx.choose(&spec("x", 2));
            ctx.choose(&spec("x", 2));
            RuleOutcome::Next(s)
        });
        let _ = c.apply(&twice, &0);
        assert_eq!(c.touches, [(0, 1)]);
        let _ = c.apply(&Rule::new("quiet", |_: &u8, _| RuleOutcome::Disabled), &0);
        assert!(c.touches.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn answers_are_range_checked() {
        let reg = HoleRegistry::new();
        let too_large = Digits {
            digits: &[],
            default: Some(2),
        };
        Consultant::new(&reg, &too_large, NameCache::default()).choose(&spec("x", 2));
    }
}
