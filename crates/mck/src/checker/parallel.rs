//! The layer-synchronized parallel BFS engine, and the one walk that
//! commits every expansion of a [`super::CheckSession`].
//!
//! Parallel explicit-state exploration usually trades determinism for speed:
//! work-stealing frontiers visit states in racy orders, so two runs (or a
//! parallel and a serial run) report different statistics and different
//! counterexamples. This engine keeps the speed and discards the race,
//! following the layer-synchronized discipline of Stern & Dill's parallel
//! Murϕ, with all per-state work pushed into the parallel phase:
//!
//! 1. **Expand** (parallel): the current BFS layer is split into chunks
//!    sized from the previous layer's measured expansion rate (see
//!    [`Engine::chunk_size`]) and run by a persistent [`WorkerPool`]. Each
//!    worker applies every rule to its states through its own consultant
//!    ([`crate::eval`]), canonicalizes and fingerprints successors,
//!    **evaluates their invariants**, and probes them against a lock-free
//!    [`ClaimTable`] (a CAS on an `AtomicU64` bucket claims an unseen
//!    state, whose body lives in a striped arena).
//!    It writes each state's expansion as a record **draft** (`records`):
//!    successors named by committed id or by claim, holes first sighted in
//!    the chunk by chunk-local index.
//! 2. **Walk** (sequential, cheap): the drafts are committed application
//!    by application ([`Engine::step`]) in the serial order — layer states
//!    in commit order, rules in table order — moving claimed states into
//!    the store, counting statistics, logging consultations, and raising
//!    failures, deadlocks and the state cap *exactly* where the serial
//!    order does.
//!
//! The same walk takes a state's expansion from its stored record, and the
//! session's serial schedule commits each application it applies in place
//! through the same step: admission clamp, commit, edge, invariants,
//! statistics, logs and the deadlock verdict exist once. One effective
//! thread keeps the in-place schedule because it is measurably faster
//! there (EXPERIMENTS.md, "One record, one walk").
//!
//! The barrier between layers is what preserves **minimal counterexamples**:
//! no state of layer `d+1` is expanded before every state of layer `d` has
//! been, so the first failure found is found at its minimal depth, and the
//! walk's deterministic order picks the serial witness. The walk never
//! touches state bodies except to move claims into the store, so rule
//! application, symmetry canonicalization, fingerprinting, and invariant
//! evaluation, which dominate, all scale with the worker count.
//!
//! Three further mechanisms keep the determinism tax down:
//!
//! * **Earliest-stop short-circuit**: a worker that claims a violating
//!   successor, sees a deadlocked state or catches a panic publishes the
//!   state's within-layer index via `fetch_min`; workers skip states beyond
//!   the smallest announced index. The walk stops at or before that index,
//!   so skipped work is provably unobserved, and a caught panic resumes
//!   only if the walk reaches the application it ended.
//! * **Walk-gated hole effects**: a chunk's consultant only looks holes up
//!   and parks its first sightings; the first sightings the walk reached
//!   register at the layer end, in walk order, and a held session's layer
//!   log holds the consultations the walk committed, which is where a
//!   check's touched set is read from. Applications the walk never reaches
//!   (past a stop) therefore never leak into touched sets, hole
//!   registries, or pattern publications.
//! * **Abort-and-grow**: the claim table is sized from the previous layer's
//!   claim count; if a layer outgrows it, workers abort at state
//!   boundaries, the attempt's drafts are discarded, and the layer is
//!   re-expanded against a larger table — a rare, contention-free
//!   alternative to resizing a lock-free table mid-flight.
//!
//! The result is a strong invariant, asserted by the equivalence suite
//! (`tests/checker_parallel_equivalence.rs`): every thread count returns the
//! **same verdict, the same `Stats`, and the same counterexample trace** as
//! the reference serial BFS (`super::reference`), and the same per-layer
//! hole-touch logs as the session's serial schedule. Outside it: expansion
//! may run most of a layer past the point where the walk stops, so up to one
//! layer of claimed successors may be held *transiently* beyond `max_states`
//! before the walk's admission clamp discards them (the committed store
//! never exceeds the cap; see [`CheckerOptions::max_states`]).

use super::pool::WorkerPool;
use super::records::{
    app_len, expansion_touches, known_touches, push_app, touches, wildcards, Record, Records,
    Successor, BLOCKED, CLAIM, DISABLED, FRESH, HELD, PANICKED,
};
use super::{
    fingerprint, insert_id, remove_id, CheckerOptions, Edge, IdList, Outcome, SearchCore, StateId,
};
use crate::eval::{Consultant, HoleSpec, NameCache, SessionResolver, SharedResolver};
use crate::hashers::FnvHashMap;
use crate::model::TransitionSystem;
use crate::properties::Property;
use crate::registry::HoleRegistry;
use crate::rule::RuleOutcome;
use parking_lot::Mutex;
use std::any::Any;
use std::cell::Cell;
use std::hash::Hash;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// One consulted hole and the answer it received; `None` is the wildcard.
/// Sessions record one sorted, de-duplicated log of these per sealed layer.
pub(super) type LayerTouch = (usize, Option<u16>);

/// Bit position of the fingerprint tag inside a claim-table bucket word:
/// bit 0 = occupied, bits `1..33` = claim reference, bits `33..64` = the
/// fingerprint's top 31 bits (a cheap pre-filter before the arena lookup).
const TAG_SHIFT: u32 = 33;

/// Claim references pack `(stripe << SLOT_BITS) | slot`; 24 slot bits cap a
/// stripe at ~16.7M claims per layer, far above any layer the 32-bit
/// [`StateId`] space can hold in total.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;

/// Claim arenas are striped across at most this many mutexes (the stripe
/// index must fit in `32 - SLOT_BITS` bits).
const MAX_STRIPES: usize = 256;

/// Target expansion time per chunk. Large enough that chunk-dispatch
/// overhead (a pool handoff plus a resolver setup) stays well under 1%,
/// small enough that a layer splits into many more chunks than workers,
/// which evens out per-state cost variance.
const TARGET_CHUNK_NANOS: f64 = 200_000.0;

/// Below this estimated whole-layer expansion time the layer is expanded
/// inline as a single chunk: handing work to the pool would cost more than
/// the work itself.
const SOLO_LAYER_NANOS: f64 = 100_000.0;

/// A state claimed during expansion, parked in a stripe arena until the
/// walk commits it. Immutable after publication except for `state` and
/// `id`, which only the single-threaded walk touches.
pub(super) struct Claim<S> {
    hash: u64,
    /// The claimed state; taken when the walk commits it.
    state: Option<S>,
    /// The committed id, once the walk assigns one.
    id: Option<StateId>,
    /// Index (into the model's property list) of the first invariant this
    /// state violates, evaluated by the claiming worker so the walk never
    /// re-inspects state bodies.
    violation: Option<u32>,
}

/// Result of probing one not-yet-committed successor against the claim
/// table (committed states are resolved before the table is consulted).
pub(super) enum ClaimProbe {
    /// The state is claimed (by this probe or an earlier one); the walk
    /// resolves the reference to a dense id.
    Fresh { claim: u32, violation: Option<u32> },
    /// The table ran out of budget; the layer attempt must be discarded and
    /// re-expanded against a larger table.
    Aborted,
}

/// Lock-free visited-claim table for one layer's expansion phase.
///
/// Membership is a linear-probe scan over `AtomicU64` buckets; an empty
/// bucket is claimed with a single CAS, so the hot path (distinct
/// successors) takes no lock at all. The claimed state bodies live in
/// `stripes` — mutex-protected arenas selected by fingerprint bits disjoint
/// from both the bucket index and the tag — locked only to append a new
/// claim or to equality-check a tag collision. Occupancy is capped at
/// `budget` (3/4 of capacity), which both bounds probe lengths and
/// guarantees the scan terminates; exceeding the budget aborts the layer
/// attempt (see [`Engine::expand_layer`]'s grow-and-retry loop).
pub(super) struct ClaimTable<S> {
    buckets: Box<[AtomicU64]>,
    stripes: Box<[Mutex<Vec<Claim<S>>>]>,
    stripe_mask: usize,
    allocated: AtomicUsize,
    budget: usize,
    aborted: AtomicBool,
}

impl<S: Clone + Eq> ClaimTable<S> {
    pub(super) fn new(stripe_count: usize) -> Self {
        debug_assert!(stripe_count.is_power_of_two() && stripe_count <= MAX_STRIPES);
        ClaimTable {
            buckets: Box::new([]),
            stripes: (0..stripe_count).map(|_| Mutex::new(Vec::new())).collect(),
            stripe_mask: stripe_count - 1,
            allocated: AtomicUsize::new(0),
            budget: 0,
            aborted: AtomicBool::new(false),
        }
    }

    /// Readies the table for one layer attempt expecting up to roughly
    /// `want` claims: clears all buckets and arenas, reallocating only when
    /// the capacity is too small (or wastefully large).
    pub(super) fn prepare(&mut self, want: usize) {
        let cap = want.max(1024).next_power_of_two();
        if self.buckets.len() < cap || self.buckets.len() > cap * 8 {
            self.buckets = (0..cap).map(|_| AtomicU64::new(0)).collect();
        } else {
            for bucket in self.buckets.iter_mut() {
                *bucket.get_mut() = 0;
            }
        }
        for stripe in self.stripes.iter_mut() {
            stripe.get_mut().clear();
        }
        *self.allocated.get_mut() = 0;
        *self.aborted.get_mut() = false;
        self.budget = self.buckets.len() / 4 * 3;
    }

    pub(super) fn capacity(&self) -> usize {
        self.buckets.len()
    }

    /// Claims allocated by the current attempt (an upper bound while workers
    /// are still running; exact once they have joined).
    pub(super) fn allocated(&self) -> usize {
        self.allocated.load(Ordering::Relaxed)
    }

    pub(super) fn aborted(&self) -> bool {
        self.aborted.load(Ordering::Relaxed)
    }

    fn stripe_of(&self, hash: u64) -> usize {
        // Bits above both the bucket index (low bits) and below the tag
        // (top 31), so stripe choice is independent of bucket clustering.
        ((hash >> 20) as usize) & self.stripe_mask
    }

    fn unpack(claim: u32) -> (usize, usize) {
        ((claim >> SLOT_BITS) as usize, (claim & SLOT_MASK) as usize)
    }

    /// Clones a claim's state back out of its arena (the rare re-own path
    /// of [`ClaimTable::probe`]).
    fn claim_state(&self, claim: u32) -> S {
        let (stripe, slot) = Self::unpack(claim);
        self.stripes[stripe].lock()[slot]
            .state
            .clone()
            .expect("claim state taken during expansion")
    }

    /// If the referenced claim holds exactly `state`, returns its recorded
    /// violation (`Some(inner)`); `None` means a genuine tag collision.
    fn claim_if_equal(&self, claim: u32, hash: u64, state: &S) -> Option<Option<u32>> {
        let (stripe, slot) = Self::unpack(claim);
        let stripe = self.stripes[stripe].lock();
        let parked = &stripe[slot];
        (parked.hash == hash && parked.state.as_ref() == Some(state)).then_some(parked.violation)
    }

    /// Exclusive access to a claim during the (single-threaded) walk.
    fn claim_mut(&mut self, claim: u32) -> &mut Claim<S> {
        let (stripe, slot) = Self::unpack(claim);
        &mut self.stripes[stripe].get_mut()[slot]
    }

    /// Looks `state` up among this layer's claims, claiming it if absent.
    /// `violated` is evaluated exactly once per *distinct* claimed state, by
    /// the claiming worker, before the claim is published.
    ///
    /// Lock-free on the hot path: one acquire load plus one CAS per distinct
    /// successor; a stripe mutex is taken only to append the claim body and
    /// on tag collisions. The release-CAS publishing a bucket entry
    /// happens-after the arena push, so any prober that acquire-loads the
    /// entry observes a fully-initialized claim.
    pub(super) fn probe(
        &self,
        hash: u64,
        state: S,
        violated: &dyn Fn(&S) -> Option<u32>,
    ) -> ClaimProbe {
        crate::faults::probe_panic(crate::faults::site::CLAIM_PROBE);
        let mask = self.buckets.len() - 1;
        let tag_bits = (hash >> TAG_SHIFT) << TAG_SHIFT;
        let mut idx = (hash as usize) & mask;
        let mut owned = Some(state);
        // Our own claim once parked: `(bucket word, claim ref, violation)`.
        // Parked at most once per probe, even across CAS retries.
        let mut parked: Option<(u64, u32, Option<u32>)> = None;
        loop {
            let cur = self.buckets[idx].load(Ordering::Acquire);
            if cur == 0 {
                let (entry, claim, violation) = match parked {
                    Some(mine) => mine,
                    None => {
                        if self.allocated.fetch_add(1, Ordering::Relaxed) >= self.budget {
                            self.aborted.store(true, Ordering::Relaxed);
                            return ClaimProbe::Aborted;
                        }
                        let s = owned.take().expect("probe state consumed twice");
                        let violation = violated(&s);
                        let stripe_idx = self.stripe_of(hash);
                        let slot = {
                            let mut stripe = self.stripes[stripe_idx].lock();
                            let slot = stripe.len();
                            assert!(
                                slot < SLOT_MASK as usize,
                                "claim stripe overflow: {slot} new states of one layer \
                                 hashed to one of {} claim stripes",
                                self.stripes.len()
                            );
                            stripe.push(Claim {
                                hash,
                                state: Some(s),
                                id: None,
                                violation,
                            });
                            slot
                        };
                        let claim = ((stripe_idx as u32) << SLOT_BITS) | slot as u32;
                        let entry = tag_bits | (u64::from(claim) << 1) | 1;
                        parked = Some((entry, claim, violation));
                        (entry, claim, violation)
                    }
                };
                match self.buckets[idx].compare_exchange(
                    0,
                    entry,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => return ClaimProbe::Fresh { claim, violation },
                    // Lost the race for this bucket: re-examine it (the
                    // winner may have claimed our very state).
                    Err(_) => continue,
                }
            }
            if cur & !((1 << TAG_SHIFT) - 1) == tag_bits {
                let other = ((cur >> 1) & u64::from(u32::MAX)) as u32;
                let candidate = match &owned {
                    Some(s) => s,
                    None => {
                        // We parked our state before losing a CAS; clone it
                        // back for the equality check (rare, and it avoids
                        // ever holding two stripe locks at once).
                        owned =
                            Some(self.claim_state(parked.expect("state parked without a claim").1));
                        owned.as_ref().expect("just re-owned")
                    }
                };
                if let Some(violation) = self.claim_if_equal(other, hash, candidate) {
                    // Duplicate discovery: defer to the earlier claim. If we
                    // parked one of our own it stays orphaned in its arena —
                    // harmless; arenas are cleared per layer.
                    return ClaimProbe::Fresh {
                        claim: other,
                        violation,
                    };
                }
            }
            idx = (idx + 1) & mask;
        }
    }
}

/// How a chunk's worker left one frontier state for the walk.
#[derive(Clone, Copy)]
enum Drafted {
    /// Expanded by applying every rule: its draft ends at this word of the
    /// chunk's drafts.
    Draft(usize),
    /// The state's expansion record is valid under the check's answers: the
    /// walk takes the expansion from it ([`Engine::walk_record`]).
    Recorded,
    /// Skipped by the earliest-stop short-circuit. The walk provably stops
    /// before reaching one (the deterministic witness lies at or before the
    /// minimum announced index) and asserts so.
    Skipped,
}

/// A panic a worker caught while expanding a state, kept for the walk.
struct Panicked {
    payload: Box<dyn Any + Send>,
    /// Whether it struck while the worker evaluated the invariants of a
    /// state it claimed, which the serial order does after the admission
    /// clamp.
    claiming: bool,
}

/// Everything one expansion chunk produced.
#[derive(Default)]
pub(super) struct ChunkOut {
    states: Vec<Drafted>,
    /// The drafts of the expanded states, back to back.
    words: Vec<u32>,
    /// The claim references the drafts' [`CLAIM`] successor words index.
    claims: Vec<u32>,
    /// Hole specs first sighted by this chunk's consultant, in consultation
    /// order: what the drafts' [`FRESH`] hole words index.
    discoveries: Vec<HoleSpec>,
    /// The panic that ended the chunk's last draft.
    panic: Option<Panicked>,
}

/// What a walked expansion's words name besides the store and the rollback
/// tail: a chunk's claims and caught panic, or the serial schedule's new
/// successor in hand.
pub(super) struct Refs<'c, S> {
    claims: &'c [u32],
    panic: Option<Panicked>,
    /// The [`HELD`] successor and its fingerprint.
    pub(super) held: Option<(S, u64)>,
}

impl<S> Refs<'_, S> {
    /// Names nothing beyond the store and the tail.
    pub(super) fn none() -> Self {
        Refs {
            claims: &[],
            panic: None,
            held: None,
        }
    }
}

/// The per-layer state of the one walk that commits expansions (see the
/// module docs): the layer's hole-touch log, the deferred discoveries the
/// walk reached, and the flags of the state it is expanding.
#[derive(Default)]
pub(super) struct Walk {
    /// Whether the walk logs the layer and stores records: a held session's
    /// check.
    pub(super) session: bool,
    log: Vec<LayerTouch>,
    /// Deferred discoveries to register at the layer end, in walk order.
    specs: Vec<HoleSpec>,
    /// Where the current discovery scope (a chunk, or the serial
    /// consultant's layer) starts in `specs`, and how many of its
    /// discoveries the walk reached: always a prefix, because a scope
    /// numbers its discoveries in consultation order, which the walk
    /// follows.
    scope: u32,
    reached: u32,
    /// Walked consultations of deferred discoveries, logged once they have
    /// ids: position in `specs` and answer.
    fresh: Vec<(u32, Option<u16>)>,
    any_next: bool,
    any_blocked: bool,
    any_fresh: bool,
    /// The touches of an application whose successor is committed: its
    /// tree edge's attribution.
    edge: Vec<(usize, u16)>,
}

impl Walk {
    pub(super) fn new(session: bool) -> Self {
        Walk {
            session,
            ..Walk::default()
        }
    }

    /// Starts the expansion of frontier state `sid`.
    pub(super) fn begin_state<M: TransitionSystem>(
        &mut self,
        core: &mut SearchCore<'_, M>,
        sid: usize,
    ) {
        // What a rolling BFS queue would hold when popping this state:
        // everything committed but not yet expanded.
        core.stats.peak_queue = core.stats.peak_queue.max(core.states.len() - sid);
        (self.any_next, self.any_blocked, self.any_fresh) = (false, false, false);
    }

    #[inline]
    fn log_app(&mut self, app: &[u32]) {
        for (hole, action) in touches(app) {
            self.note(hole, Some(action));
        }
        for &hole in wildcards(app) {
            self.note(hole, None);
        }
    }

    #[inline]
    fn note(&mut self, hole: u32, answer: Option<u16>) {
        if hole & FRESH != 0 {
            let index = hole & !FRESH;
            self.any_fresh = true;
            self.reached = self.reached.max(index + 1);
            if self.session {
                self.fresh.push((self.scope + index, answer));
            }
        } else if self.session {
            self.log.push((hole as usize, answer));
        }
    }

    /// Ends a discovery scope whose consultant first sighted `specs`: the
    /// ones the walk reached register at the layer end.
    pub(super) fn end_scope(&mut self, mut specs: Vec<HoleSpec>) {
        specs.truncate(self.reached as usize);
        self.scope += specs.len() as u32;
        self.specs.append(&mut specs);
        self.reached = 0;
    }

    /// Ends the layer, expanded or stopped inside: registers the reached
    /// discoveries into `registry` in walk order, which is the serial
    /// order, and logs their consultations by id. Returns the layer's
    /// sorted, de-duplicated hole-touch log (empty unless a held session's
    /// check).
    pub(super) fn end_layer(mut self, registry: &HoleRegistry) -> Vec<LayerTouch> {
        if !self.specs.is_empty() {
            let ids: Vec<usize> = self
                .specs
                .iter()
                .map(|spec| registry.resolve_or_register(spec).0)
                .collect();
            let named = self
                .fresh
                .iter()
                .map(|&(at, answer)| (ids[at as usize], answer));
            self.log.extend(named);
        }
        self.log.sort_unstable();
        self.log.dedup();
        self.log
    }
}

/// Index (into the model's property list) of the first invariant `state`
/// violates — the same first-violation-wins order as
/// [`SearchCore::violated_invariant`], evaluated worker-side.
pub(super) fn violated_index<M: TransitionSystem>(model: &M, state: &M::State) -> Option<u32> {
    for (pi, p) in model.properties().iter().enumerate() {
        if let Property::Invariant { pred, .. } = p {
            if !pred(state) {
                return Some(pi as u32);
            }
        }
    }
    None
}

/// The id of `state` in the fingerprint index `visited` over `states`.
fn find_id<S: Eq>(
    visited: &FnvHashMap<u64, IdList>,
    hash: u64,
    state: &S,
    states: &[S],
) -> Option<StateId> {
    visited
        .get(&hash)?
        .as_slice()
        .iter()
        .copied()
        .find(|&id| states[id as usize] == *state)
}

/// Resolves a recorded violation index back to its invariant's name.
fn invariant_name<M: TransitionSystem>(model: &M, property: usize) -> &str {
    match &model.properties()[property] {
        Property::Invariant { name, .. } => name,
        _ => unreachable!("recorded violation index does not name an invariant"),
    }
}

/// The exploration engine of one [`super::CheckSession`]: the
/// committed-state index, the expansion records, the per-layer claim table,
/// the persistent worker pool, the chunk auto-tuner, and the walk. The
/// session's serial schedule uses only the committed index, the records,
/// the walk and the name-cache bank.
pub(super) struct Engine<S> {
    /// Fingerprint → committed ids. Read lock-free by expansion workers
    /// (committed entries never change mid-layer); mutated only by the
    /// single-threaded walk and the initial states' commit.
    visited: FnvHashMap<u64, IdList>,
    /// Fingerprint of every committed state, aligned with the store — what
    /// lets session rollback evict truncated ids without re-hashing.
    hashes: Vec<u64>,
    /// Expansion records of a held session's fully expanded states, and the
    /// tail a rollback moved aside (see [`super::records`]).
    pub(super) records: Records<S>,
    claims: ClaimTable<S>,
    /// Persistent expansion workers (`threads - 1`; the calling thread
    /// works each batch too), built on the first parallel layer.
    pool: Option<WorkerPool>,
    threads: usize,
    #[cfg(any(test, feature = "reference"))]
    chunk_override: Option<usize>,
    /// Measured expansion cost per frontier state (ns), trailing one layer;
    /// drives [`Engine::chunk_size`].
    rate_ns: f64,
    /// Claims allocated by the previous layer; sizes the next claim table.
    last_claims: usize,
    /// Hole name → id caches drained from finished consultants and
    /// re-seeded into later ones, so name resolution hits the registry once
    /// per session rather than once per chunk or check.
    pub(super) name_caches: Mutex<Vec<NameCache>>,
}

impl<S: Clone + Eq + Hash + Send + Sync> Engine<S> {
    pub(super) fn new(options: &CheckerOptions) -> Self {
        let threads = options.effective_threads();
        let stripes = (threads * 8).clamp(16, MAX_STRIPES);
        #[cfg(any(test, feature = "reference"))]
        let stripes = options
            .claim_stripes
            .unwrap_or(stripes)
            .clamp(1, MAX_STRIPES);
        Engine {
            visited: FnvHashMap::default(),
            hashes: Vec::new(),
            records: Records::default(),
            claims: ClaimTable::new(stripes.next_power_of_two()),
            pool: None,
            threads,
            #[cfg(any(test, feature = "reference"))]
            chunk_override: options.chunk_states,
            rate_ns: 1000.0,
            last_claims: 0,
            name_caches: Mutex::new(Vec::new()),
        }
    }

    /// The committed id of `state`, if any. Lock-free; safe to call from
    /// expansion workers because the committed index is frozen mid-layer.
    pub(super) fn find_committed(&self, hash: u64, state: &S, states: &[S]) -> Option<StateId> {
        find_id(&self.visited, hash, state, states)
    }

    /// Indexes a freshly committed state, which adopts the record of an
    /// equal state a rollback moved aside.
    pub(super) fn insert_committed(&mut self, hash: u64, id: StateId, state: &S) {
        insert_id(&mut self.visited, hash, id);
        self.hashes.push(hash);
        debug_assert_eq!(self.hashes.len() - 1, id as usize, "hash/store misaligned");
        self.records.adopt(id, hash, state);
    }

    /// Forgets every committed state with id `>= keep` (session rollback),
    /// moving `states` — the truncated ones — aside with their fingerprints
    /// and records until the check ends; the frontier layer starts at
    /// `frontier`.
    pub(super) fn truncate_committed(&mut self, keep: usize, frontier: usize, states: Vec<S>) {
        for id in keep..self.hashes.len() {
            remove_id(&mut self.visited, self.hashes[id], id as StateId);
        }
        let hashes = self.hashes.split_off(keep);
        self.records.rollback(keep, frontier, states, hashes);
    }

    /// Forgets all committed states and records (session reset).
    pub(super) fn reset(&mut self) {
        self.visited.clear();
        self.hashes.clear();
        self.records.reset();
    }

    /// Pops a drained name cache for seeding the next consultant (empty
    /// when none is banked).
    pub(super) fn pop_name_cache(&self) -> NameCache {
        self.name_caches.lock().pop().unwrap_or_default()
    }

    /// Banks a finished consultant's name cache for the next one.
    pub(super) fn push_name_cache(&self, cache: NameCache) {
        self.name_caches.lock().push(cache);
    }

    /// States per expansion chunk for a frontier of `len`, tuned from the
    /// previous layer's measured per-state cost: aim for
    /// [`TARGET_CHUNK_NANOS`] of work per chunk, but never fewer than two
    /// chunks per thread (load balance) and never more than sixteen (cap
    /// the dispatch churn). Tiny layers stay inline as one chunk.
    fn chunk_size(&self, len: usize) -> usize {
        #[cfg(any(test, feature = "reference"))]
        {
            if let Some(n) = self.chunk_override {
                return n.max(1);
            }
        }
        if self.threads <= 1 || self.rate_ns * len as f64 <= SOLO_LAYER_NANOS {
            return len.max(1);
        }
        let ideal = (TARGET_CHUNK_NANOS / self.rate_ns).ceil() as usize;
        let balance = len.div_ceil(self.threads * 2);
        let churn = len.div_ceil(self.threads * 16);
        ideal.min(balance).max(churn).max(1)
    }
    /// Expands the frontier `[f0, f1)` across the pool, retrying with a
    /// grown claim table in the (rare) case a layer outgrows it. On return
    /// the claim table holds every distinct successor first seen this
    /// layer, invariant-checked and ready for the walk to commit. With
    /// `answers` (a held session's check), a state whose record is valid
    /// under them is not expanded: the walk takes its record.
    pub(super) fn expand_layer<M>(
        &mut self,
        core: &SearchCore<'_, M>,
        registry: &HoleRegistry,
        resolver: &dyn SharedResolver,
        answers: Option<&dyn SessionResolver>,
        f0: usize,
        f1: usize,
    ) -> Vec<ChunkOut>
    where
        M: TransitionSystem<State = S>,
    {
        let threads = self.threads;
        self.pool
            .get_or_insert_with(|| WorkerPool::new(threads - 1));
        let frontier_len = f1 - f0;
        let mut want = (4 * self.last_claims.max(frontier_len)).max(256);
        loop {
            self.claims.prepare(want);
            let attempt = Instant::now();
            let chunks = self.run_chunks(core, registry, resolver, answers, f0, f1);
            if !self.claims.aborted() {
                self.last_claims = self.claims.allocated();
                self.rate_ns = (attempt.elapsed().as_nanos() as f64 / frontier_len as f64).max(1.0);
                return chunks;
            }
            // The attempt (records, discoveries, claims) is discarded
            // wholesale and the layer re-expanded — deferred registration
            // makes the retry invisible to everything else.
            want = self.claims.capacity() * 4;
        }
    }

    fn run_chunks<M>(
        &self,
        core: &SearchCore<'_, M>,
        registry: &HoleRegistry,
        resolver: &dyn SharedResolver,
        answers: Option<&dyn SessionResolver>,
        f0: usize,
        f1: usize,
    ) -> Vec<ChunkOut>
    where
        M: TransitionSystem<State = S>,
    {
        // Within-layer index every state past which workers may stop once a
        // failure is announced (`usize::MAX` = none announced).
        let stop = AtomicUsize::new(usize::MAX);
        let watch_deadlock = !core.options.allow_deadlock;
        let chunk = self.chunk_size(f1 - f0);
        let ranges: Vec<(usize, usize)> = (f0..f1)
            .step_by(chunk)
            .map(|lo| (lo, (lo + chunk).min(f1)))
            .collect();
        let pool = self.pool.as_ref().filter(|p| p.workers() > 0);
        let (Some(pool), true) = (pool, ranges.len() > 1) else {
            // Inline: same algorithm, zero extra threads (also the path a
            // clamped 1-core "parallel" run would take if forced here).
            return ranges
                .iter()
                .map(|&(lo, hi)| {
                    self.expand_chunk(
                        core,
                        registry,
                        resolver,
                        answers,
                        lo,
                        hi,
                        f0,
                        &stop,
                        watch_deadlock,
                    )
                })
                .collect();
        };
        let slots: Vec<Mutex<Option<ChunkOut>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
        let stop = &stop;
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = ranges
            .iter()
            .zip(&slots)
            .map(|(&(lo, hi), slot)| {
                Box::new(move || {
                    *slot.lock() = Some(self.expand_chunk(
                        core,
                        registry,
                        resolver,
                        answers,
                        lo,
                        hi,
                        f0,
                        stop,
                        watch_deadlock,
                    ));
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_batch(jobs);
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("chunk job did not run"))
            .collect()
    }

    /// One worker's share of a layer: drafts the expansion of every state
    /// in `[lo, hi)` that has no valid record, probing successors against
    /// the committed index and the claim table. A panic is caught per
    /// state and ends that state's draft ([`PANICKED`]), so it surfaces
    /// only if the walk reaches it.
    #[allow(clippy::too_many_arguments)]
    fn expand_chunk<M>(
        &self,
        core: &SearchCore<'_, M>,
        registry: &HoleRegistry,
        resolver: &dyn SharedResolver,
        answers: Option<&dyn SessionResolver>,
        lo: usize,
        hi: usize,
        f0: usize,
        stop: &AtomicUsize,
        watch_deadlock: bool,
    ) -> ChunkOut
    where
        M: TransitionSystem<State = S>,
    {
        crate::faults::probe_panic(crate::faults::site::EXPAND_CHUNK);
        let model = core.model;
        let mut consultant = Consultant::new(registry, resolver, self.pop_name_cache());
        let mut out = ChunkOut::default();
        for sid in lo..hi {
            if self.claims.aborted() {
                // Another worker (or we, below) overflowed the claim table:
                // the whole attempt is discarded, stop early.
                break;
            }
            let layer_idx = sid - f0;
            if layer_idx > stop.load(Ordering::Relaxed) {
                // A stop was announced at an earlier index: the walk
                // provably stops before here, so this expansion would be
                // pure wasted work.
                out.states.push(Drafted::Skipped);
                continue;
            }
            if answers.is_some_and(|answers| self.records.valid(sid, answers)) {
                out.states.push(Drafted::Recorded);
                continue;
            }
            let (mut rule, mut done) = (0, out.words.len());
            let claiming = Cell::new(false);
            let violated = |s: &S| {
                claiming.set(true);
                let violation = violated_index(model, s);
                claiming.set(false);
                violation
            };
            // AssertUnwindSafe: after a panic the consultant is only drained,
            // and the words are cut back to the last whole application.
            let expanded = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut exits = false;
                for (ri, r) in model.rules().iter().enumerate() {
                    rule = ri;
                    let word = match consultant.apply(r, &core.states[sid]) {
                        RuleOutcome::Disabled => DISABLED,
                        RuleOutcome::Blocked => {
                            exits = true;
                            BLOCKED
                        }
                        RuleOutcome::Next(next) => {
                            exits = true;
                            let next = model.canonicalize(next);
                            let hash = fingerprint(&next);
                            match self.find_committed(hash, &next, &core.states) {
                                Some(id) => id,
                                None => match self.claims.probe(hash, next, &violated) {
                                    ClaimProbe::Aborted => return None,
                                    ClaimProbe::Fresh { claim, violation } => {
                                        if violation.is_some() {
                                            stop.fetch_min(layer_idx, Ordering::Relaxed);
                                        }
                                        let index = out.claims.len() as u32;
                                        assert!(index < HELD - CLAIM, "too many claims in a chunk");
                                        out.claims.push(claim);
                                        CLAIM | index
                                    }
                                },
                            }
                        }
                    };
                    push_app(
                        &mut out.words,
                        ri,
                        &consultant.touches,
                        &consultant.wildcards,
                        &consultant.fresh,
                        word,
                    );
                    done = out.words.len();
                }
                Some(exits)
            }));
            match expanded {
                Ok(None) => break,
                Ok(Some(exits)) => {
                    if watch_deadlock && !exits {
                        stop.fetch_min(layer_idx, Ordering::Relaxed);
                    }
                }
                Err(payload) => {
                    out.words.truncate(done);
                    out.words.extend([rule as u32, PANICKED, 0]);
                    let claiming = claiming.get();
                    out.panic = Some(Panicked { payload, claiming });
                    stop.fetch_min(layer_idx, Ordering::Relaxed);
                }
            }
            out.states.push(Drafted::Draft(out.words.len()));
        }
        out.discoveries = consultant.take_pending();
        self.push_name_cache(consultant.into_cache());
        out
    }

    /// Walks the layer's drafts chunk by chunk — states in commit order,
    /// rules in table order, the serial order — committing every
    /// expansion through [`Engine::step`]. `Err` carries the outcome that
    /// ended the check inside the layer.
    pub(super) fn walk_layer<M>(
        &mut self,
        core: &mut SearchCore<'_, M>,
        walk: &mut Walk,
        start: Instant,
        f0: usize,
        chunks: Vec<ChunkOut>,
    ) -> Result<(), Box<Outcome<S>>>
    where
        M: TransitionSystem<State = S>,
    {
        let mut sid = f0;
        for mut chunk in chunks {
            let mut refs = Refs {
                claims: &chunk.claims,
                panic: chunk.panic.take(),
                held: None,
            };
            let (mut from, mut walked) = (0, Ok(()));
            for &drafted in &chunk.states {
                walk.begin_state(core, sid);
                walked = match drafted {
                    Drafted::Skipped => {
                        panic!("the walk reached a state the short-circuit skipped")
                    }
                    Drafted::Recorded => self.walk_record(core, walk, start, sid),
                    Drafted::Draft(to) => {
                        let words = &mut chunk.words[from..to];
                        from = to;
                        self.walk_expansion(core, walk, start, sid, words, &mut refs, true)
                    }
                };
                sid += 1;
                if walked.is_err() {
                    break;
                }
            }
            walk.end_scope(chunk.discoveries);
            walked?;
        }
        Ok(())
    }

    /// Takes frontier state `sid`'s expansion from its record, which
    /// [`Records::valid`] accepted under the check's answers: the walk of a
    /// draft, with no rule application, canonicalization or hashing.
    pub(super) fn walk_record<M>(
        &mut self,
        core: &mut SearchCore<'_, M>,
        walk: &mut Walk,
        start: Instant,
        sid: usize,
    ) -> Result<(), Box<Outcome<S>>>
    where
        M: TransitionSystem<State = S>,
    {
        // Out of its slot while walked: committing a tail state moves that
        // state's own record into another slot.
        let mut record = self.records.take(sid);
        let walked = self.walk_expansion(
            core,
            walk,
            start,
            sid,
            &mut record.0,
            &mut Refs::none(),
            false,
        );
        self.records.put(sid, record);
        walked
    }

    /// Walks one expansion application by application, then ends the
    /// state.
    #[allow(clippy::too_many_arguments)]
    fn walk_expansion<M>(
        &mut self,
        core: &mut SearchCore<'_, M>,
        walk: &mut Walk,
        start: Instant,
        sid: usize,
        words: &mut [u32],
        refs: &mut Refs<'_, S>,
        store: bool,
    ) -> Result<(), Box<Outcome<S>>>
    where
        M: TransitionSystem<State = S>,
    {
        let mut at = 0;
        while at < words.len() {
            let len = app_len(&words[at..]);
            let app = &mut words[at..at + len];
            self.step(core, walk, start, sid, app, refs)?;
            at += app.len();
        }
        self.end_state(core, walk, start, sid, words, store)
    }

    /// Commits one rule application of state `sid`, in the serial order's
    /// steps: the hole-touch log, statistics, the successor's admission
    /// clamp, commit and edge, its invariants, and the stop. The successor
    /// word is renamed to the successor's id.
    pub(super) fn step<M>(
        &mut self,
        core: &mut SearchCore<'_, M>,
        walk: &mut Walk,
        start: Instant,
        sid: usize,
        app: &mut [u32],
        refs: &mut Refs<'_, S>,
    ) -> Result<(), Box<Outcome<S>>>
    where
        M: TransitionSystem<State = S>,
    {
        walk.log_app(app);
        match app[1] {
            DISABLED => {}
            BLOCKED => {
                walk.any_blocked = true;
                core.stats.wildcard_hits += 1;
            }
            PANICKED => {
                let panicked = refs
                    .panic
                    .take()
                    .expect("a panicked draft without its panic");
                if panicked.claiming {
                    core.stats.transitions += 1;
                    core.admit(start)?;
                }
                std::panic::resume_unwind(panicked.payload);
            }
            word => {
                walk.any_next = true;
                core.stats.transitions += 1;
                let rule = app[0];
                // A claim's invariants were judged by its worker; any other
                // new successor's are judged here.
                let (id, violation) = match self.successor(&core.states, word, refs) {
                    Successor::Committed(id) => (id, None),
                    new => {
                        core.admit(start)?;
                        let (state, hash, claim, tail) = match new {
                            Successor::Committed(_) => unreachable!("not a new successor"),
                            Successor::Tail(t) => {
                                let (state, hash) = self.records.take_tail(t);
                                (state, hash, None, Some(t))
                            }
                            Successor::Claim(claim) => {
                                let parked = self.claims.claim_mut(claim);
                                let state = parked.state.take().expect("claim committed twice");
                                (state, parked.hash, Some(claim), None)
                            }
                            Successor::Held => {
                                let held = refs.held.take();
                                let (state, hash) =
                                    held.expect("a held successor without its state");
                                (state, hash, None, None)
                            }
                        };
                        walk.edge.clear();
                        walk.edge.extend(known_touches(app));
                        let id = core.commit(state, Some((sid as StateId, rule)), &walk.edge);
                        self.insert_committed(hash, id, &core.states[id as usize]);
                        if let Some(t) = tail {
                            self.records.settle_tail(t, id);
                        }
                        let violation = match claim {
                            Some(claim) => {
                                let parked = self.claims.claim_mut(claim);
                                parked.id = Some(id);
                                let violation = parked.violation;
                                violation
                                    .map(|pi| invariant_name(core.model, pi as usize).to_owned())
                            }
                            None => core.violated_invariant(id).map(str::to_owned),
                        };
                        (id, violation)
                    }
                };
                if let Some(edges) = &mut core.edges {
                    edges[sid].push(Edge { rule, target: id });
                }
                if let Some(property) = violation {
                    return Err(Box::new(core.invariant_failure(start, id, property)));
                }
                app[1] = id;
            }
        }
        Ok(())
    }

    /// Where successor word `word` points: a committed id, a tail state, a
    /// claim not committed yet, or the serial schedule's state in hand.
    fn successor(&mut self, states: &[S], word: u32, refs: &Refs<'_, S>) -> Successor {
        if word == HELD {
            return Successor::Held;
        }
        if word < CLAIM {
            return self.records.resolve(word);
        }
        let claim = refs.claims[(word & !CLAIM) as usize];
        let parked = self.claims.claim_mut(claim);
        if parked.id.is_none() && self.records.has_tail() {
            // Earlier in this walk a stored record may have committed this
            // very state from the rollback tail.
            let state = parked.state.as_ref().expect("claim committed twice");
            parked.id = find_id(&self.visited, parked.hash, state, states);
        }
        match parked.id {
            Some(id) => Successor::Committed(id),
            None => Successor::Claim(claim),
        }
    }

    /// Ends the expansion of state `sid`, whose words are `words`: with
    /// `store` (a draft) a held session's check stores it as the state's
    /// record, unless it consulted a deferred discovery; then the deadlock
    /// verdict.
    pub(super) fn end_state<M>(
        &mut self,
        core: &mut SearchCore<'_, M>,
        walk: &Walk,
        start: Instant,
        sid: usize,
        words: &[u32],
        store: bool,
    ) -> Result<(), Box<Outcome<S>>>
    where
        M: TransitionSystem<State = S>,
    {
        if store && walk.session {
            let record = (!walk.any_fresh).then(|| Record(words.into()));
            self.records.store(sid, record);
        }
        // A state with no successors is a deadlock — unless a wildcard
        // aborted some branch, in which case we cannot tell (the aborted
        // branch might have provided an exit).
        if !walk.any_next && !walk.any_blocked && !core.options.allow_deadlock {
            let expansion = expansion_touches(words);
            return Err(Box::new(core.deadlock(start, sid as StateId, &expansion)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests_support::assert_equivalent;
    use super::*;
    use crate::checker::{Checker, Verdict};
    use crate::error::MckError;
    use crate::eval::{Choice, FixedResolver, HoleSpec, NoHoles};
    use crate::model::ModelBuilder;

    fn collatz_like() -> crate::model::BuiltModel<u64> {
        // A branchy, many-layer graph: rich enough to exercise striping and
        // within-layer duplicate claims.
        let mut b = ModelBuilder::new("branchy");
        b.initial(1u64);
        b.rule("triple", |&s: &u64, _| {
            if s < 500 {
                RuleOutcome::Next(3 * s + 1)
            } else {
                RuleOutcome::Disabled
            }
        });
        b.rule("half", |&s: &u64, _| RuleOutcome::Next(s / 2));
        b.rule("inc", |&s: &u64, _| {
            if s < 300 {
                RuleOutcome::Next(s + 1)
            } else {
                RuleOutcome::Disabled
            }
        });
        b.invariant("bounded", |&s: &u64| s < 2_000);
        b.finish()
    }

    #[test]
    fn parallel_matches_serial_on_success() {
        let m = collatz_like();
        assert_equivalent(&m, &NoHoles, CheckerOptions::default());
    }

    #[test]
    fn parallel_matches_serial_on_invariant_failure() {
        let mut b = ModelBuilder::new("grow");
        b.initial(0u32);
        b.rule("slow", |&s: &u32, _| RuleOutcome::Next(s + 1));
        b.rule("fast", |&s: &u32, _| RuleOutcome::Next(s + 7));
        b.invariant("small", |&s: &u32| s < 40);
        let m = b.finish();
        assert_equivalent(&m, &NoHoles, CheckerOptions::default());
    }

    #[test]
    fn parallel_matches_serial_on_deadlock() {
        let mut b = ModelBuilder::new("sink");
        b.initial(0u8);
        b.rule("step", |&s: &u8, _| {
            if s < 5 {
                RuleOutcome::Next(s + 1)
            } else {
                RuleOutcome::Disabled
            }
        });
        let m = b.finish();
        assert_equivalent(&m, &NoHoles, CheckerOptions::default());
    }

    #[test]
    fn parallel_matches_serial_on_state_limit() {
        let mut b = ModelBuilder::new("big");
        b.initial(0u64);
        b.rule("inc", |&s: &u64, _| RuleOutcome::Next(s + 1));
        b.rule("dec", |&s: &u64, _| {
            if s > 0 {
                RuleOutcome::Next(s - 1)
            } else {
                RuleOutcome::Disabled
            }
        });
        let m = b.finish();
        let serial = Checker::new(CheckerOptions::default().max_states(100)).run(&m);
        let par = Checker::new(
            CheckerOptions::default()
                .max_states(100)
                .threads(4)
                .clamp_threads(false),
        )
        .run(&m);
        assert_eq!(par.verdict(), Verdict::Unknown);
        assert_eq!(serial.stats(), par.stats());
        assert!(
            par.stats().states_visited <= 100,
            "committed states never exceed the cap"
        );
        assert!(matches!(
            par.incomplete(),
            Some(MckError::StateLimitExceeded { limit: 100 })
        ));
    }

    #[test]
    fn parallel_matches_serial_with_holes() {
        let mut b = ModelBuilder::new("holey");
        b.initial(0u8);
        b.rule("choose", |&s: &u8, ctx| {
            if s >= 6 {
                return RuleOutcome::Disabled;
            }
            let spec = HoleSpec::new("h", ["one", "two"]);
            match ctx.choose(&spec) {
                Choice::Action(i) => RuleOutcome::Next(s + i as u8 + 1),
                Choice::Wildcard => RuleOutcome::Blocked,
            }
        });
        b.invariant("bounded", |&s: &u8| s < 9);
        let m = b.finish();

        // Concrete assignment, wildcard fallback, each across thread counts.
        for resolver in [
            FixedResolver::from_pairs([("h", 1usize)]),
            FixedResolver::new(),
        ] {
            assert_equivalent(&m, &resolver, CheckerOptions::default());
        }
    }

    #[test]
    fn parallel_keeps_graph() {
        let m = collatz_like();
        let serial = Checker::new(CheckerOptions::default().keep_graph(true)).run(&m);
        let par = Checker::new(
            CheckerOptions::default()
                .keep_graph(true)
                .threads(4)
                .clamp_threads(false),
        )
        .run(&m);
        let (sg, pg) = (serial.graph().unwrap(), par.graph().unwrap());
        assert_eq!(sg.len(), pg.len());
        assert_eq!(sg.to_dot("m"), pg.to_dot("m"), "identical committed graphs");
    }

    #[test]
    fn short_circuit_preserves_minimal_witness() {
        // A binary tree whose deeper layers are littered with violating
        // states: many workers announce stops concurrently, and the chosen
        // counterexample must still be the serial one — at every thread
        // count and even with 1-state chunks (maximum announcement racing).
        let mut b = ModelBuilder::new("many-bad");
        b.initial(1u32);
        b.rule("left", |&s: &u32, _| {
            if s < 512 {
                RuleOutcome::Next(2 * s)
            } else {
                RuleOutcome::Disabled
            }
        });
        b.rule("right", |&s: &u32, _| {
            if s < 512 {
                RuleOutcome::Next(2 * s + 1)
            } else {
                RuleOutcome::Disabled
            }
        });
        b.invariant("spread", |&s: &u32| !(s >= 40 && s % 3 == 0));
        let m = b.finish();
        let options = CheckerOptions::default().allow_deadlock();
        assert_equivalent(&m, &NoHoles, options.clone());
        assert_equivalent(&m, &NoHoles, options.chunk_states(1));
    }

    #[test]
    fn stress_knobs_match_serial() {
        // Adversarial interleaving: oversubscribed threads, 1-state chunks,
        // and a single claim stripe so every arena append contends on one
        // lock while bucket CASes race maximally.
        let m = collatz_like();
        assert_equivalent(
            &m,
            &NoHoles,
            CheckerOptions::default().chunk_states(1).claim_stripes(1),
        );
    }

    /// `step` (s < 3 → s + 1) and `bad` (1 → 9) from 0, with `never 9`:
    /// state 1's `bad` ends the check before any later rule of state 1.
    fn stopping_at_nine() -> ModelBuilder<u8> {
        let mut b = ModelBuilder::new("stops at nine");
        b.initial(0u8);
        b.rule("step", |&s: &u8, _| match s {
            0..=2 => RuleOutcome::Next(s + 1),
            _ => RuleOutcome::Disabled,
        });
        b.rule("bad", |&s: &u8, _| match s {
            1 => RuleOutcome::Next(9),
            _ => RuleOutcome::Disabled,
        });
        b.invariant("never 9", |&s: &u8| s != 9);
        b
    }

    /// Adds `late` (`from` → 7) and an invariant that panics on 7.
    fn judging_seven(b: &mut ModelBuilder<u8>, from: u8) {
        b.rule("late", move |&s: &u8, _| match s {
            _ if s == from => RuleOutcome::Next(7),
            _ => RuleOutcome::Disabled,
        });
        b.invariant("judged", |&s: &u8| {
            assert_ne!(s, 7, "judged 7");
            true
        });
    }

    /// A panic the serial order never reaches (a later rule of the state
    /// whose expansion stops the check, or an invariant of a successor such
    /// a rule produces) changes no verdict at any thread count: workers
    /// apply every rule of a state, so they catch the panic and the walk
    /// stops before it.
    #[test]
    fn a_panic_past_the_stop_changes_no_verdict() {
        let mut b = stopping_at_nine();
        b.rule("boom", |&s: &u8, _| {
            assert_ne!(s, 1, "boom");
            RuleOutcome::Disabled
        });
        assert_equivalent(&b.finish(), &NoHoles, CheckerOptions::default());

        let mut b = stopping_at_nine();
        judging_seven(&mut b, 1);
        assert_equivalent(&b.finish(), &NoHoles, CheckerOptions::default());

        // The serial order refuses 7 at the cap before judging it.
        let mut b = ModelBuilder::new("judged at the cap");
        b.initial(0u8);
        b.rule("step", |&s: &u8, _| match s {
            0 => RuleOutcome::Next(1),
            _ => RuleOutcome::Disabled,
        });
        judging_seven(&mut b, 0);
        let capped = CheckerOptions::default().max_states(2);
        assert_equivalent(&b.finish(), &NoHoles, capped);
    }

    #[test]
    fn claim_table_growth_matches_serial() {
        // One frontier state fans out to ~1500 distinct successors — more
        // than the initial claim budget — forcing the abort-and-grow retry
        // path, which must stay invisible in the outcome.
        let mut b = ModelBuilder::new("fan");
        b.initial(0u32);
        b.ruleset("fan", 0..1500u32, |i| {
            move |&s: &u32, _: &mut dyn crate::eval::HoleResolver| {
                if s == 0 {
                    RuleOutcome::Next(i + 1)
                } else {
                    RuleOutcome::Disabled
                }
            }
        });
        let m = b.finish();
        assert_equivalent(&m, &NoHoles, CheckerOptions::default().allow_deadlock());
    }
}
