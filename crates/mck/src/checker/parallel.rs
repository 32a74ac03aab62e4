//! The layer-synchronized parallel BFS engine (commit-replay architecture):
//! how a [`super::CheckSession`] expands a layer when it has more than one
//! effective thread.
//!
//! Parallel explicit-state exploration usually trades determinism for speed:
//! work-stealing frontiers visit states in racy orders, so two runs (or a
//! parallel and a serial run) report different statistics and — worse —
//! different counterexamples. This engine keeps the speed and discards the
//! race, following the layer-synchronized discipline of Stern & Dill's
//! parallel Murϕ, with all per-state work pushed into the parallel phase:
//!
//! 1. **Expand** (parallel): the current BFS layer is split into chunks
//!    whose size is auto-tuned from the previous layer's measured expansion
//!    rate (see [`Engine::chunk_size`]), executed by a persistent
//!    [`WorkerPool`]. Each worker applies every rule to its states (through
//!    its own expansion resolver obtained via
//!    [`SharedResolver::expansion_worker`]), canonicalizes successors,
//!    fingerprints them, **evaluates their invariants**, and probes them
//!    against a lock-free open-addressing [`ClaimTable`]: a CAS on an
//!    `AtomicU64` bucket claims an unseen state, and the full state bodies
//!    live in striped mutex-protected arenas touched only on claim creation
//!    and tag-collision checks. Already-committed successors resolve with a
//!    plain lock-free hash-map read.
//! 2. **Replay** (sequential, cheap): the recorded rule outcomes are walked
//!    in the session's serial loop's exact order — layer states in commit order,
//!    rules in table order — committing claimed states (already
//!    canonicalized, fingerprinted, and invariant-checked; the replay just
//!    moves them into the store and assigns dense [`StateId`]s), counting
//!    statistics, and raising failures, deadlocks, and the state cap
//!    *exactly* where the serial loop would.
//!
//! The barrier between layers is what preserves **minimal counterexamples**:
//! no state of layer `d+1` is expanded before every state of layer `d` has
//! been, so the first failure found is found at its minimal depth, and the
//! replay's deterministic order picks the same witness the serial loop
//! picks. The replay no longer re-touches state bodies at all — its cost is
//! a record walk plus arena-to-store moves — so rule application, symmetry
//! canonicalization, fingerprinting, and invariant evaluation, which
//! dominate, all scale with the worker count.
//!
//! Three further mechanisms keep the determinism tax down:
//!
//! * **Earliest-stop short-circuit**: a worker that claims a violating
//!   successor (or sees a deadlocked state) publishes the state's
//!   within-layer index to a relaxed atomic via `fetch_min`; workers skip
//!   states beyond the smallest announced index. The replay stops at or
//!   before that index — the serial witness is always at the *minimum*
//!   announced position or earlier — so skipped work is provably unobserved.
//! * **Replay-gated resolver effects**: expansion workers consult the
//!   resolver provisionally ([`SharedResolver::expansion_worker`]); the
//!   concrete resolutions the replay actually consumes are reported once per
//!   layer through [`SharedResolver::note_replayed_touches`], and deferred
//!   hole discoveries register at their first replayed consultation, in
//!   serial order. Applications the replay discards (past a failure or the
//!   state cap) therefore never leak into touched sets, hole registries, or
//!   pattern publications.
//! * **Abort-and-grow**: the claim table is sized from the previous layer's
//!   claim count; if a layer outgrows it, workers abort at state
//!   boundaries, the attempt's records are discarded, and the layer is
//!   re-expanded against a larger table — a rare, contention-free
//!   alternative to resizing a lock-free table mid-flight.
//!
//! The result is a strong invariant, asserted by the equivalence suite
//! (`tests/checker_parallel_equivalence.rs`): for every model and resolver,
//! every thread count returns the **same verdict, the same `Stats` (state,
//! transition, depth, and queue counters), and the same counterexample
//! trace** as the reference serial BFS (`super::reference`) — and the same
//! per-layer hole-touch logs as the session's serial loop.
//!
//! One deliberate, documented divergence remains outside that invariant:
//! expansion may run (most of) a layer even when the replay will stop at a
//! failure or the state cap partway through it, so up to one layer of
//! claimed successor states may be held *transiently* in the claim arenas
//! beyond `max_states` before the replay's admission clamp discards them
//! (the committed store — and therefore `Stats.states_visited` — never
//! exceeds the cap; see [`CheckerOptions::max_states`]).

use super::pool::WorkerPool;
use super::records::{RecordDraft, Recorded, Records, Successor};
use super::{
    fingerprint, insert_id, remove_id, CheckerOptions, DeadlockPolicy, Edge, IdList, MckError,
    Outcome, SearchCore, StateId,
};
use crate::eval::{NameCache, SessionResolver, SharedResolver, WildcardTouch};
use crate::hashers::FnvHashMap;
use crate::model::TransitionSystem;
use crate::properties::Property;
use crate::rule::RuleOutcome;
use parking_lot::Mutex;
use std::hash::Hash;
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
/// replay commits it. Immutable after publication except for `state` and
/// `id`, which only the single-threaded replay touches.
pub(super) struct Claim<S> {
    hash: u64,
    /// The claimed state; taken when the replay commits it.
    state: Option<S>,
    /// The committed id, once the replay assigns one.
    id: Option<StateId>,
    /// Index (into the model's property list) of the first invariant this
    /// state violates, evaluated by the claiming worker so the replay never
    /// re-inspects state bodies.
    violation: Option<u32>,
}

/// Result of probing one not-yet-committed successor against the claim
/// table (committed states are resolved before the table is consulted).
pub(super) enum ClaimProbe {
    /// The state is claimed (by this probe or an earlier one); the replay
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

    /// Exclusive access to a claim during the (single-threaded) replay.
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
                                "claim stripe overflow ({slot} claims in one stripe); \
                                 raise CheckerOptions::claim_stripes"
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

/// One rule application worth remembering: anything that fired, blocked, or
/// consulted a hole. Plain disabled guards with no consultations — the
/// overwhelming majority — leave no record.
pub(super) struct AppRecord {
    pub(super) rule: u32,
    /// Concrete hole resolutions this application consulted.
    pub(super) touches: Box<[(usize, u16)]>,
    /// Wildcard consultations (known holes, or deferred first sightings as
    /// indices into the chunk's discovery list).
    pub(super) wildcards: Box<[WildcardTouch]>,
    /// Concrete resolutions of deferred first sightings, as `(index into the
    /// chunk's discovery list, action)` — the concrete sibling of
    /// [`WildcardTouch::Fresh`], produced by resolvers whose discovery
    /// default is a real action.
    pub(super) fresh: Box<[(u32, u16)]>,
    pub(super) outcome: RecOutcome,
}

pub(super) enum RecOutcome {
    /// Guard false, but holes were consulted (a deadlock verdict — and a
    /// session touch log — depends on these resolutions too).
    Disabled,
    /// Hit a wildcard hole; branch aborted.
    Blocked,
    /// Fired, producing this successor.
    Next(SuccessorRef),
}

pub(super) enum SuccessorRef {
    /// Already committed under this id before the layer began.
    Known(StateId),
    /// First seen this layer: parked in the claim table, invariants already
    /// evaluated by the claiming worker.
    Fresh { claim: u32, violation: Option<u32> },
}

/// Everything a worker recorded about expanding one source state.
pub(super) enum StateRec {
    /// Expanded by applying every rule.
    Expanded(Vec<AppRecord>),
    /// The state's expansion record is valid under the check's answers: the
    /// replay takes the expansion from it ([`Engine::replay_record`]).
    Recorded,
    /// Placeholder for a state skipped by the earliest-stop short-circuit.
    /// The replay provably stops before consuming one (the deterministic
    /// witness lies at or before the minimum announced index) and asserts
    /// so.
    Skipped,
}

/// Everything one expansion chunk produced.
pub(super) struct ChunkOut {
    pub(super) recs: Vec<StateRec>,
    /// Hole specs first sighted by this chunk's worker, in consultation
    /// order; registered lazily at their first *replayed* consultation.
    pub(super) discoveries: Vec<crate::eval::HoleSpec>,
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
/// the persistent worker pool, the chunk auto-tuner, and the deterministic
/// replay. The session's serial loop uses only the committed index, the
/// records, the record replay and the name-cache bank.
pub(super) struct Engine<S> {
    /// Fingerprint → committed ids. Read lock-free by expansion workers
    /// (committed entries never change mid-layer); mutated only by the
    /// single-threaded replay and the serial session path.
    visited: FnvHashMap<u64, IdList>,
    /// Fingerprint of every committed state, aligned with the store — what
    /// lets session rollback evict truncated ids without re-hashing.
    hashes: Vec<u64>,
    /// Expansion records of a held session's fully expanded states, and the
    /// tail a rollback moved aside (see [`super::records`]).
    pub(super) records: Records<S>,
    claims: ClaimTable<S>,
    /// Persistent expansion workers (`threads - 1`; the calling thread
    /// works each batch too). Built lazily on the first parallel layer and
    /// rebuilt whenever the effective thread count changes
    /// ([`super::CheckSession::set_threads`]).
    pool: Option<WorkerPool>,
    threads: usize,
    chunk_override: Option<usize>,
    /// Measured expansion cost per frontier state (ns), trailing one layer;
    /// drives [`Engine::chunk_size`].
    rate_ns: f64,
    /// Claims allocated by the previous layer; sizes the next claim table.
    last_claims: usize,
    /// Hole name → id caches drained from finished workers and re-seeded
    /// into later ones, so name resolution hits the shared registry once
    /// per run (or per session) rather than once per chunk.
    name_caches: Mutex<Vec<NameCache>>,
}

impl<S: Clone + Eq + Hash + Send + Sync> Engine<S> {
    pub(super) fn new(options: &CheckerOptions) -> Self {
        let threads = options.effective_threads();
        let stripes = options
            .claim_stripes
            .unwrap_or_else(|| (threads * 8).clamp(16, MAX_STRIPES))
            .clamp(1, MAX_STRIPES)
            .next_power_of_two();
        Engine {
            visited: FnvHashMap::default(),
            hashes: Vec::new(),
            records: Records::default(),
            claims: ClaimTable::new(stripes),
            pool: None,
            threads,
            chunk_override: options.chunk_states,
            rate_ns: 1000.0,
            last_claims: 0,
            name_caches: Mutex::new(Vec::new()),
        }
    }

    /// Retargets the engine to a new effective thread count; a stale pool
    /// is torn down and rebuilt on the next parallel layer.
    pub(super) fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
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

    /// Pops a drained name cache for seeding the next worker (empty when
    /// none is banked).
    pub(super) fn pop_name_cache(&self) -> NameCache {
        self.name_caches.lock().pop().unwrap_or_default()
    }

    /// Banks a finished worker's name cache for the next worker.
    pub(super) fn push_name_cache(&self, cache: NameCache) {
        self.name_caches.lock().push(cache);
    }

    fn ensure_pool(&mut self) {
        let want = self.threads.saturating_sub(1);
        if self.pool.as_ref().map(WorkerPool::workers) != Some(want) {
            self.pool = (want > 0).then(|| WorkerPool::new(want));
        }
    }

    /// States per expansion chunk for a frontier of `len`, tuned from the
    /// previous layer's measured per-state cost: aim for
    /// [`TARGET_CHUNK_NANOS`] of work per chunk, but never fewer than two
    /// chunks per thread (load balance) and never more than sixteen (cap
    /// the dispatch churn). Tiny layers stay inline as one chunk.
    fn chunk_size(&self, len: usize) -> usize {
        if let Some(n) = self.chunk_override {
            return n.max(1);
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
    /// layer, invariant-checked and ready for the replay to commit. With
    /// `answers` (a held session's check), a state whose record is valid
    /// under them is not expanded: the replay takes its record.
    pub(super) fn expand_layer<M, R>(
        &mut self,
        core: &SearchCore<'_, M>,
        resolver: &R,
        answers: Option<&dyn SessionResolver>,
        f0: usize,
        f1: usize,
    ) -> Vec<ChunkOut>
    where
        M: TransitionSystem<State = S>,
        R: SharedResolver + ?Sized,
    {
        self.ensure_pool();
        let frontier_len = f1 - f0;
        let mut want = (4 * self.last_claims.max(frontier_len)).max(256);
        loop {
            self.claims.prepare(want);
            let attempt = Instant::now();
            let chunks = self.run_chunks(core, resolver, answers, f0, f1);
            if !self.claims.aborted() {
                self.last_claims = self.claims.allocated();
                self.rate_ns = (attempt.elapsed().as_nanos() as f64 / frontier_len as f64).max(1.0);
                return chunks;
            }
            // The attempt (records, discoveries, claims) is discarded
            // wholesale and the layer re-expanded — deferred resolver
            // consultations make the retry invisible to everything else.
            want = self.claims.capacity() * 4;
        }
    }

    fn run_chunks<M, R>(
        &self,
        core: &SearchCore<'_, M>,
        resolver: &R,
        answers: Option<&dyn SessionResolver>,
        f0: usize,
        f1: usize,
    ) -> Vec<ChunkOut>
    where
        M: TransitionSystem<State = S>,
        R: SharedResolver + ?Sized,
    {
        // Within-layer index every state past which workers may stop once a
        // failure is announced (`usize::MAX` = none announced).
        let stop = AtomicUsize::new(usize::MAX);
        let watch_deadlock = core.options.deadlock == DeadlockPolicy::Disallow;
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
                    self.expand_chunk(core, resolver, answers, lo, hi, f0, &stop, watch_deadlock)
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

    /// One worker's share of a layer: apply every rule to every state in
    /// `[lo, hi)` that has no valid record, probing successors against the
    /// committed index and the claim table, recording everything the replay
    /// needs.
    #[allow(clippy::too_many_arguments)]
    fn expand_chunk<M, R>(
        &self,
        core: &SearchCore<'_, M>,
        resolver: &R,
        answers: Option<&dyn SessionResolver>,
        lo: usize,
        hi: usize,
        f0: usize,
        stop: &AtomicUsize,
        watch_deadlock: bool,
    ) -> ChunkOut
    where
        M: TransitionSystem<State = S>,
        R: SharedResolver + ?Sized,
    {
        crate::faults::probe_panic(crate::faults::site::EXPAND_CHUNK);
        let states = &core.states;
        let model = core.model;
        let mut worker = resolver.expansion_worker(self.pop_name_cache());
        let mut recs = Vec::with_capacity(hi - lo);

        'states: for sid in lo..hi {
            if self.claims.aborted() {
                // Another worker (or we, below) overflowed the claim table:
                // the whole attempt is discarded, stop early.
                break;
            }
            let layer_idx = sid - f0;
            if layer_idx > stop.load(Ordering::Relaxed) {
                // A failure was announced at an earlier index: the replay
                // provably stops before here, so this expansion would be
                // pure wasted work.
                recs.push(StateRec::Skipped);
                continue;
            }
            if answers.is_some_and(|answers| self.records.valid(sid, answers)) {
                recs.push(StateRec::Recorded);
                continue;
            }
            let state = &states[sid];
            let mut records = Vec::new();
            let mut any_next = false;
            let mut any_blocked = false;
            for (ri, rule) in model.rules().iter().enumerate() {
                worker.begin_application();
                let rule_outcome = rule.apply(state, &mut *worker);
                let touches = worker.application_touches();
                let wildcards = worker.application_wildcards();
                let fresh = worker.application_fresh_touches();
                let outcome = match rule_outcome {
                    RuleOutcome::Disabled
                        if touches.is_empty() && wildcards.is_empty() && fresh.is_empty() =>
                    {
                        continue
                    }
                    RuleOutcome::Disabled => RecOutcome::Disabled,
                    RuleOutcome::Blocked => {
                        any_blocked = true;
                        RecOutcome::Blocked
                    }
                    RuleOutcome::Next(next) => {
                        any_next = true;
                        let next = model.canonicalize(next);
                        let hash = fingerprint(&next);
                        let succ = match self.find_committed(hash, &next, states) {
                            Some(id) => SuccessorRef::Known(id),
                            None => {
                                let probe =
                                    self.claims.probe(hash, next, &|s| violated_index(model, s));
                                match probe {
                                    ClaimProbe::Aborted => break 'states,
                                    ClaimProbe::Fresh { claim, violation } => {
                                        if violation.is_some() {
                                            stop.fetch_min(layer_idx, Ordering::Relaxed);
                                        }
                                        SuccessorRef::Fresh { claim, violation }
                                    }
                                }
                            }
                        };
                        RecOutcome::Next(succ)
                    }
                };
                records.push(AppRecord {
                    rule: ri as u32,
                    touches: touches.into(),
                    wildcards: wildcards.into(),
                    fresh: fresh.into(),
                    outcome,
                });
            }
            if watch_deadlock && !any_next && !any_blocked {
                stop.fetch_min(layer_idx, Ordering::Relaxed);
            }
            recs.push(StateRec::Expanded(records));
        }
        let discoveries = worker.take_pending_discoveries();
        let cache = worker.take_name_cache();
        drop(worker);
        self.push_name_cache(cache);
        ChunkOut { recs, discoveries }
    }

    /// Replays the layer's records in the serial loop's exact order:
    /// committing claims (cheap arena-to-store moves), assigning dense ids,
    /// counting statistics, registering deferred hole discoveries at their
    /// first replayed consultation, and raising failures, deadlocks, and
    /// the state cap at the same sequence points as a serial run. `Err`
    /// carries the outcome that ended the run inside this layer.
    ///
    /// `log` collects the layer's hole-touch entries (unsorted; the session
    /// sorts and seals them). Whatever the exit, the
    /// concrete resolutions the replay consumed are reported through
    /// [`SharedResolver::note_replayed_touches`] — the replay-confirmed
    /// touched set, identical to what a serial run would have recorded.
    /// With `record` (a held session's check) every expansion the replay
    /// consumes whole is stored as its state's expansion record.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn replay_layer<M, R>(
        &mut self,
        core: &mut SearchCore<'_, M>,
        resolver: &R,
        record: bool,
        start: Instant,
        f0: usize,
        chunks: Vec<ChunkOut>,
        log: &mut Vec<LayerTouch>,
    ) -> Result<(), Box<Outcome<M::State>>>
    where
        M: TransitionSystem<State = S>,
        R: SharedResolver + ?Sized,
    {
        let mut replayed: Vec<(usize, u16)> = Vec::new();
        let result = self.replay_records(
            core,
            resolver,
            record,
            start,
            f0,
            chunks,
            log,
            &mut replayed,
        );
        replayed.sort_unstable();
        replayed.dedup();
        resolver.note_replayed_touches(&replayed);
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn replay_records<M, R>(
        &mut self,
        core: &mut SearchCore<'_, M>,
        resolver: &R,
        record: bool,
        start: Instant,
        f0: usize,
        chunks: Vec<ChunkOut>,
        log: &mut Vec<LayerTouch>,
        replayed: &mut Vec<(usize, u16)>,
    ) -> Result<(), Box<Outcome<M::State>>>
    where
        M: TransitionSystem<State = S>,
        R: SharedResolver + ?Sized,
    {
        let state_limit = MckError::StateLimitExceeded {
            limit: core.options.max_states,
        };
        let mut draft = RecordDraft::default();
        let mut i = 0usize;
        for chunk in chunks {
            let ChunkOut { recs, discoveries } = chunk;
            // First-replayed-consultation registration ids, per discovery.
            // Registration order across the layer equals serial consultation
            // order — the replay *is* the sequence point.
            let mut discovered: Vec<Option<usize>> = vec![None; discoveries.len()];
            let mut committed_id = |index: u32| -> usize {
                let slot = &mut discovered[index as usize];
                match *slot {
                    Some(id) => id,
                    None => {
                        let id = resolver
                            .commit_discoveries(std::slice::from_ref(&discoveries[index as usize]))
                            [0];
                        *slot = Some(id);
                        id
                    }
                }
            };
            for rec in recs {
                let sid = (f0 + i) as StateId;
                // What a rolling BFS queue would hold when popping
                // this state: everything committed but not yet expanded.
                core.stats.peak_queue = core.stats.peak_queue.max(core.states.len() - (f0 + i));
                i += 1;
                let apps = match rec {
                    StateRec::Skipped => {
                        panic!("replay consumed a state the short-circuit skipped")
                    }
                    StateRec::Recorded => {
                        self.replay_record(core, start, sid as usize, log, replayed)?;
                        continue;
                    }
                    StateRec::Expanded(apps) => apps,
                };

                let mut any_next = false;
                let mut any_blocked = false;
                let mut expansion_touches: Vec<(usize, u16)> = Vec::new();
                draft.clear();

                for app in apps {
                    for &(hole, action) in app.touches.iter() {
                        log.push((hole, Some(action)));
                        replayed.push((hole, action));
                    }
                    for &wildcard in app.wildcards.iter() {
                        let hole = match wildcard {
                            WildcardTouch::Known(hole) => hole,
                            WildcardTouch::Fresh(index) => committed_id(index),
                        };
                        log.push((hole, None));
                    }
                    for &(index, action) in app.fresh.iter() {
                        // A deferred sighting answered concretely (naïve
                        // mode): the commit assigns the id, and the
                        // consultation is a replay-confirmed touch.
                        let id = committed_id(index);
                        log.push((id, Some(action)));
                        replayed.push((id, action));
                    }
                    expansion_touches.extend_from_slice(&app.touches);
                    let outcome = match app.outcome {
                        RecOutcome::Disabled => Recorded::Disabled,
                        RecOutcome::Blocked => {
                            any_blocked = true;
                            core.stats.wildcard_hits += 1;
                            Recorded::Blocked
                        }
                        RecOutcome::Next(succ) => {
                            any_next = true;
                            core.stats.transitions += 1;
                            let (nid, new, violation) = match succ {
                                SuccessorRef::Known(id) => (id, false, None),
                                SuccessorRef::Fresh { claim, violation } => {
                                    match self.commit_fresh(
                                        core,
                                        claim,
                                        (sid, app.rule),
                                        &app.touches,
                                    ) {
                                        Some((id, new)) => (id, new, violation),
                                        None => {
                                            // Same admission clamp — and the
                                            // same sequence point — as the
                                            // serial loop.
                                            return Err(Box::new(
                                                core.analyze(start, Some(state_limit)),
                                            ));
                                        }
                                    }
                                }
                            };
                            if let Some(edges) = &mut core.edges {
                                edges[sid as usize].push(Edge {
                                    rule: app.rule,
                                    target: nid,
                                });
                            }
                            if let (true, Some(vi)) = (new, violation) {
                                let property = invariant_name(core.model, vi as usize).to_owned();
                                return Err(Box::new(core.invariant_failure(start, nid, property)));
                            }
                            Recorded::Next(nid)
                        }
                    };
                    if record {
                        draft.push(app.rule, &app.touches, &app.wildcards, &app.fresh, outcome);
                    }
                }

                // The expansion is complete, whatever its verdict.
                if record {
                    self.records.store(sid as usize, draft.finish());
                }
                if !any_next && !any_blocked && core.options.deadlock == DeadlockPolicy::Disallow {
                    return Err(Box::new(core.deadlock(start, sid, &expansion_touches)));
                }
            }
        }
        Ok(())
    }

    /// Takes frontier state `sid`'s expansion from its record, which
    /// [`Records::valid`] accepted under the check's answers: the same
    /// statistics, hole-touch log entries, replay-confirmed touches,
    /// commits, edges, invariant checks, state cap and deadlock verdict as
    /// applying the rules, in the same order, with no rule application,
    /// canonicalization or hashing. A successor still in the rollback tail
    /// is committed from there. Both layer drivers expand a recorded state
    /// through this walk.
    pub(super) fn replay_record<M>(
        &mut self,
        core: &mut SearchCore<'_, M>,
        start: Instant,
        sid: usize,
        log: &mut Vec<LayerTouch>,
        replayed: &mut Vec<(usize, u16)>,
    ) -> Result<(), Box<Outcome<M::State>>>
    where
        M: TransitionSystem<State = S>,
    {
        // Out of its slot while walked: committing a tail state moves that
        // state's own record into another slot.
        let record = self.records.take(sid);
        let walked = self.walk_record(core, start, sid, &record, log, replayed);
        self.records.put(sid, record);
        walked
    }

    fn walk_record<M>(
        &mut self,
        core: &mut SearchCore<'_, M>,
        start: Instant,
        sid: usize,
        record: &super::records::Record,
        log: &mut Vec<LayerTouch>,
        replayed: &mut Vec<(usize, u16)>,
    ) -> Result<(), Box<Outcome<M::State>>>
    where
        M: TransitionSystem<State = S>,
    {
        let mut any_next = false;
        let mut any_blocked = false;
        // The touches of an application whose successor is committed from
        // the tail: its tree edge's attribution.
        let mut edge_touches: Vec<(usize, u16)> = Vec::new();
        for app in record.apps() {
            log.extend(app.touches().map(|(hole, action)| (hole, Some(action))));
            log.extend(app.wildcards().map(|hole| (hole, None)));
            replayed.extend(app.touches());
            match app.outcome {
                Recorded::Disabled => {}
                Recorded::Blocked => {
                    any_blocked = true;
                    core.stats.wildcard_hits += 1;
                }
                Recorded::Next(succ) => {
                    any_next = true;
                    core.stats.transitions += 1;
                    let (nid, new) = match self.records.resolve(succ) {
                        Successor::Committed(id) => (id, false),
                        Successor::Tail(t) => {
                            if core.states.len() >= core.options.max_states {
                                let limit = core.options.max_states;
                                let limit = MckError::StateLimitExceeded { limit };
                                return Err(Box::new(core.analyze(start, Some(limit))));
                            }
                            let (state, hash) = self.records.take_tail(t);
                            edge_touches.clear();
                            edge_touches.extend(app.touches());
                            let from = Some((sid as StateId, app.rule));
                            let id = core.commit(state, from, &edge_touches);
                            self.insert_committed(hash, id, &core.states[id as usize]);
                            self.records.settle_tail(t, id);
                            (id, true)
                        }
                    };
                    if let Some(edges) = &mut core.edges {
                        edges[sid].push(Edge {
                            rule: app.rule,
                            target: nid,
                        });
                    }
                    if new {
                        if let Some(name) = core.violated_invariant(nid) {
                            let property = name.to_owned();
                            return Err(Box::new(core.invariant_failure(start, nid, property)));
                        }
                    }
                }
            }
        }
        if !any_next && !any_blocked && core.options.deadlock == DeadlockPolicy::Disallow {
            let expansion: Vec<(usize, u16)> = record.touches().collect();
            return Err(Box::new(core.deadlock(start, sid as StateId, &expansion)));
        }
        Ok(())
    }

    /// Resolves a fresh successor reference during replay: the first
    /// occurrence moves the claimed state into the store (assigning the
    /// next dense id, exactly as the serial loop would at this point);
    /// later occurrences — duplicates discovered concurrently within the
    /// layer — reuse the assigned id. `None` refuses admission at the
    /// [`CheckerOptions::max_states`] cap.
    fn commit_fresh<M>(
        &mut self,
        core: &mut SearchCore<'_, M>,
        claim: u32,
        from: (StateId, u32),
        touches: &[(usize, u16)],
    ) -> Option<(StateId, bool)>
    where
        M: TransitionSystem<State = S>,
    {
        let parked = self.claims.claim_mut(claim);
        if let Some(id) = parked.id {
            return Some((id, false));
        }
        let hash = parked.hash;
        if self.records.has_tail() {
            // Earlier in this replay a reused record may have committed this
            // very state from the rollback tail.
            let state = parked.state.as_ref().expect("claim committed twice");
            if let Some(id) = find_id(&self.visited, hash, state, &core.states) {
                parked.id = Some(id);
                return Some((id, false));
            }
        }
        if core.states.len() >= core.options.max_states {
            return None;
        }
        let state = parked.state.take().expect("claim committed twice");
        let id = core.commit(state, Some(from), touches);
        self.claims.claim_mut(claim).id = Some(id);
        self.insert_committed(hash, id, &core.states[id as usize]);
        Some((id, true))
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests_support::assert_equivalent;
    use super::*;
    use crate::checker::{Checker, Verdict};
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
