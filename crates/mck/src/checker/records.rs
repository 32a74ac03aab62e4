//! Expansion records: what a held [`super::CheckSession`] keeps about each
//! fully expanded state, so that a later check can take the state's
//! successors from the record instead of applying the rules again.
//!
//! Expanding a state is a deterministic function of the state and of the
//! hole answers its rule applications consulted. A record lists every rule
//! application of one expansion that consulted a hole or did not return
//! `Disabled` — its rule, its concrete touches, its known-wildcard holes and
//! its outcome, with successors named by committed id. When the new check's
//! resolver answers every consultation of a record the same way
//! ([`Records::valid`], the rule the session's layer logs follow), each
//! recorded application would consult the same holes and return the same
//! outcome, and every application the record omits consulted nothing and
//! returned `Disabled` — so the record *is* the expansion.
//!
//! Rollback moves the truncated store aside as the **tail**: its states,
//! fingerprints and records, each under its tail index. Every reference to a
//! truncated id is retagged at that point to name its tail index (the top bit
//! of [`StateId`], which [`super::MAX_COMMITTED`] keeps free). A state the
//! check commits again adopts its old record ([`Records::adopt`]), and a
//! reused record's tail successor not yet committed again is committed
//! straight from the tail ([`Records::take_tail`]), with no rule application,
//! canonicalization or hashing. When the check returns, [`Records::end_check`]
//! renames every tail reference whose state was committed again and drops
//! each record that still names the tail, together with the tail itself — so
//! between checks every record names ids of the current store.
//!
//! An expansion that consulted a hole first sighted in it (a deferred
//! discovery, which has no id yet) is never recorded, and neither is one that
//! a stop cut short. One-shot checks record nothing.

use super::{insert_id, remove_id, IdList, StateId, MAX_COMMITTED};
use crate::eval::{SessionResolver, WildcardTouch};
use crate::hashers::FnvHashMap;

/// A successor reference with this bit set names a tail index, not an id.
const TAIL: StateId = MAX_COMMITTED;

/// The id of a tail state not committed again yet.
const UNCOMMITTED: StateId = StateId::MAX;

/// The outcome of one recorded rule application.
#[derive(Debug, Clone, Copy)]
pub(super) enum Recorded {
    /// Guard false after consulting a hole.
    Disabled,
    /// Hit a wildcard hole; branch aborted.
    Blocked,
    /// Fired, producing the state with this id (or, between a rollback and
    /// the end of the check, this tagged tail index).
    Next(StateId),
}

/// The outcome words of `Disabled` and `Blocked`; any other outcome word is
/// a successor reference. Successor references stay below both, because
/// tail indices stay below the store's [`MAX_COMMITTED`] ceiling.
const DISABLED: u32 = u32::MAX;
const BLOCKED: u32 = u32::MAX - 1;

impl Recorded {
    fn encode(self) -> u32 {
        match self {
            Recorded::Disabled => DISABLED,
            Recorded::Blocked => BLOCKED,
            Recorded::Next(succ) => succ,
        }
    }

    fn decode(word: u32) -> Self {
        match word {
            DISABLED => Recorded::Disabled,
            BLOCKED => Recorded::Blocked,
            succ => Recorded::Next(succ),
        }
    }
}

/// Words per application header: rule, outcome, and the ends of the
/// application's runs of touches and wildcards (16 bits each).
const HEADER: usize = 3;

/// The expansion record of one state, packed into one allocation of words:
/// the number `n` of recorded applications, then `n` application headers in
/// rule order ([`HEADER`]), then every concrete touch as a `(hole, action)`
/// word pair, then every known-wildcard hole — each list application after
/// application.
#[derive(Debug)]
pub(super) struct Record(Box<[u32]>);

/// One recorded application, as [`Record::apps`] yields it.
pub(super) struct App<'r> {
    pub(super) rule: u32,
    pub(super) outcome: Recorded,
    /// `(hole, action)` word pairs.
    touches: &'r [u32],
    /// Known-wildcard holes.
    wildcards: &'r [u32],
}

impl App<'_> {
    /// The application's concrete consultations.
    pub(super) fn touches(&self) -> impl Iterator<Item = (usize, u16)> + '_ {
        pairs(self.touches)
    }

    /// The application's known-wildcard holes.
    pub(super) fn wildcards(&self) -> impl Iterator<Item = usize> + '_ {
        self.wildcards.iter().map(|&hole| hole as usize)
    }
}

fn pairs(words: &[u32]) -> impl Iterator<Item = (usize, u16)> + '_ {
    words
        .chunks_exact(2)
        .map(|pair| (pair[0] as usize, pair[1] as u16))
}

impl Record {
    fn headers(&self) -> impl Iterator<Item = &[u32]> {
        let n = self.0[0] as usize;
        self.0[1..1 + n * HEADER].chunks_exact(HEADER)
    }

    /// The record's touch words and wildcard words.
    fn consultations(&self) -> (&[u32], &[u32]) {
        let n = self.0[0] as usize;
        let ends = if n == 0 { 0 } else { self.0[n * HEADER] };
        let touches_at = 1 + n * HEADER;
        let wildcards_at = touches_at + 2 * (ends & 0xffff) as usize;
        (&self.0[touches_at..wildcards_at], &self.0[wildcards_at..])
    }

    /// The recorded applications in rule order.
    pub(super) fn apps(&self) -> impl Iterator<Item = App<'_>> {
        let (touches, wildcards) = self.consultations();
        let (mut t0, mut w0) = (0, 0);
        self.headers().map(move |header| {
            let t1 = 2 * (header[2] & 0xffff) as usize;
            let w1 = (header[2] >> 16) as usize;
            let app = App {
                rule: header[0],
                outcome: Recorded::decode(header[1]),
                touches: &touches[t0..t1],
                wildcards: &wildcards[w0..w1],
            };
            (t0, w0) = (t1, w1);
            app
        })
    }

    /// Every concrete consultation of the expansion: what a deadlock
    /// verdict on the state depends on.
    pub(super) fn touches(&self) -> impl Iterator<Item = (usize, u16)> + '_ {
        pairs(self.consultations().0)
    }

    /// Rewrites every successor reference through `rename`; `false` (the
    /// record must be dropped) if `rename` cannot name one.
    fn rename(&mut self, mut rename: impl FnMut(StateId) -> Option<StateId>) -> bool {
        let n = self.0[0] as usize;
        for header in self.0[1..1 + n * HEADER].chunks_exact_mut(HEADER) {
            if let Recorded::Next(succ) = Recorded::decode(header[1]) {
                match rename(succ) {
                    Some(id) => header[1] = id,
                    None => return false,
                }
            }
        }
        true
    }
}

/// A record under construction, filled application by application while a
/// state is expanded by its rules.
#[derive(Debug, Default)]
pub(super) struct RecordDraft {
    headers: Vec<u32>,
    touches: Vec<u32>,
    wildcards: Vec<u32>,
    /// A deferred first sighting was consulted, or a hole id or a run does
    /// not fit the packing: nothing to record.
    unrecordable: bool,
}

impl RecordDraft {
    /// Starts the draft of a new expansion.
    pub(super) fn clear(&mut self) {
        self.headers.clear();
        self.touches.clear();
        self.wildcards.clear();
        self.unrecordable = false;
    }

    /// Adds one rule application with its consultations, as the resolver
    /// reported them. A `Disabled` application that consulted nothing is
    /// left out.
    pub(super) fn push(
        &mut self,
        rule: u32,
        touches: &[(usize, u16)],
        wildcards: &[WildcardTouch],
        fresh: &[(u32, u16)],
        outcome: Recorded,
    ) {
        let consulted = !touches.is_empty() || !wildcards.is_empty() || !fresh.is_empty();
        if matches!(outcome, Recorded::Disabled) && !consulted {
            return;
        }
        self.unrecordable |= !fresh.is_empty();
        for &(hole, action) in touches {
            self.touches
                .extend([word(hole, &mut self.unrecordable), u32::from(action)]);
        }
        for &wildcard in wildcards {
            match wildcard {
                WildcardTouch::Known(hole) => {
                    self.wildcards.push(word(hole, &mut self.unrecordable));
                }
                WildcardTouch::Fresh(_) => self.unrecordable = true,
            }
        }
        let (t, w) = (self.touches.len() / 2, self.wildcards.len());
        self.unrecordable |= t > 0xffff || w > 0xffff;
        self.headers
            .extend([rule, outcome.encode(), (t | w << 16) as u32]);
    }

    /// The finished record, or `None` if the expansion is unrecordable.
    pub(super) fn finish(&self) -> Option<Record> {
        if self.unrecordable {
            return None;
        }
        let mut words =
            Vec::with_capacity(1 + self.headers.len() + self.touches.len() + self.wildcards.len());
        words.push((self.headers.len() / HEADER) as u32);
        words.extend_from_slice(&self.headers);
        words.extend_from_slice(&self.touches);
        words.extend_from_slice(&self.wildcards);
        Some(Record(words.into_boxed_slice()))
    }
}

/// A hole id as a record word; one beyond `u32` makes the draft
/// unrecordable.
fn word(hole: usize, unrecordable: &mut bool) -> u32 {
    u32::try_from(hole).unwrap_or_else(|_| {
        *unrecordable = true;
        0
    })
}

/// Where a record's successor reference points in the current check.
pub(super) enum Successor {
    /// A state of the current store.
    Committed(StateId),
    /// A tail state not committed again yet, by tail index.
    Tail(usize),
}

/// The truncated store of the current check's rollback, kept until the
/// check returns.
#[derive(Debug)]
struct Tail<S> {
    /// First id of the kept frontier layer: the records from here on may
    /// name tail indices.
    frontier: usize,
    /// Truncated states by tail index; taken when committed from the tail.
    states: Vec<Option<S>>,
    hashes: Vec<u64>,
    records: Vec<Option<Record>>,
    /// Fingerprint → tail indices of the states not committed again yet.
    index: FnvHashMap<u64, IdList>,
    /// Tail index → id in the current store once committed again, else
    /// [`UNCOMMITTED`].
    ids: Vec<StateId>,
}

impl<S> Default for Tail<S> {
    fn default() -> Self {
        Tail {
            frontier: 0,
            states: Vec::new(),
            hashes: Vec::new(),
            records: Vec::new(),
            index: FnvHashMap::default(),
            ids: Vec::new(),
        }
    }
}

/// The expansion records of one held session (see the module docs).
#[derive(Debug)]
pub(super) struct Records<S> {
    /// `slots[id]` = the record of committed state `id`; never longer than
    /// the store, and empty for one-shot checks.
    slots: Vec<Option<Record>>,
    tail: Tail<S>,
    /// Expansions taken from records since the last [`Records::take_reused`].
    reused: u64,
}

impl<S> Default for Records<S> {
    fn default() -> Self {
        Records {
            slots: Vec::new(),
            tail: Tail::default(),
            reused: 0,
        }
    }
}

impl<S: Eq> Records<S> {
    /// Whether state `sid` has a record whose every consultation `answers`
    /// answers the same way: then the record is the state's expansion under
    /// `answers`. The one validity rule of both layer drivers.
    pub(super) fn valid(&self, sid: usize, answers: &dyn SessionResolver) -> bool {
        let Some(Some(record)) = self.slots.get(sid) else {
            return false;
        };
        let (touches, wildcards) = record.consultations();
        pairs(touches).all(|(hole, action)| answers.assignment(hole) == Some(action))
            && wildcards
                .iter()
                .all(|&hole| answers.assignment(hole as usize).is_none())
    }

    /// Stores the record of a completed expansion of state `sid`.
    pub(super) fn store(&mut self, sid: usize, record: Option<Record>) {
        if self.slots.len() <= sid {
            self.slots.resize_with(sid + 1, || None);
        }
        self.slots[sid] = record;
    }

    /// Takes state `sid`'s record out of its slot to walk it ([`Records::put`]
    /// puts it back); `sid` must have passed [`Records::valid`].
    pub(super) fn take(&mut self, sid: usize) -> Record {
        self.reused += 1;
        self.slots[sid]
            .take()
            .expect("reused a state without a record")
    }

    pub(super) fn put(&mut self, sid: usize, record: Record) {
        self.slots[sid] = Some(record);
    }

    /// Where successor reference `succ` points now.
    pub(super) fn resolve(&self, succ: StateId) -> Successor {
        if succ & TAIL == 0 {
            return Successor::Committed(succ);
        }
        let t = (succ & !TAIL) as usize;
        match self.tail.ids[t] {
            UNCOMMITTED => Successor::Tail(t),
            id => Successor::Committed(id),
        }
    }

    /// Moves tail state `t` out of the tail to be committed again, with its
    /// fingerprint; [`Records::adopt`] then finds no tail match for it, and
    /// [`Records::settle_tail`] completes the move.
    pub(super) fn take_tail(&mut self, t: usize) -> (S, u64) {
        let hash = self.tail.hashes[t];
        remove_id(&mut self.tail.index, hash, t as StateId);
        let state = self.tail.states[t].take().expect("tail state taken twice");
        (state, hash)
    }

    /// Records that tail state `t` is committed again as `id`, which adopts
    /// its record.
    pub(super) fn settle_tail(&mut self, t: usize, id: StateId) {
        self.tail.ids[t] = id;
        let record = self.tail.records[t].take();
        self.store(id as usize, record);
    }

    /// Called for every newly committed state: if it equals a tail state,
    /// the new id adopts that state's record. A new id never has a record
    /// of its own (rollback truncates the slots with the store).
    pub(super) fn adopt(&mut self, id: StateId, hash: u64, state: &S) {
        let tail = &self.tail;
        if tail.index.is_empty() {
            return;
        }
        let Some(t) = tail.index.get(&hash).and_then(|ids| {
            ids.as_slice()
                .iter()
                .map(|&t| t as usize)
                .find(|&t| tail.states[t].as_ref() == Some(state))
        }) else {
            return;
        };
        remove_id(&mut self.tail.index, hash, t as StateId);
        self.tail.states[t] = None;
        self.settle_tail(t, id);
    }

    /// Whether a rollback tail is held: only then can a state committed
    /// during a parallel replay equal one of that layer's claims.
    pub(super) fn has_tail(&self) -> bool {
        !self.tail.ids.is_empty()
    }

    /// Session rollback: moves the truncated states (ids `keep..`), their
    /// fingerprints and their records aside as the tail, and retags every
    /// reference to a truncated id as its tail index. Only the kept frontier
    /// layer (`frontier..keep`) and the tail can reference truncated ids:
    /// every earlier layer's successors lie at or before the frontier.
    pub(super) fn rollback(
        &mut self,
        keep: usize,
        frontier: usize,
        states: Vec<S>,
        hashes: Vec<u64>,
    ) {
        debug_assert!(!self.has_tail(), "rollback while a tail is held");
        let n = states.len();
        let mut records = Vec::with_capacity(n);
        records.extend(self.slots.drain(keep.min(self.slots.len())..));
        records.resize_with(n, || None);
        let tag = |id: StateId| {
            Some(match (id as usize).checked_sub(keep) {
                Some(t) => TAIL | t as StateId,
                None => id,
            })
        };
        let from = frontier.min(self.slots.len());
        for record in self.slots[from..].iter_mut().chain(&mut records).flatten() {
            record.rename(&tag);
        }
        let tail = &mut self.tail;
        tail.frontier = frontier;
        tail.index.clear();
        tail.index.reserve(n);
        for (t, &hash) in hashes.iter().enumerate() {
            insert_id(&mut tail.index, hash, t as StateId);
        }
        tail.states = states.into_iter().map(Some).collect();
        tail.hashes = hashes;
        tail.records = records;
        tail.ids = vec![UNCOMMITTED; n];
    }

    /// Ends the check that made the current tail: renames every tail
    /// reference whose state was committed again, drops each record that
    /// still names the tail, and drops the tail.
    pub(super) fn end_check(&mut self) {
        if !self.has_tail() {
            return;
        }
        let tail = std::mem::take(&mut self.tail);
        let from = tail.frontier.min(self.slots.len());
        for slot in &mut self.slots[from..] {
            let keep = slot.as_mut().is_some_and(|record| {
                record.rename(|succ| match succ & TAIL {
                    0 => Some(succ),
                    _ => Some(tail.ids[(succ & !TAIL) as usize]).filter(|&id| id != UNCOMMITTED),
                })
            });
            if !keep {
                *slot = None;
            }
        }
    }

    /// Forgets every record and the tail (session reset).
    pub(super) fn reset(&mut self) {
        self.slots.clear();
        self.tail = Tail::default();
    }

    /// Expansions taken from records since the last call.
    pub(super) fn take_reused(&mut self) -> u64 {
        std::mem::take(&mut self.reused)
    }
}
