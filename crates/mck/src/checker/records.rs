//! Expansion records: the one representation of a state's expansion, and
//! what a held [`super::CheckSession`] keeps of it.
//!
//! Expanding a state is a deterministic function of the state and of the
//! hole answers its rule applications consulted. A record lists every rule
//! application of one expansion that consulted a hole or did not return
//! `Disabled`: its rule, its concrete touches, its wildcard holes and its
//! outcome word, packed into `u32` words (see [`push_app`]). Every
//! expansion is written in this format and committed by the one walk of
//! the `parallel` module, whichever way it was produced:
//!
//! * a parallel worker writes a **draft** per state, naming each successor
//!   by committed id or by claim ([`CLAIM`]) and each hole first sighted in
//!   its chunk by a chunk-local index ([`FRESH`]);
//! * the serial schedule writes each application of a state it expands in
//!   place and walks it at once, its new successor in hand ([`HELD`]);
//! * a held session walks a **stored record** instead of expanding a state
//!   whose record is valid under the new answers ([`Records::valid`]): each
//!   recorded application would consult the same holes and return the same
//!   outcome, and every application the record omits consulted nothing and
//!   returned `Disabled`, so the record *is* the expansion.
//!
//! The walk renames each successor word it commits to the successor's id,
//! so a held session stores a walked draft as it stands. An expansion that
//! consulted a hole first sighted in its layer (which has no id yet) is
//! never stored, and neither is one that a stop cut short. One-shot checks
//! store nothing.
//!
//! Rollback moves the truncated store aside as the **tail**: its states,
//! fingerprints and records, each under its tail index. Every reference to a
//! truncated id is retagged at that point to name its tail index
//! ([`Successor::Tail`]). A state the check commits again adopts its old
//! record ([`Records::adopt`]), and a reused record's tail successor not yet
//! committed again is committed straight from the tail
//! ([`Records::take_tail`]), with no rule application, canonicalization or
//! hashing. When the check returns, [`Records::end_check`] renames every
//! tail reference whose state was committed again and drops each record
//! that still names the tail, together with the tail itself — so between
//! checks every record names ids of the current store.

use super::{insert_id, remove_id, IdList, StateId, MAX_COMMITTED};
use crate::eval::{SessionResolver, WildcardTouch};
use crate::hashers::FnvHashMap;

/// Outcome word of an application whose guard was false after consulting a
/// hole.
pub(super) const DISABLED: u32 = u32::MAX;
/// Outcome word of an application that hit a wildcard hole.
pub(super) const BLOCKED: u32 = u32::MAX - 1;
/// Outcome word that ends a worker's draft whose expansion panicked.
pub(super) const PANICKED: u32 = u32::MAX - 2;
/// Successor word of the new state the serial schedule holds in hand.
pub(super) const HELD: u32 = u32::MAX - 3;
/// Successor word tag of a tail index (stored records only); ids stay below
/// it ([`MAX_COMMITTED`]).
const TAIL: u32 = 0b10 << 30;
/// Successor word tag of an index into a worker chunk's claims (drafts
/// only), up to [`HELD`].
pub(super) const CLAIM: u32 = 0b11 << 30;
/// Hole word tag of a chunk-local discovery index (drafts only).
pub(super) const FRESH: u32 = 1 << 31;

/// Words per application header: rule, outcome, and the counts of the
/// application's touches and wildcards (16 bits each).
const HEADER: usize = 3;

/// Where an application's successor word points.
pub(super) enum Successor {
    /// A state of the current store.
    Committed(StateId),
    /// A tail state not committed again yet, by tail index.
    Tail(usize),
    /// A claim of the layer's claim table not committed yet, by reference.
    Claim(u32),
    /// The new state in the serial schedule's hand.
    Held,
}

/// Appends one rule application to `words`: the header, every concrete
/// touch as a `(hole, action)` word pair, then every wildcard hole, with
/// deferred discoveries [`FRESH`]-tagged. A `Disabled` application that
/// consulted nothing is left out (`false`).
#[inline]
pub(super) fn push_app(
    words: &mut Vec<u32>,
    rule: usize,
    touches: &[(usize, u16)],
    wildcards: &[WildcardTouch],
    fresh: &[(u32, u16)],
    outcome: u32,
) -> bool {
    if outcome == DISABLED && touches.is_empty() && wildcards.is_empty() && fresh.is_empty() {
        return false;
    }
    let (t, w) = (touches.len() + fresh.len(), wildcards.len());
    assert!(
        t <= 0xffff && w <= 0xffff,
        "a rule application consulted more than 65,535 holes"
    );
    words.extend([rule as u32, outcome, (t | w << 16) as u32]);
    for &(hole, action) in touches {
        words.extend([hole_word(hole), u32::from(action)]);
    }
    for &(index, action) in fresh {
        words.extend([FRESH | index, u32::from(action)]);
    }
    words.extend(wildcards.iter().map(|&wildcard| match wildcard {
        WildcardTouch::Known(hole) => hole_word(hole),
        WildcardTouch::Fresh(index) => FRESH | index,
    }));
    true
}

#[inline]
fn hole_word(hole: usize) -> u32 {
    assert!(
        hole < FRESH as usize,
        "hole id {hole} does not fit a record"
    );
    hole as u32
}

/// The length in words of the application starting at `words[0]`.
#[inline]
pub(super) fn app_len(words: &[u32]) -> usize {
    HEADER + 2 * (words[2] & 0xffff) as usize + (words[2] >> 16) as usize
}

/// One application's `(hole word, action)` touches.
#[inline]
pub(super) fn touches(app: &[u32]) -> impl Iterator<Item = (u32, u16)> + '_ {
    let t = (app[2] & 0xffff) as usize;
    app[HEADER..HEADER + 2 * t]
        .chunks_exact(2)
        .map(|pair| (pair[0], pair[1] as u16))
}

/// One application's wildcard hole words.
#[inline]
pub(super) fn wildcards(app: &[u32]) -> &[u32] {
    &app[HEADER + 2 * (app[2] & 0xffff) as usize..]
}

/// The applications of a record or draft, in rule order.
#[inline]
fn apps(words: &[u32]) -> impl Iterator<Item = &[u32]> {
    let mut rest = words;
    std::iter::from_fn(move || {
        (!rest.is_empty()).then(|| {
            let (app, tail) = rest.split_at(app_len(rest));
            rest = tail;
            app
        })
    })
}

/// One application's concrete touches of holes with ids.
#[inline]
pub(super) fn known_touches(app: &[u32]) -> impl Iterator<Item = (usize, u16)> + '_ {
    touches(app)
        .filter(|&(hole, _)| hole & FRESH == 0)
        .map(|(hole, action)| (hole as usize, action))
}

/// Every concrete touch of a hole with an id in an expansion: what a
/// deadlock verdict on the state depends on.
pub(super) fn expansion_touches(words: &[u32]) -> Vec<(usize, u16)> {
    apps(words).flat_map(known_touches).collect()
}

/// The stored expansion record of one state: its walked draft, every
/// successor named by id or (between a rollback and the end of the check)
/// by tail index.
#[derive(Debug)]
pub(super) struct Record(pub(super) Box<[u32]>);

impl Record {
    /// Rewrites every successor word through `rename`; `false` (the record
    /// must be dropped) if `rename` cannot name one.
    fn rename(&mut self, mut rename: impl FnMut(StateId) -> Option<StateId>) -> bool {
        let mut at = 0;
        while at < self.0.len() {
            let word = self.0[at + 1];
            if word < HELD {
                match rename(word) {
                    Some(id) => self.0[at + 1] = id,
                    None => return false,
                }
            }
            at += app_len(&self.0[at..]);
        }
        true
    }
}

/// The id of a tail state not committed again yet.
const UNCOMMITTED: StateId = StateId::MAX;

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
    /// `answers`. The one validity rule of both layer schedules.
    pub(super) fn valid(&self, sid: usize, answers: &dyn SessionResolver) -> bool {
        let Some(Some(record)) = self.slots.get(sid) else {
            return false;
        };
        apps(&record.0).all(|app| {
            touches(app).all(|(hole, action)| answers.assignment(hole as usize) == Some(action))
                && wildcards(app)
                    .iter()
                    .all(|&hole| answers.assignment(hole as usize).is_none())
        })
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

    /// Where a stored record's successor word points now.
    pub(super) fn resolve(&self, word: StateId) -> Successor {
        if word < MAX_COMMITTED {
            return Successor::Committed(word);
        }
        let t = (word & !TAIL) as usize;
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
    /// during a walk equal one of that layer's claims.
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
                record.rename(|word| match word {
                    _ if word < MAX_COMMITTED => Some(word),
                    _ => Some(tail.ids[(word & !TAIL) as usize]).filter(|&id| id != UNCOMMITTED),
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
