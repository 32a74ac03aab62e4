//! Sharded synthesis: the generation loop every synthesis run goes through,
//! serializable odometer-range shards, and cross-shard pattern exchange.
//!
//! ## The loop
//!
//! The coordinator drives lockstep rounds, one generation each. A round
//! partitions the frontier's chunk space into one slice per shard, runs
//! every slice through the one slice runner (`Run::round` in
//! [`crate::synth`]: sessions, pruning, the guided walk), and
//! merges the slice outcomes into one [`SynthReport`]. A
//! [`crate::Synthesizer`] is the one-shard case, with no exchange endpoint.
//! The budget counters, the run log and the journal belong to the run, so
//! `max_evaluations`, `deadline` and `state_budget` hold for the whole run
//! and one journal records every slice of every round.
//!
//! ## Range partitioning
//!
//! The candidate space of one generation is partitioned in **chunk-index
//! space** (the same unit the journal records coverage in): the coordinator
//! splits `[0, chunks_total)` into one contiguous range per shard
//! ([`partition_chunks`]). Rounds are lockstep: every shard runs the *same*
//! frontier (the merged hole list), so hole ids below the frontier mean the
//! same thing in every shard. Pruning patterns only ever reference holes
//! below the frontier (anything deeper is a wildcard, and wildcard
//! consultations are not touches), so patterns cross shard boundaries
//! without translation. A slice numbers the holes it first sees itself,
//! from `k` on; naïve mode answers such a hole with action 0 and records
//! the touch, so a naïve solution can name one, and the merge translates
//! those ids by hole name.
//!
//! ## Exchange protocol
//!
//! Each shard exports, at every chunk boundary, the patterns its own
//! workers published since the last beat as a [`PatternBatch`] and imports
//! every batch its peers published. Transport is a [`PatternExchange`]
//! implementation: in-memory mailboxes ([`ChannelExchange`]) or a spool
//! directory of atomically-renamed batch files ([`FsExchange`]) — no
//! network dependency. Imports reach a worker's [`crate::Propagator`]
//! through the same hub sync as local inserts, so an imported pattern
//! invalidates the guided odometer's refutation masks exactly like a
//! locally-learned one.
//!
//! ## Determinism argument
//!
//! The merged solution set is independent of shard count, work stealing,
//! and exchange timing. Pruning is sound (a candidate matching a failure
//! pattern cannot verify), so *which* patterns a shard holds when it probes
//! a candidate only decides whether a doomed candidate is evaluated or
//! skipped — never a verdict. Every round, the union of shard slices covers
//! the full generation space, work stealing preserves that cover (a stolen
//! tail moves between slots atomically, and a resumed round skips the
//! journal's coverage whichever slice recorded it), and the rounds continue
//! until no shard discovers a hole — the same fixpoint the single-process
//! loop reaches. Schedule perturbations therefore move *evaluated counts*
//! (and with them pattern counts and discovery order), exactly as thread
//! counts already do, while the solution set — compared by hole name,
//! since discovery order assigns ids — is a property of the space. The msi
//! goldens pin this: 1/2/4 shards, exchange on or off, kill-and-resume
//! included, all merge to the single-process solution set.

use crate::hole::HoleInfo;
use crate::journal::{self, checksum, Dec, Enc, PatternEntry};
use crate::pattern::SparsePattern;
use crate::report::{Quarantined, Solution, StopReason, SynthReport};
use crate::synth::{
    candidate_count, Claim, Enumerate, Merged, PatternLog, Round, Run, Slice, SliceOutcome,
    SynthOptions, Synthesizer,
};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use verc3_mck::{MckError, TransitionSystem};

// ---------------------------------------------------------------------------
// Wire format.

const BATCH_MAGIC: [u8; 4] = *b"VC3B";
const SPEC_MAGIC: [u8; 4] = *b"VC3S";

/// A pruning pattern in cross-shard wire form. Hole ids are positions in
/// the round's shared frontier (the coordinator's merged registry), which
/// every peer shard agrees on by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WirePattern {
    /// Dense prefix pattern over frontier digits `0..len` (paper-exact
    /// pruning mode).
    Prefix(Vec<u16>),
    /// Sparse `(hole, action)` pattern (refined mode).
    Sparse(SparsePattern),
}

impl From<PatternEntry> for WirePattern {
    fn from(entry: PatternEntry) -> Self {
        match entry {
            PatternEntry::Prefix(p) => WirePattern::Prefix(p),
            PatternEntry::Sparse(s) => WirePattern::Sparse(s),
        }
    }
}

impl From<WirePattern> for PatternEntry {
    fn from(wire: WirePattern) -> Self {
        match wire {
            WirePattern::Prefix(p) => PatternEntry::Prefix(p),
            WirePattern::Sparse(s) => PatternEntry::Sparse(s),
        }
    }
}

fn enc_pattern(e: &mut Enc, p: &WirePattern) {
    match p {
        WirePattern::Prefix(digits) => {
            e.u8(0);
            e.u32(digits.len() as u32);
            for &d in digits {
                e.u16(d);
            }
        }
        WirePattern::Sparse(pairs) => {
            e.u8(1);
            e.u32(pairs.len() as u32);
            for &(h, a) in pairs {
                e.u16(h);
                e.u16(a);
            }
        }
    }
}

fn dec_pattern(d: &mut Dec<'_>) -> Option<WirePattern> {
    match d.u8()? {
        0 => {
            let n = d.u32()? as usize;
            let mut digits = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                digits.push(d.u16()?);
            }
            Some(WirePattern::Prefix(digits))
        }
        1 => {
            let n = d.u32()? as usize;
            let mut pairs = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                pairs.push((d.u16()?, d.u16()?));
            }
            Some(WirePattern::Sparse(pairs))
        }
        _ => None,
    }
}

/// Frames a payload exactly like a journal record: `[len][crc32][payload]`.
fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Inverse of [`frame`]: checks length and CRC, returns the payload.
fn unframe(bytes: &[u8]) -> Option<&[u8]> {
    let len = u32::from_le_bytes(bytes.get(0..4)?.try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(bytes.get(4..8)?.try_into().ok()?);
    let payload = bytes.get(8..8 + len)?;
    if bytes.len() != 8 + len || checksum(payload) != crc {
        return None;
    }
    Some(payload)
}

fn corrupt(what: &str) -> MckError {
    MckError::JournalCorrupt {
        reason: format!("undecodable {what}"),
    }
}

/// A batch of patterns one shard publishes to its peers: the cross-shard
/// exchange's wire unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternBatch {
    /// The publishing shard's index.
    pub shard: u32,
    /// The publisher's batch sequence number (diagnostic; transports
    /// de-duplicate by their own delivery identity, not by `seq`).
    pub seq: u64,
    /// The patterns, in publication order.
    pub patterns: Vec<WirePattern>,
}

impl PatternBatch {
    /// Serializes the batch as one CRC-framed record.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.0.extend_from_slice(&BATCH_MAGIC);
        e.u32(self.shard);
        e.u64(self.seq);
        e.u32(self.patterns.len() as u32);
        for p in &self.patterns {
            enc_pattern(&mut e, p);
        }
        frame(e.0)
    }

    /// Deserializes a batch written by [`PatternBatch::to_bytes`].
    ///
    /// # Errors
    ///
    /// Fails with [`MckError::JournalCorrupt`] on a short, torn, or
    /// CRC-failing record, a wrong magic, or an undecodable payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, MckError> {
        let payload = unframe(bytes).ok_or_else(|| corrupt("pattern batch frame"))?;
        let mut d = Dec::new(payload);
        if d.bytes(4) != Some(&BATCH_MAGIC) {
            return Err(corrupt("pattern batch magic"));
        }
        let (Some(shard), Some(seq), Some(n)) = (d.u32(), d.u64(), d.u32()) else {
            return Err(corrupt("pattern batch header"));
        };
        let mut patterns = Vec::with_capacity((n as usize).min(4096));
        for _ in 0..n {
            patterns.push(dec_pattern(&mut d).ok_or_else(|| corrupt("pattern batch entry"))?);
        }
        if !d.done() {
            return Err(corrupt("pattern batch (trailing bytes)"));
        }
        Ok(PatternBatch {
            shard,
            seq,
            patterns,
        })
    }
}

// ---------------------------------------------------------------------------
// Shard specification.

/// One shard's assignment for one round: the shared baseline registry, the
/// frontier geometry, and the chunk-index range to enumerate. Serializable
/// ([`ShardSpec::to_bytes`]) so a coordinator can hand ranges to worker
/// processes over any byte transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index (also its steal-pool slot and exchange identity).
    pub index: usize,
    /// The shared baseline registry: every hole known at round start, in
    /// merged discovery order. The frontier `k` is `holes.len()`.
    pub holes: Vec<HoleInfo>,
    /// The previous round's frontier width.
    pub prev_k: usize,
    /// First chunk index of this shard's range.
    pub start: u64,
    /// One past the last chunk index of this shard's range. Clamped (like
    /// [`crate::Odometer::over_range`]) if it exceeds the generation's
    /// chunk count.
    pub end: u64,
    /// Optional crash journal for this slice, in the run journal format
    /// (see [`crate::journal`]). An existing journal at this path is
    /// resumed; its generation record pins this exact `(start, end)` range
    /// and resuming against a different one fails with
    /// [`MckError::JournalCorrupt`].
    pub journal: Option<PathBuf>,
}

impl ShardSpec {
    /// The round's frontier width (the number of baseline holes).
    pub fn k(&self) -> usize {
        self.holes.len()
    }

    /// Serializes the spec (journal path excluded — it is host-local
    /// runtime configuration, not part of the assignment).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.0.extend_from_slice(&SPEC_MAGIC);
        e.u32(self.index as u32);
        e.u64(self.prev_k as u64);
        e.u64(self.start);
        e.u64(self.end);
        e.u32(self.holes.len() as u32);
        for h in &self.holes {
            e.str(&h.name);
            e.u32(h.actions.len() as u32);
            for a in &h.actions {
                e.str(a);
            }
        }
        frame(e.0)
    }

    /// Deserializes a spec written by [`ShardSpec::to_bytes`].
    ///
    /// # Errors
    ///
    /// Fails with [`MckError::JournalCorrupt`] on a short, torn, or
    /// CRC-failing record, a wrong magic, or an undecodable payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, MckError> {
        let payload = unframe(bytes).ok_or_else(|| corrupt("shard spec frame"))?;
        let mut d = Dec::new(payload);
        if d.bytes(4) != Some(&SPEC_MAGIC) {
            return Err(corrupt("shard spec magic"));
        }
        let (Some(index), Some(prev_k), Some(start), Some(end), Some(n)) =
            (d.u32(), d.u64(), d.u64(), d.u64(), d.u32())
        else {
            return Err(corrupt("shard spec header"));
        };
        let mut holes = Vec::with_capacity((n as usize).min(4096));
        for _ in 0..n {
            let name = d.str().ok_or_else(|| corrupt("shard spec hole"))?;
            let m = d.u32().ok_or_else(|| corrupt("shard spec hole"))?;
            let mut actions = Vec::with_capacity((m as usize).min(4096));
            for _ in 0..m {
                actions.push(d.str().ok_or_else(|| corrupt("shard spec action"))?);
            }
            holes.push(HoleInfo { name, actions });
        }
        if !d.done() {
            return Err(corrupt("shard spec (trailing bytes)"));
        }
        Ok(ShardSpec {
            index: index as usize,
            holes,
            prev_k: prev_k as usize,
            start,
            end,
            journal: None,
        })
    }
}

// ---------------------------------------------------------------------------
// Exchange transports.

/// Cross-shard pattern exchange transport. Exchange is a pure pruning
/// accelerator — delivery may be delayed, reordered, or (for a best-effort
/// transport) dropped without affecting the solution set, so
/// implementations favour simplicity over delivery guarantees.
pub trait PatternExchange: Send + Sync {
    /// Broadcasts a batch to every shard except its publisher.
    fn publish(&self, batch: PatternBatch);
    /// Drains the batches peers have published since `shard` last polled.
    fn poll(&self, shard: usize) -> Vec<PatternBatch>;
}

impl std::fmt::Debug for dyn PatternExchange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn PatternExchange")
    }
}

/// In-memory exchange: one mailbox per shard, broadcast on publish. The
/// transport the coordinator uses for its in-process shard workers.
#[derive(Debug)]
pub struct ChannelExchange {
    inboxes: Vec<Mutex<Vec<PatternBatch>>>,
}

impl ChannelExchange {
    /// Creates mailboxes for `shards` shards.
    pub fn new(shards: usize) -> Self {
        ChannelExchange {
            inboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }
}

impl PatternExchange for ChannelExchange {
    fn publish(&self, batch: PatternBatch) {
        for (i, inbox) in self.inboxes.iter().enumerate() {
            if i != batch.shard as usize {
                inbox.lock().push(batch.clone());
            }
        }
    }

    fn poll(&self, shard: usize) -> Vec<PatternBatch> {
        match self.inboxes.get(shard) {
            Some(inbox) => std::mem::take(&mut *inbox.lock()),
            None => Vec::new(),
        }
    }
}

/// Filesystem exchange: a spool directory of batch files, written
/// atomically (temp file + rename) and de-duplicated per poller by file
/// name. Works across processes sharing the directory; no network needed.
/// Best-effort by design — an unreadable or torn file is skipped, a failed
/// publish is dropped — because exchange only accelerates pruning.
#[derive(Debug)]
pub struct FsExchange {
    dir: PathBuf,
    /// Per-poller set of consumed batch file names.
    seen: Mutex<Vec<HashSet<String>>>,
    /// Per-publisher next file index (unique across rounds; lazily seeded
    /// past any files already in the spool, so a restarted publisher never
    /// clobbers live batches).
    next: Mutex<HashMap<u32, u64>>,
}

impl FsExchange {
    /// Opens (creating if needed) the spool directory for `shards` shards.
    pub fn new(dir: impl Into<PathBuf>, shards: usize) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FsExchange {
            dir,
            seen: Mutex::new((0..shards).map(|_| HashSet::new()).collect()),
            next: Mutex::new(HashMap::new()),
        })
    }

    fn batch_name(shard: u32, index: u64) -> String {
        format!("shard{shard:04}-b{index:016}.vc3b")
    }
}

impl PatternExchange for FsExchange {
    fn publish(&self, batch: PatternBatch) {
        let index = {
            let mut next = self.next.lock();
            let slot = next.entry(batch.shard).or_insert_with(|| {
                // Seed past any batches a previous incarnation spooled.
                let prefix = format!("shard{:04}-", batch.shard);
                std::fs::read_dir(&self.dir)
                    .map(|rd| {
                        rd.flatten()
                            .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
                            .count() as u64
                    })
                    .unwrap_or(0)
            });
            let index = *slot;
            *slot += 1;
            index
        };
        let name = Self::batch_name(batch.shard, index);
        let tmp = self.dir.join(format!(".{name}.tmp"));
        if std::fs::write(&tmp, batch.to_bytes()).is_ok() {
            let _ = std::fs::rename(&tmp, self.dir.join(&name));
        }
    }

    fn poll(&self, shard: usize) -> Vec<PatternBatch> {
        let mut out = Vec::new();
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return out;
        };
        let mut names: Vec<String> = rd
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.ends_with(".vc3b").then_some(name)
            })
            .collect();
        names.sort();
        let mut seen = self.seen.lock();
        let Some(seen) = seen.get_mut(shard) else {
            return out;
        };
        for name in names {
            if seen.contains(&name) {
                continue;
            }
            let Ok(bytes) = std::fs::read(self.dir.join(&name)) else {
                continue;
            };
            let Ok(batch) = PatternBatch::from_bytes(&bytes) else {
                // A foreign or torn file in the spool: remember it so it is
                // not re-read every poll, but import nothing.
                seen.insert(name);
                continue;
            };
            seen.insert(name);
            if batch.shard as usize != shard {
                out.push(batch);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Work stealing.

/// The cross-shard chunk dispenser: one `(next, end)` slot per shard. A
/// shard that exhausts its slot steals the tail half of the largest peer
/// remainder, so a slice that prunes poorly (dense evaluation) is finished
/// by the shards whose slices pruned well. Slots are tiny critical sections
/// (a claim is one compare-and-bump under an uncontended mutex), and a
/// steal moves a range between two slots without ever holding both locks,
/// so the ranges always partition the unclaimed space — every chunk is
/// claimed exactly once.
#[derive(Debug)]
pub(crate) struct StealPool {
    slots: Vec<Mutex<(u64, u64)>>,
    stealing: bool,
}

impl StealPool {
    pub(crate) fn new(ranges: &[(u64, u64)], stealing: bool) -> Self {
        StealPool {
            slots: ranges.iter().map(|&r| Mutex::new(r)).collect(),
            stealing,
        }
    }

    /// Claims the next chunk index for `slot` outside the journal coverage
    /// `covered` (stepping over a whole covered range in one advance),
    /// stealing when exhausted; `None` once no slot has stealable work
    /// left. The claim's limit is the slot's end at claim time, or the next
    /// covered chunk if that comes first.
    pub(crate) fn claim(&self, slot: usize, covered: &[(u64, u64)]) -> Option<Claim> {
        loop {
            {
                let mut s = self.slots[slot].lock();
                let idx = journal::uncovered_from(covered, s.0);
                if idx < s.1 {
                    s.0 = idx + 1;
                    let limit = journal::next_covered(covered, idx + 1).min(s.1);
                    return Some(Claim { idx, limit });
                }
                s.0 = s.1;
            }
            if !self.stealing || !self.steal_into(slot) {
                return None;
            }
        }
    }

    /// [`crate::synth::ChunkClaims::claim_refuted`] on `slot`, under its
    /// lock: claims `[next, min(through, end, next covered chunk))` in one
    /// step when the slot's cursor `next` lies in `[from, through)`.
    pub(crate) fn claim_refuted(
        &self,
        slot: usize,
        from: u64,
        through: u64,
        covered: &[(u64, u64)],
    ) -> Option<(u64, u64)> {
        let mut s = self.slots[slot].lock();
        let first = s.0;
        let stop = through.min(s.1).min(journal::next_covered(covered, first));
        if first < from || first >= stop {
            return None;
        }
        s.0 = stop;
        Some((first, stop - first))
    }

    /// Marks `slot`'s own range as consumed (a journal-resumed shard whose
    /// coverage is already complete), so peers do not steal and re-run it.
    pub(crate) fn close(&self, slot: usize) {
        let mut s = self.slots[slot].lock();
        s.0 = s.1;
    }

    /// Moves the tail half of the largest peer remainder into `slot`.
    /// Returns `false` when nothing is stealable (remainders of at least 2
    /// chunks only — splitting a single chunk would just migrate it).
    fn steal_into(&self, slot: usize) -> bool {
        let mut best: Option<(usize, u64)> = None;
        for (i, m) in self.slots.iter().enumerate() {
            if i == slot {
                continue;
            }
            let s = m.lock();
            let remaining = s.1.saturating_sub(s.0);
            if remaining >= 2 && best.map_or(true, |(_, r)| remaining > r) {
                best = Some((i, remaining));
            }
        }
        let Some((victim, _)) = best else {
            return false;
        };
        // Both slots are held while the tail moves, locked in index order so
        // that two thieves never wait on each other.
        let (mut own, mut v) = if slot < victim {
            let own = self.slots[slot].lock();
            (own, self.slots[victim].lock())
        } else {
            let v = self.slots[victim].lock();
            (self.slots[slot].lock(), v)
        };
        let remaining = v.1.saturating_sub(v.0);
        if own.0 < own.1 || remaining < 2 {
            // Raced with another worker of this slot, which stole first, or
            // with the victim's own progress (or another thief): report
            // success so the caller rescans. Installing a second stolen
            // range would overwrite the first and lose its chunks.
            return true;
        }
        let mid = v.0 + remaining.div_ceil(2);
        *own = (mid, v.1);
        v.1 = mid;
        true
    }
}

// ---------------------------------------------------------------------------
// Reports.

/// Everything one shard produced in one round, machine-readable: the
/// per-shard progress surface `synthd` prints (via
/// [`ShardReport::to_json`]).
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The shard's index.
    pub shard: usize,
    /// The round this report belongs to (0-based).
    pub round: usize,
    /// Assigned chunk-index range (work stealing can shift the chunks a
    /// shard *actually* ran; the journal records those).
    pub range: (u64, u64),
    /// The round's frontier width.
    pub k: usize,
    /// Candidates in the assigned slice.
    pub space: u128,
    /// Candidates dispatched to the model checker.
    pub evaluated: u64,
    /// Candidates skipped by pruning.
    pub skipped: u128,
    /// Candidates deduplicated (naïve mode only).
    pub deduped: u64,
    /// Per-depth pattern consultations spent proposing candidates.
    pub probes: u64,
    /// Patterns this shard learned itself (imports excluded).
    pub patterns: usize,
    /// Holes first consulted in this shard's slice, in local discovery
    /// order.
    pub discovered: Vec<HoleInfo>,
    /// Verified candidates found in this slice and new to the run. Hole
    /// ids below `k` are frontier positions, identical across shards; ids
    /// from `k` on index `discovered`.
    pub solutions: Vec<Solution>,
    /// Candidates quarantined after panicking the checker.
    pub quarantined: Vec<Quarantined>,
    /// Why the shard stopped.
    pub stop: StopReason,
    /// Checker states expanded live.
    pub check_expanded: u64,
    /// Checker states reused from session checkpoints.
    pub check_reused: u64,
    /// The run's crash journal, if one was configured.
    pub journal: Option<PathBuf>,
}

fn stop_str(stop: StopReason) -> &'static str {
    match stop {
        StopReason::Completed => "completed",
        StopReason::MaxEvaluations => "max_evaluations",
        StopReason::Deadline => "deadline",
        StopReason::StateBudget => "state_budget",
        StopReason::Interrupted => "interrupted",
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl ShardReport {
    fn new(
        shard: usize,
        round: usize,
        range: (u64, u64),
        outcome: SliceOutcome,
        journal: Option<&Path>,
    ) -> Self {
        ShardReport {
            shard,
            round,
            range,
            k: outcome.gen.k,
            space: outcome.gen.space,
            evaluated: outcome.gen.evaluated,
            skipped: outcome.gen.skipped_by_pruning,
            deduped: outcome.gen.deduped,
            probes: outcome.gen.probes,
            patterns: outcome.patterns.len(),
            discovered: outcome.discovered,
            solutions: outcome.solutions,
            quarantined: outcome.quarantined,
            stop: outcome.stop,
            check_expanded: outcome.check_expanded,
            check_reused: outcome.check_reused,
            journal: journal.map(Path::to_path_buf),
        }
    }

    /// One-line JSON rendering (machine-readable; solutions as
    /// `[hole, action]` pairs in this report's hole-id space).
    pub fn to_json(&self) -> String {
        let solutions: Vec<String> = self
            .solutions
            .iter()
            .map(|s| {
                let pairs: Vec<String> = s
                    .assignment
                    .iter()
                    .map(|&(h, a)| format!("[{h},{a}]"))
                    .collect();
                format!("[{}]", pairs.join(","))
            })
            .collect();
        let discovered: Vec<String> = self
            .discovered
            .iter()
            .map(|h| format!("\"{}\"", json_escape(&h.name)))
            .collect();
        format!(
            "{{\"shard\":{},\"round\":{},\"start\":{},\"end\":{},\"k\":{},\
             \"space\":{},\"evaluated\":{},\"skipped\":{},\"probes\":{},\
             \"patterns\":{},\"discovered\":[{}],\"solutions\":[{}],\
             \"quarantined\":{},\"stop\":\"{}\",\"journal\":{}}}",
            self.shard,
            self.round,
            self.range.0,
            self.range.1,
            self.k,
            self.space,
            self.evaluated,
            self.skipped,
            self.probes,
            self.patterns,
            discovered.join(","),
            solutions.join(","),
            self.quarantined.len(),
            stop_str(self.stop),
            match &self.journal {
                Some(p) => format!("\"{}\"", json_escape(&p.display().to_string())),
                None => "null".into(),
            },
        )
    }
}

/// A sharded run's full result: the merged deterministic report plus every
/// per-shard report in `(round, shard)` order.
#[derive(Debug)]
pub struct ShardedRun {
    /// The merged report — solution set identical to a single-process run.
    pub report: SynthReport,
    /// Per-shard reports, every round, in `(round, shard)` order.
    pub shards: Vec<ShardReport>,
}

// ---------------------------------------------------------------------------
// Partitioning.

/// Splits `[0, chunks_total)` into `shards` contiguous balanced ranges (the
/// first `chunks_total % shards` ranges are one chunk longer). Ranges may
/// be empty when there are fewer chunks than shards.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn partition_chunks(chunks_total: u64, shards: usize) -> Vec<(u64, u64)> {
    assert!(shards > 0, "at least one shard is required");
    let n = shards as u64;
    let base = chunks_total / n;
    let rem = chunks_total % n;
    let mut out = Vec::with_capacity(shards);
    let mut cursor = 0u64;
    for i in 0..n {
        let len = base + u64::from(i < rem);
        out.push((cursor, cursor + len));
        cursor += len;
    }
    out
}

// ---------------------------------------------------------------------------
// Single-shard entry point.

/// Runs one shard's slice of one generation and reports it: the low-level
/// entry point for an external dispatcher, called with a deserialized
/// [`ShardSpec`]. It runs the same slice runner the coordinator's rounds
/// do.
///
/// `seed` is the pattern state the round starts from (the dispatcher's
/// merged table); `exchange` connects the shard to live peers. With
/// `spec.journal` set, the slice writes the run journal format there: an
/// existing journal is resumed (model, fingerprint, frontier and chunk
/// range checked) and a fresh one is created otherwise.
///
/// # Errors
///
/// Fails with [`MckError::InvalidConfig`] on invalid options and
/// [`MckError::JournalCorrupt`] on a journal/partition mismatch.
pub fn run_shard<M: TransitionSystem>(
    model: &M,
    options: &SynthOptions,
    spec: &ShardSpec,
    seed: Vec<WirePattern>,
    exchange: Option<Arc<dyn PatternExchange>>,
) -> Result<ShardReport, MckError> {
    let synth = Synthesizer::new(options.clone());
    let (replay, writer) = synth.open_journal(model.name(), spec.journal.as_deref(), true)?;
    let mut gens = replay.map(|r| r.gens).unwrap_or_default();
    if gens.len() > 1 {
        return Err(MckError::JournalCorrupt {
            reason: "shard journal does not describe one round's frontier".into(),
        });
    }
    let run = Run::new(options, writer);
    let mut patterns = PatternLog::default();
    for pattern in seed {
        patterns.seed(pattern.into());
    }
    let range = (spec.start, spec.end);
    let (_, outcomes) = run.round(
        Round {
            holes: &spec.holes,
            prev_k: spec.prev_k,
            ranges: &[range],
            patterns: &patterns,
            solutions: &[],
            replay: gens.pop(),
            endpoint: exchange.as_ref(),
            first_shard: spec.index,
            steal: false,
        },
        &|slice| slice.enumerate(model),
    )?;
    run.close_journal()?;
    let outcome = outcomes.into_iter().next().expect("one slice per range");
    Ok(ShardReport::new(
        spec.index,
        0,
        range,
        outcome,
        spec.journal.as_deref(),
    ))
}

// ---------------------------------------------------------------------------
// Coordinator.

/// Configuration for a sharded run (consuming-builder style, like
/// [`SynthOptions`], whose budgets and journal apply to the whole run at
/// any shard count).
#[derive(Debug, Clone)]
pub struct ShardOptions {
    shards: usize,
    exchange: bool,
    steal: bool,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            shards: 1,
            exchange: true,
            steal: true,
        }
    }
}

impl ShardOptions {
    /// Number of shard workers (default 1: the single-process run). Each
    /// shard runs [`SynthOptions::threads`] synthesis workers.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`; use [`ShardOptions::try_shards`] for a
    /// structured error instead.
    #[track_caller]
    pub fn shards(self, shards: usize) -> Self {
        self.try_shards(shards).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`ShardOptions::shards`].
    pub fn try_shards(mut self, shards: usize) -> Result<Self, MckError> {
        if shards == 0 {
            return Err(MckError::InvalidConfig {
                param: "shards",
                reason: "at least one shard is required".into(),
            });
        }
        self.shards = shards;
        Ok(self)
    }

    /// Enables or disables cross-shard pattern exchange (default on).
    /// Exchange never changes the solution set — only how many doomed
    /// candidates each shard evaluates before learning to skip them.
    pub fn exchange(mut self, enabled: bool) -> Self {
        self.exchange = enabled;
        self
    }

    /// Enables or disables work stealing (default on): a shard that
    /// finishes its range early takes the tail half of the largest
    /// remaining peer range.
    pub fn steal(mut self, enabled: bool) -> Self {
        self.steal = enabled;
        self
    }
}

/// Runs sharded synthesis to completion and returns the merged report. See
/// [`run_sharded_with`] for the transport-configurable form; this one uses
/// the in-memory [`ChannelExchange`] when exchange is enabled.
///
/// # Errors
///
/// Fails with [`MckError::InvalidConfig`] on invalid options and
/// [`MckError::JournalCorrupt`] on a journal mismatch.
pub fn run_sharded<M: TransitionSystem>(
    model: &M,
    options: &SynthOptions,
    sharding: &ShardOptions,
) -> Result<SynthReport, MckError> {
    run_sharded_with(model, options, sharding, None).map(|run| run.report)
}

/// [`run_sharded`] with an explicit exchange transport (e.g. an
/// [`FsExchange`] spool shared with out-of-process observers) and the full
/// per-shard report trail.
///
/// The coordinator drives lockstep rounds, one generation each: it
/// partitions the frontier's chunk space across `shards` workers (threads),
/// brokers pattern exchange, lets finished shards steal from the largest
/// remaining range, and merges the shard outcomes into one deterministic
/// [`SynthReport`] — holes in merged discovery order, solutions
/// deduplicated on their assignments, stats summed. Rounds continue until
/// no shard discovers a new hole (the single-process fixpoint) or a budget
/// stop surfaces. With [`SynthOptions::journal`] set, an existing journal
/// is resumed (it must have been written at the same shard count) and a
/// fresh one is created otherwise; a panic in a shard worker propagates,
/// and re-invoking the run resumes it from the journal.
///
/// # Errors
///
/// Fails with [`MckError::InvalidConfig`] on invalid options and
/// [`MckError::JournalCorrupt`] on a journal mismatch.
pub fn run_sharded_with<M: TransitionSystem>(
    model: &M,
    options: &SynthOptions,
    sharding: &ShardOptions,
    endpoint: Option<Arc<dyn PatternExchange>>,
) -> Result<ShardedRun, MckError> {
    coordinate(model, options, sharding, endpoint, true)
}

/// The synthesis loop behind every entry point: [`run_sharded_with`], and
/// [`Synthesizer::try_run`] and [`Synthesizer::resume_from_journal`] as
/// its one-shard case. With `resume`, an existing journal is replayed;
/// otherwise it is truncated.
pub(crate) fn coordinate<M: TransitionSystem>(
    model: &M,
    options: &SynthOptions,
    sharding: &ShardOptions,
    endpoint: Option<Arc<dyn PatternExchange>>,
    resume: bool,
) -> Result<ShardedRun, MckError> {
    let enumerate = |slice: &Slice<'_>| slice.enumerate(model);
    drive(
        model.name(),
        options,
        sharding,
        endpoint,
        resume,
        &enumerate,
    )
}

/// [`coordinate`] past its one model-typed step, `enumerate`.
fn drive(
    model: &str,
    options: &SynthOptions,
    sharding: &ShardOptions,
    endpoint: Option<Arc<dyn PatternExchange>>,
    resume: bool,
    enumerate: &Enumerate<'_>,
) -> Result<ShardedRun, MckError> {
    let synth = Synthesizer::new(options.clone());
    let journal = options.journal_path();
    let (replay, writer) = synth.open_journal(model, journal, resume)?;
    let mut journaled = replay.map(|r| r.gens).unwrap_or_default().into_iter();
    let run = Run::new(options, writer);
    let n = sharding.shards;
    // A single shard has no peers: exchange only matters with an explicit
    // endpoint someone else observes.
    let endpoint: Option<Arc<dyn PatternExchange>> = match endpoint {
        _ if !sharding.exchange => None,
        Some(endpoint) => Some(endpoint),
        None => (n > 1).then(|| Arc::new(ChannelExchange::new(n)) as _),
    };

    let mut merged = Merged::default();
    let mut shards = Vec::new();
    let mut prev_k = 0;
    for round in 0.. {
        let k = merged.holes.len();
        let (_, total) = candidate_count(&merged.holes)?;
        let ranges = partition_chunks(total.max(1).div_ceil(options.chunk()), n);
        let (gen, outcomes) = run.round(
            Round {
                holes: &merged.holes,
                prev_k,
                ranges: &ranges,
                patterns: &merged.patterns,
                solutions: &merged.solutions,
                replay: journaled.next(),
                endpoint: endpoint.as_ref(),
                first_shard: 0,
                steal: sharding.steal,
            },
            enumerate,
        )?;
        // Merge in shard-index order: the merged hole list, pattern log,
        // and solution list are then a pure function of the per-shard
        // results, independent of worker scheduling.
        for (shard, (outcome, &range)) in outcomes.into_iter().zip(&ranges).enumerate() {
            merged.merge(k, &outcome);
            shards.push(ShardReport::new(shard, round, range, outcome, journal));
        }
        merged.generations.push(gen);
        if run.stop_reason() != StopReason::Completed || merged.holes.len() == k {
            break;
        }
        prev_k = k;
    }
    Ok(ShardedRun {
        report: run.finish(model, merged)?,
        shards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternTable;
    use crate::report::SynthReport;
    use crate::synth::Enumeration;
    use std::collections::BTreeSet;
    use verc3_mck::GraphModel;

    fn solution_set(report: &SynthReport) -> BTreeSet<Vec<(String, u16)>> {
        report
            .solutions()
            .iter()
            .map(|s| {
                let mut named: Vec<(String, u16)> = s
                    .assignment
                    .iter()
                    .map(|&(h, a)| (report.holes()[h].name.clone(), a))
                    .collect();
                named.sort();
                named
            })
            .collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("verc3-shard-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn partition_covers_space_with_balanced_contiguous_ranges() {
        for chunks in [0u64, 1, 2, 3, 7, 64, 1000, 1001] {
            for shards in [1usize, 2, 3, 4, 7, 13] {
                let ranges = partition_chunks(chunks, shards);
                assert_eq!(ranges.len(), shards);
                let mut cursor = 0;
                for &(s, e) in &ranges {
                    assert_eq!(s, cursor, "ranges must be contiguous");
                    assert!(s <= e);
                    cursor = e;
                }
                assert_eq!(cursor, chunks, "ranges must cover the space");
                let lens: Vec<u64> = ranges.iter().map(|&(s, e)| e - s).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "ranges must be balanced");
            }
        }
    }

    #[test]
    fn steal_pool_claims_every_chunk_exactly_once() {
        // Uneven ranges and more claimants than work force heavy stealing.
        let ranges = [(0u64, 100), (100, 101), (101, 101), (101, 160)];
        let pool = Arc::new(StealPool::new(&ranges, true));
        let claimed: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..ranges.len())
                .map(|slot| {
                    let pool = Arc::clone(&pool);
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(Claim { idx, .. }) = pool.claim(slot, &[]) {
                            mine.push(idx);
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let unique: BTreeSet<u64> = claimed.iter().copied().collect();
        assert_eq!(claimed.len(), 160, "every chunk claimed exactly once");
        assert_eq!(unique, (0..160).collect::<BTreeSet<u64>>());
    }

    #[test]
    fn steal_pool_without_stealing_stays_in_assigned_ranges() {
        let ranges = [(0u64, 4), (4, 8)];
        let pool = StealPool::new(&ranges, false);
        let first: Vec<u64> = std::iter::from_fn(|| pool.claim(0, &[]).map(|c| c.idx)).collect();
        assert_eq!(first, vec![0, 1, 2, 3]);
        let second: Vec<u64> = std::iter::from_fn(|| pool.claim(1, &[]).map(|c| c.idx)).collect();
        assert_eq!(second, vec![4, 5, 6, 7]);
    }

    #[test]
    fn pattern_batch_round_trips_and_rejects_corruption() {
        let batch = PatternBatch {
            shard: 3,
            seq: 42,
            patterns: vec![
                WirePattern::Prefix(vec![]),
                WirePattern::Prefix(vec![0, 2, 1]),
                WirePattern::Sparse(vec![]),
                WirePattern::Sparse(vec![(0, 1), (5, 0)]),
            ],
        };
        let bytes = batch.to_bytes();
        assert_eq!(PatternBatch::from_bytes(&bytes).unwrap(), batch);

        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 0xFF;
        assert!(
            PatternBatch::from_bytes(&flipped).is_err(),
            "CRC must catch bit flips"
        );
        assert!(
            PatternBatch::from_bytes(&bytes[..bytes.len() - 1]).is_err(),
            "torn tail"
        );
        assert!(PatternBatch::from_bytes(b"junk").is_err());
    }

    #[test]
    fn shard_spec_round_trips() {
        let spec = ShardSpec {
            index: 2,
            holes: vec![
                HoleInfo {
                    name: "n1->n2".into(),
                    actions: vec!["A".into(), "B".into()],
                },
                HoleInfo {
                    name: "weird \"name\"".into(),
                    actions: vec!["x".into()],
                },
            ],
            prev_k: 1,
            start: 10,
            end: 20,
            journal: Some(PathBuf::from("ignored")),
        };
        let back = ShardSpec::from_bytes(&spec.to_bytes()).unwrap();
        assert_eq!(back.index, spec.index);
        assert_eq!(back.holes, spec.holes);
        assert_eq!(back.prev_k, spec.prev_k);
        assert_eq!((back.start, back.end), (spec.start, spec.end));
        assert_eq!(
            back.journal, None,
            "journal path is host-local, not serialized"
        );
        assert!(ShardSpec::from_bytes(&spec.to_bytes()[1..]).is_err());
    }

    #[test]
    fn channel_exchange_broadcasts_to_peers_only() {
        let ex = ChannelExchange::new(3);
        let batch = PatternBatch {
            shard: 1,
            seq: 0,
            patterns: vec![WirePattern::Prefix(vec![1])],
        };
        ex.publish(batch.clone());
        assert_eq!(ex.poll(0), vec![batch.clone()]);
        assert_eq!(ex.poll(0), vec![], "poll drains");
        assert_eq!(ex.poll(1), vec![], "publisher does not hear itself");
        assert_eq!(ex.poll(2), vec![batch]);
    }

    #[test]
    fn fs_exchange_spools_batches_across_instances() {
        let dir = tmp("fs-exchange");
        let a = FsExchange::new(&dir, 2).unwrap();
        let batch = PatternBatch {
            shard: 0,
            seq: 7,
            patterns: vec![WirePattern::Sparse(vec![(2, 1)])],
        };
        a.publish(batch.clone());
        // A different instance over the same spool (another process's view).
        let b = FsExchange::new(&dir, 2).unwrap();
        assert_eq!(b.poll(1), vec![batch.clone()]);
        assert_eq!(b.poll(1), vec![], "per-poller de-duplication");
        assert_eq!(a.poll(0), vec![], "publisher's own batches are filtered");
        // A second publish from a fresh instance must not clobber the first.
        let c = FsExchange::new(&dir, 2).unwrap();
        let batch2 = PatternBatch {
            shard: 0,
            seq: 0,
            patterns: vec![],
        };
        c.publish(batch2.clone());
        let d = FsExchange::new(&dir, 2).unwrap();
        assert_eq!(d.poll(1), vec![batch.clone(), batch2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_fig2_matches_single_process_for_all_configs() {
        let model = GraphModel::worked_example();
        let single = Synthesizer::new(SynthOptions::default()).run(&model);
        assert_eq!(single.solutions().len(), 1);
        for shards in [1usize, 2, 4] {
            for exchange in [false, true] {
                let merged = run_sharded(
                    &model,
                    &SynthOptions::default(),
                    &ShardOptions::default().shards(shards).exchange(exchange),
                )
                .unwrap();
                assert_eq!(
                    solution_set(&merged),
                    solution_set(&single),
                    "shards={shards} exchange={exchange}"
                );
                let names = |r: &SynthReport| -> BTreeSet<String> {
                    r.holes().iter().map(|h| h.name.clone()).collect()
                };
                assert_eq!(names(&merged), names(&single));
            }
        }
    }

    #[test]
    fn shard_reports_count_the_patterns_each_shard_learned() {
        let model = GraphModel::worked_example();
        for shards in [1usize, 2] {
            let run = run_sharded_with(
                &model,
                &SynthOptions::default(),
                &ShardOptions::default().shards(shards).exchange(false),
                None,
            )
            .unwrap();
            let learned: usize = run.shards.iter().map(|s| s.patterns).sum();
            // Isolated shards may learn the same pattern twice; the merge
            // keeps it once.
            assert!(learned >= run.report.stats().patterns, "{shards} shards");
            if shards == 1 {
                assert_eq!(learned, 5, "the Figure-2 run learns 5 patterns");
            }
        }
    }

    #[test]
    fn sharded_random_models_match_single_process() {
        for seed in 300..312 {
            let model = GraphModel::random(seed, 6, 3);
            let single = Synthesizer::new(SynthOptions::default()).run(&model);
            for shards in [2usize, 4] {
                let merged = run_sharded(
                    &model,
                    &SynthOptions::default(),
                    &ShardOptions::default().shards(shards),
                )
                .unwrap();
                assert_eq!(
                    solution_set(&merged),
                    solution_set(&single),
                    "seed {seed} shards {shards}"
                );
            }
        }
        // Naïve mode: a slice's solutions can name holes the slice first
        // saw, by its own ids; the merge must translate them by name.
        for seed in [8u64, 9, 300, 301] {
            let model = GraphModel::random(seed, 6, 3);
            let naive = SynthOptions::default().pruning(false);
            let single = Synthesizer::new(naive.clone()).run(&model);
            for shards in [2usize, 4] {
                let merged =
                    run_sharded(&model, &naive, &ShardOptions::default().shards(shards)).unwrap();
                assert_eq!(
                    solution_set(&merged),
                    solution_set(&single),
                    "naive seed {seed} shards {shards}"
                );
                assert_eq!(merged.solutions().len(), single.solutions().len());
            }
        }
    }

    #[test]
    fn sharded_guided_and_refined_match_single_process() {
        for seed in 320..326 {
            let model = GraphModel::random(seed, 6, 3);
            let opts = SynthOptions::default()
                .enumeration(Enumeration::Guided)
                .pattern_mode(crate::PatternMode::Refined);
            let single = Synthesizer::new(opts.clone()).run(&model);
            let merged = run_sharded(&model, &opts, &ShardOptions::default().shards(3)).unwrap();
            assert_eq!(solution_set(&merged), solution_set(&single), "seed {seed}");
        }
    }

    #[test]
    fn sharded_run_with_journals_resumes_completed_rounds() {
        let dir = tmp("journals");
        std::fs::create_dir_all(&dir).unwrap();
        let model = GraphModel::worked_example();
        let opts = SynthOptions::default().journal(dir.join("run.vc3j"));
        let sharding = ShardOptions::default().shards(2);
        let first = run_sharded(&model, &opts, &sharding).unwrap();
        // One journal records every shard of every round.
        let records = journal::record_boundaries(&dir.join("run.vc3j")).unwrap();
        assert!(records.len() > 2, "expected a populated run journal");
        // Re-running over the same journals replays coverage instead of
        // re-evaluating and reaches the identical result.
        let second = run_sharded(&model, &opts, &sharding).unwrap();
        assert_eq!(solution_set(&second), solution_set(&first));
        // Replay restores the journal's counters rather than re-evaluating:
        // the merged stats are identical, and no checker states are expanded
        // live the second time around (they replay from the journals too).
        assert_eq!(second.stats().evaluated, first.stats().evaluated);
        assert_eq!(
            second.stats().check_states_expanded,
            first.stats().check_states_expanded
        );
        // The journal pins the partition: another shard count, the
        // single-process resume included, is refused.
        let errs = [
            run_sharded(&model, &opts, &ShardOptions::default().shards(4)).unwrap_err(),
            Synthesizer::new(opts.clone())
                .resume_from_journal(&model)
                .unwrap_err(),
        ];
        for err in errs {
            assert!(
                matches!(err, MckError::JournalCorrupt { ref reason } if reason.contains("partition")),
                "expected partition mismatch, got: {err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_journal_pins_partition_range() {
        let dir = tmp("partition-pin");
        std::fs::create_dir_all(&dir).unwrap();
        let model = GraphModel::worked_example();
        let single = Synthesizer::new(SynthOptions::default()).run(&model);
        let holes = single.holes().to_vec();
        let journal = dir.join("shard.vc3j");
        let spec = ShardSpec {
            index: 0,
            holes: holes.clone(),
            prev_k: 0,
            start: 0,
            end: 1,
            journal: Some(journal.clone()),
        };
        run_shard(&model, &SynthOptions::default(), &spec, Vec::new(), None).unwrap();
        // Same range resumes fine.
        run_shard(&model, &SynthOptions::default(), &spec, Vec::new(), None).unwrap();
        // A different range against the same journal must fail fast.
        let other = ShardSpec {
            start: 1,
            end: 2,
            ..spec
        };
        let err =
            run_shard(&model, &SynthOptions::default(), &other, Vec::new(), None).unwrap_err();
        assert!(
            matches!(err, MckError::JournalCorrupt { ref reason } if reason.contains("partition")),
            "expected partition mismatch, got: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn import_via_exchange_equals_direct_insert() {
        // Differential: patterns imported through the exchange path must
        // leave the pattern table answering queries exactly like direct
        // inserts of the same patterns.
        let patterns = vec![
            WirePattern::Prefix(vec![1, 0]),
            WirePattern::Sparse(vec![(0, 1), (3, 2)]),
            WirePattern::Prefix(vec![0, 0, 1, 2]),
        ];
        let mut direct = PatternTable::new();
        for p in &patterns {
            match p {
                WirePattern::Prefix(d) => {
                    direct.insert_prefix(d);
                }
                WirePattern::Sparse(s) => {
                    direct.insert_sparse(s.clone());
                }
            }
        }
        // Route the same patterns through batch bytes, as the exchange does.
        let bytes = PatternBatch {
            shard: 0,
            seq: 0,
            patterns: patterns.clone(),
        }
        .to_bytes();
        let mut routed = PatternTable::new();
        for p in PatternBatch::from_bytes(&bytes).unwrap().patterns {
            match PatternEntry::from(p) {
                PatternEntry::Prefix(d) => {
                    routed.insert_prefix(&d);
                }
                PatternEntry::Sparse(s) => {
                    routed.insert_sparse(s);
                }
            }
        }
        assert_eq!(direct.dense_len(), routed.dense_len());
        assert_eq!(direct.sparse_len(), routed.sparse_len());
        for digits in [[0u16, 0, 0, 0], [1, 0, 2, 1], [0, 1, 1, 2], [1, 0, 0, 0]] {
            assert_eq!(
                direct.matches_candidate(&digits),
                routed.matches_candidate(&digits),
                "query {digits:?}"
            );
            assert_eq!(
                direct.first_pruned_depth(&digits, 4),
                routed.first_pruned_depth(&digits, 4),
            );
        }
    }
}
