//! Crash-safe synthesis progress journal, and the one byte codec of this
//! crate.
//!
//! A journal is an append-only file of CRC-framed binary records tracking a
//! synthesis run's durable progress: which odometer chunks each generation
//! has completed, the holes, pruning patterns, and solutions those chunks
//! produced, and why the run stopped. A run killed at any instant — power
//! loss, SIGKILL, a torn final write — leaves a journal whose longest valid
//! prefix reconstructs the exact remaining candidate frontier: re-invoking
//! the run ([`crate::Synthesizer::resume_from_journal`]) replays it and
//! continues as if the original process had never died. The journal
//! records which chunks are covered, not which worker covered them, so a
//! run may resume at any thread count.
//!
//! ## Frame format
//!
//! Every record is one frame: `[len: u32 LE][crc32: u32 LE][payload]`, with
//! the CRC (IEEE 802.3 polynomial) taken over the payload. Readers stop at
//! the first frame that is short, fails its CRC, or does not decode — a torn
//! final record is expected after a crash, never an error — and resuming
//! truncates the file back to the valid prefix before appending.
//!
//! ## One codec
//!
//! Every byte format of this crate is written and read here, through one
//! frame writer and parser and one pattern-list codec. Every
//! length-prefixed list decodes through one helper that reserves at most
//! 4096 entries up front, so a forged length in a CRC-valid record fails
//! to decode — [`MckError::JournalCorrupt`] — instead of allocating what
//! the prefix claims.
//!
//! ## Records
//!
//! * **Header** — magic, format version, model name, and an options
//!   *fingerprint* (pruning, pattern mode, chunk size, enumeration
//!   strategy). Resume refuses a journal whose fingerprint disagrees with
//!   the current options, because chunk coverage is expressed in chunk-index
//!   space, patterns depend on the pattern mode, and probe accounting
//!   depends on the enumeration strategy. Thread counts, budgets, and caps
//!   are deliberately *not* fingerprinted: a capped run may be resumed with
//!   a higher cap and more threads.
//! * **GenStart** — a generation (enumeration pass at frontier width `k`)
//!   began over the chunk range `[0, chunks)`. The record keeps format 4's
//!   list of ranges, which always holds this one range.
//! * **Chunk** — a contiguous range of odometer chunks the generation
//!   completed, with its aggregated counters and everything it learned
//!   (holes first seen, patterns published, solutions found, candidates
//!   quarantined). Its slice index, a format 4 field, is always 0. Chunks
//!   are journaled *atomically on completion*: a chunk that was in flight
//!   at the kill leaves no trace and is simply re-run on resume, which is
//!   what makes serial resume bit-identical — the re-run sees exactly the
//!   pattern-table state the original attempt saw.
//! * **Stop** — the run ended, and why (see [`StopReason`]).
//!
//! The reader gives each generation one replay; a resumed run sends it
//! through the same generation runner and the same merge as a live
//! generation. Hole ids in a replay are the generation's: the frontier
//! `0..k`, then the holes its workers first saw, in the order its records
//! list them. A journal written by a sharded run of an older build — a
//! generation of several ranges, or a chunk of a nonzero slice — is
//! refused as corrupt.
//!
//! Fully-pruned (“inactive”) chunks dominate large spaces; journaling each
//! individually would dwarf the real state. The writer therefore coalesces
//! them: pending inactive ranges merge with their neighbours and are folded
//! into the next adjacent active chunk's record (or flushed in bulk at
//! generation boundaries), so a serial msi-scale run journals a few records
//! per *evaluated* chunk, not per claimed chunk.

use crate::hole::{HoleInfo, HoleRegistry};
use crate::pattern::{PatternMode, SparsePattern};
use crate::report::{Quarantined, Solution, StopReason};
use crate::synth::Enumeration;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use verc3_mck::faults;
use verc3_mck::MckError;

const MAGIC: [u8; 4] = *b"VC3J";
const VERSION: u32 = 4;

const TAG_HEADER: u8 = 1;
const TAG_GEN_START: u8 = 2;
const TAG_CHUNK: u8 = 3;
const TAG_STOP: u8 = 4;

/// Flush the pending inactive-range buffer once it holds this many disjoint
/// ranges (bounds both writer memory and the coverage lost to a kill).
const MAX_PENDING: usize = 64;

/// The most entries a decoder reserves for one length-prefixed list before
/// it has read them: the prefix is untrusted, even in a CRC-valid record.
const MAX_RESERVE: usize = 4096;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), table built at compile time.

const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &byte in data {
        c = CRC_TABLE[((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Payload codec: hand-rolled little-endian, no external dependencies.

#[derive(Default)]
struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    /// A `u32` length prefix, then `item` for each of `items`.
    fn list<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.u32(items.len() as u32);
        for x in items {
            item(self, x);
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let out = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(out)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }
    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.bytes(2)?.try_into().ok()?))
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }
    fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.bytes(n)?.to_vec()).ok()
    }
    /// The inverse of [`Enc::list`]. Reserves at most [`MAX_RESERVE`]
    /// entries up front, so a forged length fails on the missing bytes
    /// instead of allocating what it claims.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let n = self.u32()?;
        let mut out = Vec::with_capacity((n as usize).min(MAX_RESERVE));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Some(out)
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Frames `payload` as `[len][crc32][payload]`: one journal record.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parses the frame at `pos`, returning its payload and end offset, or
/// `None` if the remaining bytes are short, torn, or fail the CRC.
fn next_frame(data: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let len_bytes = data.get(pos..pos + 4)?;
    let len = u32::from_le_bytes(len_bytes.try_into().ok()?) as usize;
    let crc_bytes = data.get(pos + 4..pos + 8)?;
    let crc = u32::from_le_bytes(crc_bytes.try_into().ok()?);
    let end = (pos + 8).checked_add(len)?;
    let payload = data.get(pos + 8..end)?;
    if crc32(payload) != crc {
        return None;
    }
    Some((payload, end))
}

fn encode_patterns(e: &mut Enc, patterns: &[PatternEntry]) {
    e.list(patterns, |e, p| match p {
        PatternEntry::Prefix(digits) => {
            e.u8(0);
            e.list(digits, |e, &d| e.u16(d));
        }
        PatternEntry::Sparse(pairs) => {
            e.u8(1);
            e.list(pairs, |e, &(h, a)| {
                e.u16(h);
                e.u16(a);
            });
        }
    });
}

fn decode_patterns(d: &mut Dec<'_>) -> Option<Vec<PatternEntry>> {
    d.list(|d| match d.u8()? {
        0 => Some(PatternEntry::Prefix(d.list(Dec::u16)?)),
        1 => Some(PatternEntry::Sparse(
            d.list(|d| Some((d.u16()?, d.u16()?)))?,
        )),
        _ => None,
    })
}

// ---------------------------------------------------------------------------
// Record types.

/// The option subset a journal is only valid under (coverage is expressed in
/// chunk indices; patterns depend on the mode; probe accounting depends on
/// the enumeration strategy). Everything else — threads, caps, budgets — may
/// change across a resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fingerprint {
    pub pruning: bool,
    pub pattern_mode: PatternMode,
    pub chunk_size: u64,
    pub enumeration: Enumeration,
}

impl Fingerprint {
    fn encode(&self, e: &mut Enc) {
        e.u8(self.pruning as u8);
        e.u8(match self.pattern_mode {
            PatternMode::Exact => 0,
            PatternMode::Refined => 1,
        });
        e.u64(self.chunk_size);
        e.u8(match self.enumeration {
            #[cfg(any(test, feature = "reference"))]
            Enumeration::Lexicographic => 0,
            Enumeration::Guided => 1,
        });
    }

    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        let pruning = match d.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let pattern_mode = match d.u8()? {
            0 => PatternMode::Exact,
            1 => PatternMode::Refined,
            _ => return None,
        };
        let chunk_size = d.u64()?;
        // A build without the lexicographic reference walk cannot resume
        // its journals: their header does not decode.
        let enumeration = match d.u8()? {
            #[cfg(any(test, feature = "reference"))]
            0 => Enumeration::Lexicographic,
            1 => Enumeration::Guided,
            _ => return None,
        };
        Some(Fingerprint {
            pruning,
            pattern_mode,
            chunk_size,
            enumeration,
        })
    }
}

/// A pruning pattern as journaled and as carried on a generation's pattern
/// hub (the append-only log workers sync from — see [`crate::synth`]).
/// Hole ids are positions in the generation's frontier.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum PatternEntry {
    /// Dense prefix pattern over frontier digits `0..len` (paper-exact
    /// pruning mode).
    Prefix(Vec<u16>),
    /// Sparse `(hole, action)` pattern (refined mode).
    Sparse(SparsePattern),
}

fn encode_stop(reason: StopReason) -> u8 {
    match reason {
        StopReason::Completed => 0,
        StopReason::MaxEvaluations => 1,
        StopReason::Deadline => 2,
        StopReason::StateBudget => 3,
        StopReason::Interrupted => 4,
    }
}

fn decode_stop(code: u8) -> Option<StopReason> {
    Some(match code {
        0 => StopReason::Completed,
        1 => StopReason::MaxEvaluations,
        2 => StopReason::Deadline,
        3 => StopReason::StateBudget,
        4 => StopReason::Interrupted,
        _ => return None,
    })
}

/// Everything one completed odometer chunk produced — the worker's scratch
/// record, journaled atomically when the chunk finishes. `first`/`count` are
/// in *chunk-index* space (candidate range = `first * chunk_size ..`).
#[derive(Debug, Clone, Default)]
pub(crate) struct ChunkDraft {
    pub k: u64,
    pub first: u64,
    pub count: u64,
    pub evaluated: u64,
    pub skipped: u64,
    pub deduped: u64,
    /// Per-depth pattern consultations spent proposing this chunk's
    /// candidates (see [`crate::report::GenStats::probes`]).
    pub probes: u64,
    /// Checker states expanded live while evaluating this chunk.
    pub expanded: u64,
    /// Checker states inherited from session checkpoints in this chunk.
    pub reused: u64,
    pub patterns: Vec<PatternEntry>,
    pub solutions: Vec<Solution>,
    pub quarantined: Vec<Quarantined>,
    /// Holes captured at flush time (filled by the writer, not the worker).
    holes: Vec<HoleInfo>,
}

impl ChunkDraft {
    pub(crate) fn new(k: u64, first: u64) -> Self {
        ChunkDraft {
            k,
            first,
            count: 1,
            ..Default::default()
        }
    }

    /// `count` chunks from `first` that learned patterns refute whole:
    /// `skipped` candidates, nothing evaluated.
    pub(crate) fn refuted(k: u64, first: u64, count: u64, skipped: u64) -> Self {
        ChunkDraft {
            k,
            first,
            count,
            skipped,
            ..Default::default()
        }
    }

    /// An inactive chunk produced nothing durable beyond its skip counts:
    /// it is coalesced into a range record instead of journaled alone.
    pub(crate) fn is_inactive(&self) -> bool {
        self.evaluated == 0
            && self.expanded == 0
            && self.reused == 0
            && self.patterns.is_empty()
            && self.solutions.is_empty()
            && self.quarantined.is_empty()
    }

    /// Whether `next` directly extends this range.
    pub(crate) fn precedes(&self, next: &ChunkDraft) -> bool {
        self.first + self.count == next.first
    }

    /// Absorbs an adjacent inactive range's skip and probe counts.
    pub(crate) fn absorb(&mut self, other: &ChunkDraft) {
        self.first = self.first.min(other.first);
        self.count += other.count;
        self.skipped += other.skipped;
        self.deduped += other.deduped;
        self.probes += other.probes;
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.u8(TAG_CHUNK);
        e.u64(self.k);
        e.u32(0); // the slice index of format 4
        e.u64(self.first);
        e.u64(self.count);
        e.u64(self.evaluated);
        e.u64(self.skipped);
        e.u64(self.deduped);
        e.u64(self.probes);
        e.u64(self.expanded);
        e.u64(self.reused);
        e.list(&self.holes, |e, h| {
            e.str(&h.name);
            e.list(&h.actions, |e, a| e.str(a));
        });
        encode_patterns(&mut e, &self.patterns);
        e.list(&self.solutions, |e, s| {
            e.list(&s.assignment, |e, &(h, a)| {
                e.u64(h as u64);
                e.u16(a);
            });
            e.u64(s.visited_states as u64);
            e.u64(s.transitions as u64);
        });
        e.list(&self.quarantined, |e, q| {
            e.list(&q.digits, |e, &d| e.u16(d));
            e.str(&q.message);
        });
        e.0
    }

    /// Decodes a chunk record's payload past its tag, with the slice index
    /// it lists.
    fn decode(d: &mut Dec<'_>) -> Option<(Self, u32)> {
        let (k, slice) = (d.u64()?, d.u32()?);
        let draft = ChunkDraft {
            k,
            first: d.u64()?,
            count: d.u64()?,
            evaluated: d.u64()?,
            skipped: d.u64()?,
            deduped: d.u64()?,
            probes: d.u64()?,
            expanded: d.u64()?,
            reused: d.u64()?,
            holes: d.list(|d| {
                Some(HoleInfo {
                    name: d.str()?,
                    actions: d.list(Dec::str)?,
                })
            })?,
            patterns: decode_patterns(d)?,
            solutions: d.list(|d| {
                Some(Solution {
                    assignment: d.list(|d| Some((d.u64()? as usize, d.u16()?)))?,
                    visited_states: d.u64()? as usize,
                    transitions: d.u64()? as usize,
                })
            })?,
            quarantined: d.list(|d| {
                Some(Quarantined {
                    digits: d.list(Dec::u16)?,
                    message: d.str()?,
                })
            })?,
        };
        Some((draft, slice))
    }
}

// ---------------------------------------------------------------------------
// Writer.

struct WriterInner {
    file: File,
    fsync_every: u64,
    appends_since_sync: u64,
    /// Coalesced inactive coverage of the current generation: drafts with
    /// nothing but skip and probe counts, disjoint and sorted by `first`.
    /// Lost to a kill, these cheap fully-pruned chunks are simply
    /// re-scanned on resume.
    pending: Vec<ChunkDraft>,
}

/// Thread-shared append side of the journal. All methods take `&self`; the
/// file and coalescing state live behind one mutex, so records are framed
/// atomically even under many synthesis workers.
pub(crate) struct JournalWriter {
    inner: Mutex<WriterInner>,
}

impl std::fmt::Debug for JournalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalWriter").finish_non_exhaustive()
    }
}

impl JournalWriter {
    /// Creates (truncating) a journal and durably writes its header.
    pub(crate) fn create(
        path: &Path,
        model: &str,
        fingerprint: &Fingerprint,
        fsync_every: u64,
    ) -> std::io::Result<Self> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let mut e = Enc::default();
        e.u8(TAG_HEADER);
        e.0.extend_from_slice(&MAGIC);
        e.u32(VERSION);
        e.str(model);
        fingerprint.encode(&mut e);
        write_frame(&mut file, &e.0)?;
        file.sync_data()?;
        Ok(Self::wrap(file, fsync_every))
    }

    /// Reopens a journal for appending after replay: truncates the file back
    /// to its longest valid prefix (discarding any torn final record) and
    /// seeks to the end.
    pub(crate) fn resume(path: &Path, valid_len: u64, fsync_every: u64) -> std::io::Result<Self> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.sync_data()?;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(Self::wrap(file, fsync_every))
    }

    fn wrap(file: File, fsync_every: u64) -> Self {
        JournalWriter {
            inner: Mutex::new(WriterInner {
                file,
                fsync_every: fsync_every.max(1),
                appends_since_sync: 0,
                pending: Vec::new(),
            }),
        }
    }

    /// Journals the start of a generation over `chunks` chunks (always
    /// durable: a generation boundary is where resume decides the frontier
    /// width sequence).
    pub(crate) fn gen_start(&self, k: usize, prev_k: usize, chunks: u64) -> std::io::Result<()> {
        let mut inner = self.inner.lock();
        flush_pending(&mut inner)?;
        let mut e = Enc::default();
        e.u8(TAG_GEN_START);
        e.u64(k as u64);
        e.u64(prev_k as u64);
        // Format 4's list of chunk ranges, which holds this one range.
        e.list(&[(0, chunks)], |e, &(start, end)| {
            e.u64(start);
            e.u64(end);
        });
        write_frame(&mut inner.file, &e.0)?;
        sync_now(&mut inner)
    }

    /// Journals one completed chunk of the generation whose hole registry
    /// is `registry`. Inactive chunks are buffered and coalesced; active
    /// chunks absorb any adjacent pending run and flush immediately,
    /// capturing the registry's holes from `journaled` (the count of its
    /// holes already journaled, advanced here under the writer lock so
    /// holes are recorded once, in id order).
    pub(crate) fn chunk(
        &self,
        registry: &HoleRegistry,
        journaled: &AtomicUsize,
        mut draft: ChunkDraft,
    ) -> std::io::Result<()> {
        let mut inner = self.inner.lock();
        if inner.pending.first().is_some_and(|p| p.k != draft.k) {
            flush_pending(&mut inner)?;
        }
        if draft.is_inactive() {
            merge_pending(&mut inner.pending, draft);
            if inner.pending.len() > MAX_PENDING {
                flush_pending(&mut inner)?;
            }
            return Ok(());
        }
        // Absorb the pending inactive runs this chunk directly extends (the
        // common serial shape: a run of pruned chunks then an evaluated one).
        if let Some(pos) = inner.pending.iter().position(|p| p.precedes(&draft)) {
            let p = inner.pending.remove(pos);
            draft.absorb(&p);
        }
        if let Some(pos) = inner.pending.iter().position(|p| draft.precedes(p)) {
            let p = inner.pending.remove(pos);
            draft.absorb(&p);
        }
        let snapshot = registry.snapshot();
        let from = journaled.load(Ordering::Relaxed);
        draft.holes = snapshot.get(from..).unwrap_or(&[]).to_vec();
        journaled.store(snapshot.len().max(from), Ordering::Relaxed);
        let payload = draft.encode();
        write_frame(&mut inner.file, &payload)?;
        inner.appends_since_sync += 1;
        if inner.appends_since_sync >= inner.fsync_every {
            sync_now(&mut inner)?;
        }
        Ok(())
    }

    /// Journals the run's stop reason, flushing everything pending. Always
    /// durable.
    pub(crate) fn stop(&self, reason: StopReason) -> std::io::Result<()> {
        let mut inner = self.inner.lock();
        flush_pending(&mut inner)?;
        let mut e = Enc::default();
        e.u8(TAG_STOP);
        e.u8(encode_stop(reason));
        write_frame(&mut inner.file, &e.0)?;
        sync_now(&mut inner)
    }
}

fn sync_now(inner: &mut WriterInner) -> std::io::Result<()> {
    inner.file.sync_data()?;
    inner.appends_since_sync = 0;
    Ok(())
}

/// Merges an inactive chunk into the pending ranges (coalescing with both
/// neighbours), keeping them sorted by `first`.
fn merge_pending(pending: &mut Vec<ChunkDraft>, draft: ChunkDraft) {
    let pos = pending.partition_point(|p| p.first < draft.first);
    let joins_pred = pos > 0 && pending[pos - 1].precedes(&draft);
    let joins_succ = pos < pending.len() && draft.precedes(&pending[pos]);
    match (joins_pred, joins_succ) {
        (true, true) => {
            let succ = pending.remove(pos);
            pending[pos - 1].absorb(&draft);
            pending[pos - 1].absorb(&succ);
        }
        (true, false) => pending[pos - 1].absorb(&draft),
        (false, true) => pending[pos].absorb(&draft),
        (false, false) => pending.insert(pos, draft),
    }
}

fn flush_pending(inner: &mut WriterInner) -> std::io::Result<()> {
    for draft in std::mem::take(&mut inner.pending) {
        write_frame(&mut inner.file, &draft.encode())?;
        inner.appends_since_sync += 1;
    }
    Ok(())
}

fn write_frame(file: &mut File, payload: &[u8]) -> std::io::Result<()> {
    let frame = frame(payload);
    if faults::fires(faults::site::JOURNAL_APPEND) {
        // Injected torn write: half the frame reaches the disk, then the
        // process "dies". Readers must discard the fragment.
        file.write_all(&frame[..frame.len() / 2])?;
        let _ = file.sync_data();
        panic!("injected fault at {}", faults::site::JOURNAL_APPEND);
    }
    file.write_all(&frame)
}

// ---------------------------------------------------------------------------
// Reader.

/// Replayed progress of one generation: what a live generation would have
/// handed the merge, had it stopped where the journal does.
#[derive(Debug, Clone, Default)]
pub(crate) struct GenReplay {
    pub k: usize,
    pub prev_k: usize,
    /// The generation's chunk count.
    pub chunks: u64,
    /// Completed chunk coverage: disjoint `(first, count)` chunk-index
    /// ranges, sorted and merged.
    pub covered: Vec<(u64, u64)>,
    pub evaluated: u64,
    pub skipped: u64,
    pub deduped: u64,
    pub probes: u64,
    pub expanded: u64,
    pub reused: u64,
    /// Holes the generation first saw, in id order (from `k` up).
    pub holes: Vec<HoleInfo>,
    pub patterns: Vec<PatternEntry>,
    pub solutions: Vec<Solution>,
    pub quarantined: Vec<Quarantined>,
}

/// The state a valid journal prefix reconstructs.
#[derive(Debug, Clone)]
pub(crate) struct JournalReplay {
    pub model: String,
    pub fingerprint: Fingerprint,
    /// Generations in journal (= execution) order; the last one may be
    /// partially covered.
    pub gens: Vec<GenReplay>,
    pub stop: StopReason,
    /// Byte length of the valid frame prefix (resume truncates to this).
    pub valid_len: u64,
}

/// Reads the longest valid prefix of a journal.
///
/// Returns `Ok(None)` when there is no usable journal to resume from — the
/// file is missing, empty, or its very first frame is torn (a crash during
/// creation) — in which case the caller starts fresh. A journal whose header
/// decodes but is not ours (wrong magic or unsupported version) is an error,
/// as is a CRC-valid record that fails to decode or that a sharded run of
/// an older build wrote.
pub(crate) fn read(path: &Path) -> Result<Option<JournalReplay>, MckError> {
    let data = match std::fs::read(path) {
        Ok(data) => data,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(MckError::JournalCorrupt {
                reason: format!("cannot read `{}`: {e}", path.display()),
            })
        }
    };
    let corrupt = |reason: String| MckError::JournalCorrupt { reason };

    let Some((header, mut pos)) = next_frame(&data, 0) else {
        return Ok(None); // empty file or torn header: nothing to resume
    };
    let mut d = Dec::new(header);
    if d.u8() != Some(TAG_HEADER) {
        return Err(corrupt("first record is not a journal header".into()));
    }
    if d.bytes(4) != Some(&MAGIC) {
        return Err(corrupt("bad magic: not a synthesis journal".into()));
    }
    match d.u32() {
        Some(VERSION) => {}
        Some(v) => return Err(corrupt(format!("unsupported journal version {v}"))),
        None => return Err(corrupt("truncated journal header".into())),
    }
    let (model, fingerprint) = match (d.str(), Fingerprint::decode(&mut d)) {
        (Some(m), Some(f)) if d.done() => (m, f),
        _ => return Err(corrupt("undecodable journal header".into())),
    };

    let mut replay = JournalReplay {
        model,
        fingerprint,
        gens: Vec::new(),
        stop: StopReason::Completed,
        valid_len: pos as u64,
    };

    while let Some((payload, end)) = next_frame(&data, pos) {
        let mut d = Dec::new(payload);
        match d.u8() {
            Some(TAG_GEN_START) => {
                let (k, prev_k) = (d.u64(), d.u64());
                let ranges = d.list(|d| Some((d.u64()?, d.u64()?)));
                let (Some(k), Some(prev_k), Some(ranges)) = (k, prev_k, ranges) else {
                    return Err(corrupt("undecodable generation record".into()));
                };
                let &[(0, chunks)] = &ranges[..] else {
                    return Err(corrupt(format!(
                        "generation record lists the chunk ranges {ranges:?}, not one \
                         range from chunk 0: a sharded run of an older build wrote it"
                    )));
                };
                replay.gens.push(GenReplay {
                    k: k as usize,
                    prev_k: prev_k as usize,
                    chunks,
                    ..GenReplay::default()
                });
            }
            Some(TAG_CHUNK) => {
                let Some((chunk, slice)) = ChunkDraft::decode(&mut d) else {
                    return Err(corrupt("undecodable chunk record".into()));
                };
                if slice != 0 {
                    return Err(corrupt(format!(
                        "chunk record names slice {slice}: a sharded run of an older \
                         build wrote it"
                    )));
                }
                // Chunks normally belong to the latest generation; after a
                // resume-of-a-resume they may trail a Stop record, so match
                // by frontier width from the back.
                let Some(seg) = replay
                    .gens
                    .iter_mut()
                    .rev()
                    .find(|g| g.k == chunk.k as usize)
                else {
                    return Err(corrupt(format!(
                        "chunk record for unknown generation k={}",
                        chunk.k
                    )));
                };
                seg.evaluated += chunk.evaluated;
                seg.skipped += chunk.skipped;
                seg.deduped += chunk.deduped;
                seg.probes += chunk.probes;
                seg.expanded += chunk.expanded;
                seg.reused += chunk.reused;
                add_range(&mut seg.covered, chunk.first, chunk.count);
                seg.holes.extend(chunk.holes);
                seg.patterns.extend(chunk.patterns);
                seg.solutions.extend(chunk.solutions);
                seg.quarantined.extend(chunk.quarantined);
            }
            Some(TAG_STOP) => {
                let Some(reason) = d.u8().and_then(decode_stop) else {
                    return Err(corrupt("undecodable stop record".into()));
                };
                replay.stop = reason;
            }
            _ => return Err(corrupt("unknown record tag".into())),
        }
        pos = end;
        replay.valid_len = pos as u64;
    }
    Ok(Some(replay))
}

/// Inserts a `(first, count)` chunk range, keeping the list sorted, disjoint,
/// and merged.
pub(crate) fn add_range(ranges: &mut Vec<(u64, u64)>, first: u64, count: u64) {
    let pos = ranges.partition_point(|&(f, _)| f < first);
    ranges.insert(pos, (first, count));
    // Merge around the insertion point (a single pass suffices: neighbours
    // further out were already disjoint).
    let mut i = pos.saturating_sub(1);
    while i + 1 < ranges.len() {
        let (f0, c0) = ranges[i];
        let (f1, c1) = ranges[i + 1];
        if f0 + c0 >= f1 {
            let end = (f0 + c0).max(f1 + c1);
            ranges[i] = (f0, end - f0);
            ranges.remove(i + 1);
        } else {
            i += 1;
        }
    }
}

/// The first chunk index at or after `idx` outside the (sorted, disjoint,
/// merged) coverage: `idx` itself, or the end of the covered range holding
/// it — a claim steps over a whole covered range in one advance.
pub(crate) fn uncovered_from(ranges: &[(u64, u64)], idx: u64) -> u64 {
    let pos = ranges.partition_point(|&(f, _)| f <= idx);
    match pos.checked_sub(1).map(|p| ranges[p]) {
        Some((f, c)) if idx < f + c => f + c,
        _ => idx,
    }
}

/// The first covered chunk index at or after `idx` (`u64::MAX` if none).
/// Claims never cross it, so counters seeded from the journal are never
/// banked twice.
pub(crate) fn next_covered(ranges: &[(u64, u64)], idx: u64) -> u64 {
    if uncovered_from(ranges, idx) != idx {
        return idx;
    }
    let pos = ranges.partition_point(|&(f, _)| f <= idx);
    ranges.get(pos).map_or(u64::MAX, |&(f, _)| f)
}

/// Byte offsets of every valid frame boundary in a journal, starting with
/// the end of the header frame. Truncating the file to any of these offsets
/// simulates a kill at that record boundary; crash-safety tests iterate over
/// them and assert that resuming yields identical results from each.
pub fn record_boundaries(path: &Path) -> std::io::Result<Vec<u64>> {
    let data = std::fs::read(path)?;
    let mut boundaries = Vec::new();
    let mut pos = 0usize;
    while let Some((_, end)) = next_frame(&data, pos) {
        boundaries.push(end as u64);
        pos = end;
    }
    Ok(boundaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SynthOptions, Synthesizer};
    use verc3_mck::{GraphModel, HoleSpec};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "verc3-journal-test-{}-{name}.vc3j",
            std::process::id()
        ));
        p
    }

    fn fp() -> Fingerprint {
        Fingerprint {
            pruning: true,
            pattern_mode: PatternMode::Exact,
            chunk_size: 32,
            enumeration: Enumeration::Guided,
        }
    }

    /// Appends `payload` to the journal at `path` as one CRC-valid frame.
    fn append(path: &Path, payload: &[u8]) {
        let mut f = OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(&frame(payload)).unwrap();
    }

    fn assert_corrupt(err: &MckError, cause: &str) {
        assert!(
            matches!(err, MckError::JournalCorrupt { reason } if reason.contains(cause)),
            "expected a corrupt journal naming `{cause}`, got: {err}"
        );
    }

    #[test]
    fn crc_matches_known_vector() {
        // IEEE 802.3 CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// Format 4 keeps its slice fields: a generation record lists the one
    /// range `[0, chunks)`, and a chunk record names slice 0.
    #[test]
    fn records_keep_the_format_4_slice_fields() {
        let path = tmp("format4");
        let w = JournalWriter::create(&path, "m", &fp(), 1).unwrap();
        w.gen_start(2, 1, 17).unwrap();
        let mut draft = ChunkDraft::new(2, 5);
        draft.evaluated = 1;
        w.chunk(&HoleRegistry::new(), &AtomicUsize::new(0), draft)
            .unwrap();
        drop(w);
        let data = std::fs::read(&path).unwrap();
        let (_, header_end) = next_frame(&data, 0).unwrap();
        let (gen, gen_end) = next_frame(&data, header_end).unwrap();
        let mut e = Enc::default();
        e.u8(TAG_GEN_START);
        for v in [2, 1] {
            e.u64(v);
        }
        e.u32(1);
        for v in [0, 17] {
            e.u64(v);
        }
        assert_eq!(gen, &e.0[..]);
        let (chunk, _) = next_frame(&data, gen_end).unwrap();
        assert_eq!(chunk[0], TAG_CHUNK);
        assert_eq!(chunk[9..13], [0, 0, 0, 0], "slice index");
        let r = read(&path).unwrap().unwrap();
        assert_eq!(
            (r.gens[0].k, r.gens[0].prev_k, r.gens[0].chunks),
            (2, 1, 17)
        );
        assert_eq!(r.gens[0].covered, vec![(5, 1)]);
        std::fs::remove_file(&path).unwrap();
    }

    /// A journal a sharded run of an older build wrote is refused, naming
    /// the cause: a generation split into two chunk ranges, or a chunk
    /// record of slice 1.
    #[test]
    fn journals_of_sharded_runs_are_refused() {
        let path = tmp("sharded");
        drop(JournalWriter::create(&path, "m", &fp(), 1).unwrap());
        let mut e = Enc::default();
        e.u8(TAG_GEN_START);
        e.u64(2);
        e.u64(1);
        e.list(&[(0u64, 3u64), (3, 17)], |e, &(start, end)| {
            e.u64(start);
            e.u64(end);
        });
        append(&path, &e.0);
        assert_corrupt(&read(&path).unwrap_err(), "sharded run");

        let w = JournalWriter::create(&path, "m", &fp(), 1).unwrap();
        w.gen_start(0, 0, 1).unwrap();
        drop(w);
        let mut chunk = ChunkDraft::new(0, 0).encode();
        // Tag and k, then the slice index.
        chunk[9..13].copy_from_slice(&1u32.to_le_bytes());
        append(&path, &chunk);
        assert_corrupt(&read(&path).unwrap_err(), "slice 1");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn round_trips_records_through_the_file() {
        let path = tmp("roundtrip");
        let w = JournalWriter::create(&path, "m", &fp(), 1).unwrap();
        w.gen_start(0, 0, 1).unwrap();
        let reg = HoleRegistry::new();
        reg.resolve_or_register(&HoleSpec::new("h", ["a", "b"]));
        let mut draft = ChunkDraft::new(0, 0);
        draft.evaluated = 3;
        draft.skipped = 5;
        draft.patterns.push(PatternEntry::Prefix(vec![1, 2]));
        draft.patterns.push(PatternEntry::Sparse(vec![(0, 1)]));
        draft.solutions.push(Solution {
            assignment: vec![(0, 1)],
            visited_states: 7,
            transitions: 9,
        });
        draft.quarantined.push(Quarantined {
            digits: vec![1],
            message: "boom".into(),
        });
        w.chunk(&reg, &AtomicUsize::new(0), draft).unwrap();
        w.stop(StopReason::Interrupted).unwrap();
        drop(w);

        let r = read(&path).unwrap().unwrap();
        assert_eq!(r.model, "m");
        assert_eq!(r.fingerprint, fp());
        assert_eq!(r.gens.len(), 1);
        let gen = &r.gens[0];
        assert_eq!(gen.covered, vec![(0, 1)]);
        assert_eq!(gen.evaluated, 3);
        assert_eq!(gen.skipped, 5);
        assert_eq!(gen.holes.len(), 1);
        assert_eq!(gen.holes[0].name, "h");
        assert_eq!(gen.patterns.len(), 2);
        assert_eq!(gen.solutions.len(), 1);
        assert_eq!(gen.quarantined.len(), 1);
        assert_eq!(r.stop, StopReason::Interrupted);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_not_an_error() {
        let path = tmp("torn");
        let w = JournalWriter::create(&path, "m", &fp(), 1).unwrap();
        w.gen_start(0, 0, 1).unwrap();
        drop(w);
        let full = read(&path).unwrap().unwrap();
        assert_eq!(full.gens.len(), 1);
        // Append garbage: a torn half-record.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[42, 0, 0, 0, 1, 2]).unwrap();
        drop(f);
        let r = read(&path).unwrap().unwrap();
        assert_eq!(r.gens.len(), 1);
        assert_eq!(r.valid_len, full.valid_len, "garbage excluded from prefix");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_or_empty_file_reads_as_none() {
        let path = tmp("missing");
        assert!(read(&path).unwrap().is_none());
        std::fs::write(&path, b"").unwrap();
        assert!(read(&path).unwrap().is_none());
        std::fs::write(&path, b"\x03").unwrap(); // torn header
        assert!(read(&path).unwrap().is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_file_is_rejected() {
        let path = tmp("foreign");
        // A CRC-valid frame that is not a header.
        std::fs::write(&path, frame(b"\x09not-ours")).unwrap();
        assert!(matches!(read(&path), Err(MckError::JournalCorrupt { .. })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn inactive_chunks_coalesce_into_range_records() {
        let path = tmp("coalesce");
        let w = JournalWriter::create(&path, "m", &fp(), 1).unwrap();
        w.gen_start(0, 0, 16).unwrap();
        let reg = HoleRegistry::new();
        let journaled = AtomicUsize::new(0);
        // Inactive 0,1,2 then an active 3: one record covering 0..=3.
        for i in 0..3 {
            let mut d = ChunkDraft::new(0, i);
            d.skipped = 10;
            w.chunk(&reg, &journaled, d).unwrap();
        }
        let mut active = ChunkDraft::new(0, 3);
        active.evaluated = 1;
        w.chunk(&reg, &journaled, active).unwrap();
        // A detached inactive chunk flushed at stop.
        let mut d = ChunkDraft::new(0, 7);
        d.skipped = 4;
        w.chunk(&reg, &journaled, d).unwrap();
        w.stop(StopReason::Interrupted).unwrap();
        drop(w);

        let boundaries = record_boundaries(&path).unwrap();
        // header, gen_start, merged chunk, flushed pending, stop.
        assert_eq!(boundaries.len(), 5);
        let r = read(&path).unwrap().unwrap();
        let gen = &r.gens[0];
        assert_eq!(gen.covered, vec![(0, 4), (7, 1)]);
        assert_eq!(gen.skipped, 34);
        assert_eq!(gen.evaluated, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_truncates_to_the_valid_prefix() {
        let path = tmp("resume");
        let w = JournalWriter::create(&path, "m", &fp(), 1).unwrap();
        w.gen_start(0, 0, 1).unwrap();
        drop(w);
        let r = read(&path).unwrap().unwrap();
        // Simulate a torn tail, then resume: the tail must be cut.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[9, 9, 9]).unwrap();
        drop(f);
        let w = JournalWriter::resume(&path, r.valid_len, 1).unwrap();
        w.stop(StopReason::Completed).unwrap();
        drop(w);
        let r2 = read(&path).unwrap().unwrap();
        assert_eq!(r2.stop, StopReason::Completed);
        assert_eq!(r2.gens.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    /// A CRC-valid chunk record whose one solution declares 2^32 − 1
    /// assignment pairs, after the header and first generation start of a
    /// default Figure 2 run: resuming reports the journal corrupt instead
    /// of reserving the 64 GiB the prefix claims.
    #[test]
    fn a_forged_length_prefix_is_corrupt_not_an_allocation() {
        let path = tmp("forged");
        let model = GraphModel::worked_example();
        let w = JournalWriter::create(&path, model.name(), &fp(), 1).unwrap();
        w.gen_start(0, 0, 1).unwrap();
        drop(w);
        // Tag, k and slice; then first, count, evaluated, skipped, deduped,
        // probes, expanded and reused.
        let mut e = Enc::default();
        e.u8(TAG_CHUNK);
        e.u64(0);
        e.u32(0);
        for v in [0, 1, 1, 0, 0, 0, 0, 0] {
            e.u64(v);
        }
        e.u32(0); // holes
        e.u32(0); // patterns
        e.u32(1); // solutions
        e.u32(u32::MAX); // the forged assignment length, then one pair
        e.u64(0);
        e.u16(1);
        append(&path, &e.0);

        let err = Synthesizer::new(SynthOptions::default().journal(&path))
            .resume_from_journal(&model)
            .unwrap_err();
        assert_corrupt(&err, "chunk");
        std::fs::remove_file(&path).unwrap();
    }

    /// Resumes the default Figure 2 run from a journal whose first
    /// generation (frontier width 0) holds one CRC-valid chunk record,
    /// `draft`, listing `holes` as first seen: the error resuming returns.
    fn resume_figure_2_over(name: &str, holes: &[(&str, &[&str])], draft: ChunkDraft) -> MckError {
        let path = tmp(name);
        let model = GraphModel::worked_example();
        let w = JournalWriter::create(&path, model.name(), &fp(), 1).unwrap();
        w.gen_start(0, 0, 1).unwrap();
        drop(w);
        let holes = holes.iter().map(|&(name, actions)| HoleInfo {
            name: name.into(),
            actions: actions.iter().map(|&a| a.into()).collect(),
        });
        append(
            &path,
            &ChunkDraft {
                holes: holes.collect(),
                ..draft
            }
            .encode(),
        );
        let err = Synthesizer::new(SynthOptions::default().journal(&path))
            .resume_from_journal(&model)
            .unwrap_err();
        std::fs::remove_file(&path).unwrap();
        err
    }

    const HOLE_1: (&str, &[&str]) = ("1", &["A", "B", "C"]);

    fn evaluated() -> ChunkDraft {
        ChunkDraft {
            evaluated: 1,
            ..ChunkDraft::new(0, 0)
        }
    }

    fn solving(assignment: Vec<(usize, u16)>) -> ChunkDraft {
        let mut draft = evaluated();
        draft.solutions.push(Solution {
            assignment,
            visited_states: 1,
            transitions: 0,
        });
        draft
    }

    #[test]
    fn a_forged_hole_list_is_corrupt_not_a_panic() {
        let err = resume_figure_2_over("hole-twice", &[HOLE_1, HOLE_1], evaluated());
        assert_corrupt(&err, "lists a hole twice");
        let err = resume_figure_2_over("hole-without-actions", &[("1", &[])], evaluated());
        assert_corrupt(&err, "lists a hole without actions");
    }

    #[test]
    fn a_forged_solution_hole_is_corrupt_not_a_panic() {
        let err = resume_figure_2_over("solution-hole", &[], solving(vec![(7, 0)]));
        assert_corrupt(&err, "solution naming an unknown hole");
    }

    #[test]
    fn a_forged_solution_action_is_corrupt_not_a_panic() {
        let err = resume_figure_2_over("solution-action", &[HOLE_1], solving(vec![(0, 3)]));
        assert_corrupt(&err, "solution naming an unknown hole or action");
    }

    #[test]
    fn a_forged_sparse_pattern_hole_is_corrupt() {
        let mut draft = evaluated();
        draft.patterns.push(PatternEntry::Sparse(vec![(0, 1)]));
        let err = resume_figure_2_over("sparse-hole", &[HOLE_1], draft);
        assert_corrupt(&err, "pattern outside its frontier");
    }

    #[test]
    fn a_forged_prefix_pattern_length_is_corrupt() {
        let mut draft = evaluated();
        draft.patterns.push(PatternEntry::Prefix(vec![1]));
        let err = resume_figure_2_over("prefix-length", &[], draft);
        assert_corrupt(&err, "pattern outside its frontier");
    }

    #[test]
    fn a_forged_quarantine_width_is_corrupt() {
        let mut draft = evaluated();
        draft.quarantined.push(Quarantined {
            digits: vec![1],
            message: "boom".into(),
        });
        let err = resume_figure_2_over("quarantine-width", &[], draft);
        assert_corrupt(&err, "candidate of another width");
    }

    #[test]
    fn ranges_merge_and_cover() {
        let mut r = Vec::new();
        add_range(&mut r, 4, 2);
        add_range(&mut r, 0, 2);
        add_range(&mut r, 2, 2);
        assert_eq!(r, vec![(0, 6)]);
        add_range(&mut r, 8, 1);
        assert_eq!(
            [0, 5, 6, 7, 8, 9].map(|i| uncovered_from(&r, i)),
            [6, 6, 6, 7, 9, 9]
        );
        assert_eq!(
            [0, 5, 6, 7, 8, 9].map(|i| next_covered(&r, i)),
            [0, 5, 8, 8, 8, u64::MAX]
        );
    }
}
