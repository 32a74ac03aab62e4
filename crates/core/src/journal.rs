//! Crash-safe synthesis progress journal.
//!
//! A journal is an append-only file of CRC-framed binary records tracking a
//! synthesis run's durable progress: which odometer chunks each generation
//! has completed, the holes, pruning patterns, and solutions those chunks
//! produced, and why the run stopped. A run killed at any instant — power
//! loss, SIGKILL, a torn final write — leaves a journal whose longest valid
//! prefix reconstructs the exact remaining candidate frontier:
//! [`crate::Synthesizer::resume_from_journal`] replays it and continues as
//! if the original process had never died.
//!
//! ## Frame format
//!
//! Every record is one frame: `[len: u32 LE][crc32: u32 LE][payload]`, with
//! the CRC (IEEE 802.3 polynomial) taken over the payload. Readers stop at
//! the first frame that is short, fails its CRC, or does not decode — a torn
//! final record is expected after a crash, never an error — and resuming
//! truncates the file back to the valid prefix before appending.
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
//!   began.
//! * **Chunk** — a contiguous range of odometer chunks completed, with its
//!   aggregated counters and everything it learned (holes discovered,
//!   patterns published, solutions found, candidates quarantined). Chunks
//!   are journaled *atomically on completion*: a chunk that was in flight at
//!   the kill leaves no trace and is simply re-run on resume, which is what
//!   makes serial resume bit-identical — the re-run sees exactly the
//!   pattern-table state the original attempt saw.
//! * **Stop** — the run ended, and why (see [`StopReason`]).
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
use verc3_mck::faults;
use verc3_mck::MckError;

const MAGIC: [u8; 4] = *b"VC3J";
const VERSION: u32 = 3;

const TAG_HEADER: u8 = 1;
const TAG_GEN_START: u8 = 2;
const TAG_CHUNK: u8 = 3;
const TAG_STOP: u8 = 4;

/// Flush the pending inactive-range buffer once it holds this many disjoint
/// ranges (bounds both writer memory and the coverage lost to a kill).
const MAX_PENDING: usize = 64;

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
pub(crate) struct Enc(pub(crate) Vec<u8>);

impl Enc {
    pub(crate) fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub(crate) fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    pub(crate) fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let out = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(out)
    }
    pub(crate) fn u8(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }
    pub(crate) fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.bytes(2)?.try_into().ok()?))
    }
    pub(crate) fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }
    pub(crate) fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }
    pub(crate) fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.bytes(n)?.to_vec()).ok()
    }
    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// CRC32 (IEEE 802.3) over `data` — shared with the shard wire format,
/// which frames pattern batches exactly like journal records.
pub(crate) fn checksum(data: &[u8]) -> u32 {
    crc32(data)
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
    /// The chunk-index range `[start, end)` a shard journal covers, `None`
    /// for a whole-space run. Pinning the partition in the header makes
    /// resuming a shard journal against a different partition fail fast
    /// with [`MckError::JournalCorrupt`] instead of silently replaying the
    /// wrong slice (coverage is recorded in absolute chunk indices, so a
    /// journal from range A would otherwise "resume" range B by re-running
    /// all of B and reporting A's results on top).
    pub shard: Option<(u64, u64)>,
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
            Enumeration::Lexicographic => 0,
            Enumeration::Guided => 1,
        });
        match self.shard {
            None => e.u8(0),
            Some((start, end)) => {
                e.u8(1);
                e.u64(start);
                e.u64(end);
            }
        }
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
        let enumeration = match d.u8()? {
            0 => Enumeration::Lexicographic,
            1 => Enumeration::Guided,
            _ => return None,
        };
        let shard = match d.u8()? {
            0 => None,
            1 => Some((d.u64()?, d.u64()?)),
            _ => return None,
        };
        Some(Fingerprint {
            pruning,
            pattern_mode,
            chunk_size,
            enumeration,
            shard,
        })
    }
}

/// A pruning pattern as journaled and as carried on the shared pattern log
/// (the hub's append-only log workers sync from — see [`crate::synth`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum PatternEntry {
    /// Dense prefix pattern (paper-exact mode).
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
    /// it is coalesced into a range record instead of journaled alone (and
    /// the workers batch whole runs of them before taking the writer lock).
    pub(crate) fn is_inactive(&self) -> bool {
        self.evaluated == 0
            && self.expanded == 0
            && self.reused == 0
            && self.patterns.is_empty()
            && self.solutions.is_empty()
            && self.quarantined.is_empty()
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.u8(TAG_CHUNK);
        e.u64(self.k);
        e.u64(self.first);
        e.u64(self.count);
        e.u64(self.evaluated);
        e.u64(self.skipped);
        e.u64(self.deduped);
        e.u64(self.probes);
        e.u64(self.expanded);
        e.u64(self.reused);
        e.u32(self.holes.len() as u32);
        for h in &self.holes {
            e.str(&h.name);
            e.u32(h.actions.len() as u32);
            for a in &h.actions {
                e.str(a);
            }
        }
        e.u32(self.patterns.len() as u32);
        for p in &self.patterns {
            match p {
                PatternEntry::Prefix(digits) => {
                    e.u8(0);
                    e.u32(digits.len() as u32);
                    for &d in digits {
                        e.u16(d);
                    }
                }
                PatternEntry::Sparse(pairs) => {
                    e.u8(1);
                    e.u32(pairs.len() as u32);
                    for &(h, a) in pairs {
                        e.u16(h);
                        e.u16(a);
                    }
                }
            }
        }
        e.u32(self.solutions.len() as u32);
        for s in &self.solutions {
            e.u32(s.assignment.len() as u32);
            for &(h, a) in &s.assignment {
                e.u64(h as u64);
                e.u16(a);
            }
            e.u64(s.visited_states as u64);
            e.u64(s.transitions as u64);
        }
        e.u32(self.quarantined.len() as u32);
        for q in &self.quarantined {
            e.u32(q.digits.len() as u32);
            for &d in &q.digits {
                e.u16(d);
            }
            e.str(&q.message);
        }
        e.0
    }

    fn decode(d: &mut Dec<'_>) -> Option<Self> {
        let mut c = ChunkDraft {
            k: d.u64()?,
            first: d.u64()?,
            count: d.u64()?,
            evaluated: d.u64()?,
            skipped: d.u64()?,
            deduped: d.u64()?,
            probes: d.u64()?,
            expanded: d.u64()?,
            reused: d.u64()?,
            ..Default::default()
        };
        for _ in 0..d.u32()? {
            let name = d.str()?;
            let mut actions = Vec::new();
            for _ in 0..d.u32()? {
                actions.push(d.str()?);
            }
            c.holes.push(HoleInfo { name, actions });
        }
        for _ in 0..d.u32()? {
            match d.u8()? {
                0 => {
                    let n = d.u32()?;
                    let mut digits = Vec::with_capacity(n as usize);
                    for _ in 0..n {
                        digits.push(d.u16()?);
                    }
                    c.patterns.push(PatternEntry::Prefix(digits));
                }
                1 => {
                    let n = d.u32()?;
                    let mut pairs = Vec::with_capacity(n as usize);
                    for _ in 0..n {
                        pairs.push((d.u16()?, d.u16()?));
                    }
                    c.patterns.push(PatternEntry::Sparse(pairs));
                }
                _ => return None,
            }
        }
        for _ in 0..d.u32()? {
            let n = d.u32()?;
            let mut assignment = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let h = d.u64()? as usize;
                assignment.push((h, d.u16()?));
            }
            c.solutions.push(Solution {
                assignment,
                visited_states: d.u64()? as usize,
                transitions: d.u64()? as usize,
            });
        }
        for _ in 0..d.u32()? {
            let n = d.u32()?;
            let mut digits = Vec::with_capacity(n as usize);
            for _ in 0..n {
                digits.push(d.u16()?);
            }
            c.quarantined.push(Quarantined {
                digits,
                message: d.str()?,
            });
        }
        Some(c)
    }
}

// ---------------------------------------------------------------------------
// Writer.

/// A pending coalesced range of inactive chunks (nothing but skip and probe
/// counts).
struct Pending {
    first: u64,
    count: u64,
    skipped: u64,
    deduped: u64,
    probes: u64,
}

struct WriterInner {
    file: File,
    fsync_every: u64,
    appends_since_sync: u64,
    /// Next registry id to capture into a chunk record — holes are journaled
    /// exactly once, in id (discovery) order, carried by whichever record
    /// flushes first after their discovery.
    hole_cursor: usize,
    /// Coalesced inactive coverage of the current generation, disjoint and
    /// sorted by `first`. Lost to a kill, these cheap fully-pruned chunks
    /// are simply re-scanned on resume.
    pending: Vec<Pending>,
    pending_k: u64,
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
        Self::create_at(path, model, fingerprint, fsync_every, 0)
    }

    /// [`JournalWriter::create`] with an initial hole cursor: a shard
    /// journal is seeded with the coordinator's baseline registry, which
    /// every resume re-seeds from the shard spec — only holes the shard
    /// *discovers* (ids at and beyond the cursor) belong in its records.
    pub(crate) fn create_at(
        path: &Path,
        model: &str,
        fingerprint: &Fingerprint,
        fsync_every: u64,
        hole_cursor: usize,
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
        Ok(Self::wrap(file, fsync_every, hole_cursor))
    }

    /// Reopens a journal for appending after replay: truncates the file back
    /// to its longest valid prefix (discarding any torn final record) and
    /// seeks to the end. `hole_cursor` is the number of holes the replay
    /// already journaled.
    pub(crate) fn resume(
        path: &Path,
        valid_len: u64,
        hole_cursor: usize,
        fsync_every: u64,
    ) -> std::io::Result<Self> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.sync_data()?;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(Self::wrap(file, fsync_every, hole_cursor))
    }

    fn wrap(file: File, fsync_every: u64, hole_cursor: usize) -> Self {
        JournalWriter {
            inner: Mutex::new(WriterInner {
                file,
                fsync_every: fsync_every.max(1),
                appends_since_sync: 0,
                hole_cursor,
                pending: Vec::new(),
                pending_k: 0,
            }),
        }
    }

    /// Journals the start of a generation (always durable: a generation
    /// boundary is where resume decides the frontier width sequence).
    pub(crate) fn gen_start(&self, k: usize, prev_k: usize) -> std::io::Result<()> {
        let mut inner = self.inner.lock();
        flush_pending(&mut inner)?;
        let mut e = Enc::default();
        e.u8(TAG_GEN_START);
        e.u64(k as u64);
        e.u64(prev_k as u64);
        write_frame(&mut inner.file, &e.0)?;
        sync_now(&mut inner)
    }

    /// Journals one completed chunk. Inactive chunks are buffered and
    /// coalesced; active chunks absorb any adjacent pending run and flush
    /// immediately, capturing all holes discovered since the last capture.
    pub(crate) fn chunk(
        &self,
        registry: &HoleRegistry,
        mut draft: ChunkDraft,
    ) -> std::io::Result<()> {
        let mut inner = self.inner.lock();
        if inner.pending_k != draft.k {
            flush_pending(&mut inner)?;
            inner.pending_k = draft.k;
        }
        if draft.is_inactive() {
            merge_pending(&mut inner.pending, draft);
            if inner.pending.len() > MAX_PENDING {
                flush_pending(&mut inner)?;
            }
            return Ok(());
        }
        // Absorb a pending inactive run this chunk directly extends (the
        // common serial shape: a run of pruned chunks then an evaluated one).
        if let Some(pos) = inner
            .pending
            .iter()
            .position(|p| p.first + p.count == draft.first)
        {
            let p = inner.pending.remove(pos);
            draft.first = p.first;
            draft.count += p.count;
            draft.skipped += p.skipped;
            draft.deduped += p.deduped;
            draft.probes += p.probes;
        }
        if let Some(pos) = inner
            .pending
            .iter()
            .position(|p| p.first == draft.first + draft.count)
        {
            let p = inner.pending.remove(pos);
            draft.count += p.count;
            draft.skipped += p.skipped;
            draft.deduped += p.deduped;
            draft.probes += p.probes;
        }
        let snapshot = registry.snapshot();
        draft.holes = snapshot.get(inner.hole_cursor..).unwrap_or(&[]).to_vec();
        inner.hole_cursor = snapshot.len();
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
/// neighbours), keeping them disjoint and sorted by `first`.
fn merge_pending(pending: &mut Vec<Pending>, draft: ChunkDraft) {
    let pos = pending.partition_point(|p| p.first < draft.first);
    // Extend the predecessor if adjacent.
    if pos > 0 && pending[pos - 1].first + pending[pos - 1].count == draft.first {
        let p = &mut pending[pos - 1];
        p.count += draft.count;
        p.skipped += draft.skipped;
        p.deduped += draft.deduped;
        p.probes += draft.probes;
        // The grown predecessor may now touch its successor.
        if pos < pending.len()
            && pending[pos - 1].first + pending[pos - 1].count == pending[pos].first
        {
            let succ = pending.remove(pos);
            let p = &mut pending[pos - 1];
            p.count += succ.count;
            p.skipped += succ.skipped;
            p.deduped += succ.deduped;
            p.probes += succ.probes;
        }
        return;
    }
    // Extend the successor if adjacent.
    if pos < pending.len() && draft.first + draft.count == pending[pos].first {
        let p = &mut pending[pos];
        p.first = draft.first;
        p.count += draft.count;
        p.skipped += draft.skipped;
        p.deduped += draft.deduped;
        p.probes += draft.probes;
        return;
    }
    pending.insert(
        pos,
        Pending {
            first: draft.first,
            count: draft.count,
            skipped: draft.skipped,
            deduped: draft.deduped,
            probes: draft.probes,
        },
    );
}

fn flush_pending(inner: &mut WriterInner) -> std::io::Result<()> {
    if inner.pending.is_empty() {
        return Ok(());
    }
    let k = inner.pending_k;
    let ranges = std::mem::take(&mut inner.pending);
    for p in ranges {
        let draft = ChunkDraft {
            k,
            first: p.first,
            count: p.count,
            skipped: p.skipped,
            deduped: p.deduped,
            probes: p.probes,
            ..Default::default()
        };
        let payload = draft.encode();
        write_frame(&mut inner.file, &payload)?;
        inner.appends_since_sync += 1;
    }
    Ok(())
}

fn write_frame(file: &mut File, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
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

/// Replayed progress of one generation.
#[derive(Debug, Clone, Default)]
pub(crate) struct GenReplay {
    pub k: usize,
    pub prev_k: usize,
    /// Completed chunk coverage: disjoint `(first, count)` chunk-index
    /// ranges, sorted and merged.
    pub ranges: Vec<(u64, u64)>,
    pub evaluated: u64,
    pub skipped: u64,
    pub deduped: u64,
    pub probes: u64,
}

/// The state a valid journal prefix reconstructs.
#[derive(Debug, Clone)]
pub(crate) struct JournalReplay {
    pub model: String,
    pub fingerprint: Fingerprint,
    /// Generations in journal (= execution) order; the last one may be
    /// partially covered.
    pub gens: Vec<GenReplay>,
    /// Holes in id (discovery) order.
    pub holes: Vec<HoleInfo>,
    pub patterns: Vec<PatternEntry>,
    pub solutions: Vec<Solution>,
    pub quarantined: Vec<Quarantined>,
    pub evaluated_total: u64,
    pub expanded: u64,
    pub reused: u64,
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
/// as is a CRC-valid record that fails to decode.
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
        holes: Vec::new(),
        patterns: Vec::new(),
        solutions: Vec::new(),
        quarantined: Vec::new(),
        evaluated_total: 0,
        expanded: 0,
        reused: 0,
        stop: StopReason::Completed,
        valid_len: pos as u64,
    };

    while let Some((payload, end)) = next_frame(&data, pos) {
        let mut d = Dec::new(payload);
        match d.u8() {
            Some(TAG_GEN_START) => {
                let (Some(k), Some(prev_k)) = (d.u64(), d.u64()) else {
                    return Err(corrupt("undecodable generation record".into()));
                };
                replay.gens.push(GenReplay {
                    k: k as usize,
                    prev_k: prev_k as usize,
                    ..Default::default()
                });
            }
            Some(TAG_CHUNK) => {
                let Some(chunk) = ChunkDraft::decode(&mut d) else {
                    return Err(corrupt("undecodable chunk record".into()));
                };
                // Chunks normally belong to the latest generation; after a
                // resume-of-a-resume they may trail a Stop record, so match
                // by frontier width from the back.
                let Some(gen) = replay
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
                gen.evaluated += chunk.evaluated;
                gen.skipped += chunk.skipped;
                gen.deduped += chunk.deduped;
                gen.probes += chunk.probes;
                add_range(&mut gen.ranges, chunk.first, chunk.count);
                replay.evaluated_total += chunk.evaluated;
                replay.expanded += chunk.expanded;
                replay.reused += chunk.reused;
                replay.holes.extend(chunk.holes);
                replay.patterns.extend(chunk.patterns);
                replay.solutions.extend(chunk.solutions);
                replay.quarantined.extend(chunk.quarantined);
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

/// Parses the frame at `pos`, returning its payload and end offset, or
/// `None` if the remaining bytes are short, torn, or fail the CRC.
fn next_frame(data: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let len_bytes = data.get(pos..pos + 4)?;
    let len = u32::from_le_bytes(len_bytes.try_into().ok()?) as usize;
    let crc_bytes = data.get(pos + 4..pos + 8)?;
    let crc = u32::from_le_bytes(crc_bytes.try_into().ok()?);
    let payload = data.get(pos + 8..pos + 8 + len)?;
    if crc32(payload) != crc {
        return None;
    }
    Some((payload, pos + 8 + len))
}

/// Inserts a `(first, count)` chunk range, keeping the list sorted, disjoint,
/// and merged.
fn add_range(ranges: &mut Vec<(u64, u64)>, first: u64, count: u64) {
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
            enumeration: Enumeration::Lexicographic,
            shard: None,
        }
    }

    #[test]
    fn shard_range_round_trips_in_fingerprint() {
        let path = tmp("shard-fp");
        let sharded = Fingerprint {
            shard: Some((3, 17)),
            ..fp()
        };
        let w = JournalWriter::create(&path, "m", &sharded, 1).unwrap();
        w.gen_start(2, 1).unwrap();
        drop(w);
        let r = read(&path).unwrap().unwrap();
        assert_eq!(r.fingerprint, sharded);
        assert_ne!(r.fingerprint, fp(), "whole-space fingerprint must differ");
        assert_ne!(
            r.fingerprint,
            Fingerprint {
                shard: Some((3, 18)),
                ..fp()
            },
            "a different partition must not match"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crc_matches_known_vector() {
        // IEEE 802.3 CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn round_trips_records_through_the_file() {
        let path = tmp("roundtrip");
        let w = JournalWriter::create(&path, "m", &fp(), 1).unwrap();
        w.gen_start(0, 0).unwrap();
        let reg = HoleRegistry::new();
        reg.resolve_or_register(&verc3_mck::HoleSpec::new("h", ["a", "b"]));
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
        w.chunk(&reg, draft).unwrap();
        w.stop(StopReason::Interrupted).unwrap();
        drop(w);

        let r = read(&path).unwrap().unwrap();
        assert_eq!(r.model, "m");
        assert_eq!(r.fingerprint, fp());
        assert_eq!(r.gens.len(), 1);
        assert_eq!(r.gens[0].ranges, vec![(0, 1)]);
        assert_eq!(r.gens[0].evaluated, 3);
        assert_eq!(r.gens[0].skipped, 5);
        assert_eq!(r.holes.len(), 1);
        assert_eq!(r.holes[0].name, "h");
        assert_eq!(r.patterns.len(), 2);
        assert_eq!(r.solutions.len(), 1);
        assert_eq!(r.quarantined.len(), 1);
        assert_eq!(r.stop, StopReason::Interrupted);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_not_an_error() {
        let path = tmp("torn");
        let w = JournalWriter::create(&path, "m", &fp(), 1).unwrap();
        w.gen_start(0, 0).unwrap();
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
        let payload = b"\x09not-ours";
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        std::fs::write(&path, &frame).unwrap();
        assert!(matches!(read(&path), Err(MckError::JournalCorrupt { .. })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn inactive_chunks_coalesce_into_range_records() {
        let path = tmp("coalesce");
        let w = JournalWriter::create(&path, "m", &fp(), 1).unwrap();
        w.gen_start(0, 0).unwrap();
        let reg = HoleRegistry::new();
        // Inactive 0,1,2 then an active 3: one record covering 0..=3.
        for i in 0..3 {
            let mut d = ChunkDraft::new(0, i);
            d.skipped = 10;
            w.chunk(&reg, d).unwrap();
        }
        let mut active = ChunkDraft::new(0, 3);
        active.evaluated = 1;
        w.chunk(&reg, active).unwrap();
        // A detached inactive chunk flushed at stop.
        let mut d = ChunkDraft::new(0, 7);
        d.skipped = 4;
        w.chunk(&reg, d).unwrap();
        w.stop(StopReason::Interrupted).unwrap();
        drop(w);

        let boundaries = record_boundaries(&path).unwrap();
        // header, gen_start, merged chunk, flushed pending, stop.
        assert_eq!(boundaries.len(), 5);
        let r = read(&path).unwrap().unwrap();
        assert_eq!(r.gens[0].ranges, vec![(0, 4), (7, 1)]);
        assert_eq!(r.gens[0].skipped, 34);
        assert_eq!(r.gens[0].evaluated, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_truncates_to_the_valid_prefix() {
        let path = tmp("resume");
        let w = JournalWriter::create(&path, "m", &fp(), 1).unwrap();
        w.gen_start(0, 0).unwrap();
        drop(w);
        let r = read(&path).unwrap().unwrap();
        // Simulate a torn tail, then resume: the tail must be cut.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[9, 9, 9]).unwrap();
        drop(f);
        let w = JournalWriter::resume(&path, r.valid_len, 0, 1).unwrap();
        w.stop(StopReason::Completed).unwrap();
        drop(w);
        let r2 = read(&path).unwrap().unwrap();
        assert_eq!(r2.stop, StopReason::Completed);
        assert_eq!(r2.gens.len(), 1);
        std::fs::remove_file(&path).unwrap();
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
