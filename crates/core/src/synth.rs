//! The synthesis procedure: generational candidate enumeration with lazy
//! hole discovery, candidate pruning, and optional parallel evaluation.
//!
//! The algorithm follows §II of the paper:
//!
//! 1. Start from the **empty candidate** — no holes are known.
//! 2. Dispatch candidates to the embedded model checker. Newly encountered
//!    holes are registered lazily and default to the wildcard action (or to
//!    action 0 in the naïve baseline).
//! 3. The candidate vector is partitioned into a concrete prefix (the
//!    enumeration frontier, holes `0..k`) and a wildcard suffix. When a
//!    **generation** — one full enumeration pass over the frontier — ends,
//!    the frontier expands to every hole discovered so far ("once a hole has
//!    been used as a non-wildcard ... it cannot be a wildcard again").
//! 4. On failure, the candidate's configuration is recorded as a **pruning
//!    pattern**; candidates matching any pattern are skipped without being
//!    evaluated.
//! 5. The run ends when a generation completes without discovering holes.
//!    Verified candidates are reported as solutions.
//!
//! Parallel synthesis (paper §II, *Parallel Synthesis*) splits each
//! generation's candidate range into chunks claimed by worker threads from an
//! atomic dispenser; discoveries go through the shared [`HoleRegistry`], and
//! pruning patterns propagate through a shared append-only log that workers
//! sync from at every chunk boundary — so "each thread \[can\] make use of
//! another thread's registered patterns as soon as they become available".
//!
//! ## One loop
//!
//! Every entry point — [`Synthesizer::try_run`],
//! [`Synthesizer::resume_from_journal`] and [`crate::run_sharded`] — runs
//! the same generation loop, the shard coordinator in [`crate::shard`].
//! Each round partitions the frontier's chunk space into slices, runs every
//! slice through one slice runner, and merges the slice outcomes into one
//! [`SynthReport`]; a [`Synthesizer`] is the one-slice case. What belongs
//! to the run exists once and every slice of every round shares it: the
//! budget counters (evaluations, committed states, the deadline counted
//! from the start of the run, the stop reason), the run log and the
//! journal. What belongs to a slice is its own: its hole registry (the
//! frontier, then the holes the slice first sees), its pattern hub over the
//! run's merged patterns, and its finds.

use crate::candidate::CandidateVec;
use crate::hole::{HoleId, HoleInfo, HoleRegistry};
use crate::journal::{
    self, ChunkDraft, Fingerprint, GenReplay, JournalReplay, JournalWriter, PatternEntry, Segment,
};
#[cfg(any(test, feature = "reference"))]
use crate::odometer::Odometer;
use crate::odometer::{space_size, GuidedOdometer};
use crate::pattern::{PatternMode, Propagator};
use crate::report::{
    GenStats, Quarantined, RunRecord, Solution, StopReason, SynthReport, SynthStats,
};
use crate::resolver::{DiscoveryDefault, SharedCandidateResolver};
use crate::shard::{PatternBatch, PatternExchange, ShardOptions, StealPool};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use verc3_mck::hashers::FnvHashSet;
use verc3_mck::{
    CheckSession, Checker, CheckerOptions, HoleSpec, MckError, Outcome, TransitionSystem, Verdict,
};

/// Candidate-enumeration strategy (see [`SynthOptions::enumeration`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Enumeration {
    /// Let the learned patterns drive the walk: jump directly to the next
    /// assignment consistent with every dense prefix and sparse pattern,
    /// re-verifying only the digits each jump changed (see
    /// [`crate::GuidedOdometer`]). It visits the candidate sequence of a
    /// lexicographic walk that skips every subtree a pattern matches, at a
    /// fraction of that walk's per-depth probes
    /// ([`crate::report::GenStats::probes`]). Over the empty pattern table
    /// of a naïve run it refutes nothing and visits every candidate.
    #[default]
    Guided,
    /// The lexicographic reference walk: consults the pattern table from
    /// the root at every candidate and skips matched subtrees, claiming
    /// chunk by chunk. Compiled only for tests and under the `reference`
    /// feature, as the differential oracle the guided walk is held to.
    #[cfg(any(test, feature = "reference"))]
    Lexicographic,
}

/// Configuration for a [`Synthesizer`].
///
/// Consuming-builder style:
///
/// ```
/// use verc3_core::SynthOptions;
///
/// let opts = SynthOptions::default().threads(4).record_runs(true);
/// # let _ = opts;
/// ```
#[derive(Debug, Clone)]
pub struct SynthOptions {
    pruning: bool,
    pattern_mode: PatternMode,
    enumeration: Enumeration,
    threads: usize,
    check_threads: usize,
    checker: CheckerOptions,
    chunk_size: u64,
    max_evaluations: Option<u64>,
    record_runs: bool,
    #[cfg(any(test, feature = "reference"))]
    reuse_sessions: bool,
    journal: Option<PathBuf>,
    journal_fsync_every: u64,
    deadline: Option<Duration>,
    state_budget: Option<u64>,
    stop_flag: Option<Arc<AtomicBool>>,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            pruning: true,
            pattern_mode: PatternMode::Exact,
            enumeration: Enumeration::Guided,
            threads: 1,
            check_threads: 1,
            checker: CheckerOptions::default(),
            chunk_size: 32,
            max_evaluations: None,
            record_runs: false,
            #[cfg(any(test, feature = "reference"))]
            reuse_sessions: true,
            journal: None,
            journal_fsync_every: 64,
            deadline: None,
            state_budget: None,
            stop_flag: None,
        }
    }
}

impl SynthOptions {
    /// Enables or disables candidate pruning. Disabling selects the paper's
    /// naïve baseline: undiscovered holes take their first action instead of
    /// the wildcard, and the full candidate product is evaluated.
    pub fn pruning(mut self, enabled: bool) -> Self {
        self.pruning = enabled;
        self
    }

    /// Selects how failure patterns are recorded (paper-exact prefixes or
    /// the refined touched-hole extension). Ignored when pruning is off.
    pub fn pattern_mode(mut self, mode: PatternMode) -> Self {
        self.pattern_mode = mode;
        self
    }

    /// Selects the candidate-enumeration strategy. Production builds have
    /// one, [`Enumeration::Guided`] (the default), which runs pruned and
    /// naïve synthesis alike; tests and the `reference` feature add the
    /// lexicographic walk it is held to. Part of the journal fingerprint:
    /// resuming requires the strategy the journal was written with.
    pub fn enumeration(mut self, strategy: Enumeration) -> Self {
        self.enumeration = strategy;
        self
    }

    /// Number of worker threads evaluating candidates (default 1).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`; use [`SynthOptions::try_threads`] for a
    /// structured error instead.
    #[track_caller]
    pub fn threads(self, threads: usize) -> Self {
        self.try_threads(threads).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`SynthOptions::threads`].
    pub fn try_threads(mut self, threads: usize) -> Result<Self, MckError> {
        if threads == 0 {
            return Err(MckError::InvalidConfig {
                param: "threads",
                reason: "at least one worker thread is required".into(),
            });
        }
        self.threads = threads;
        Ok(self)
    }

    /// Number of checker worker threads *per candidate evaluation*
    /// (default 1): the second parallelism axis, orthogonal to
    /// [`SynthOptions::threads`].
    ///
    /// Cross-candidate threads scale with the width of the candidate space;
    /// per-check threads scale with the size of a single candidate's state
    /// space, and are the only axis that helps when few candidates are in
    /// flight (small generations, the pruning-dense tail of a run, or plain
    /// golden-model verification). The two compose — `threads(t)` workers
    /// each drive `check_threads(c)` checker workers, so budget `t * c`
    /// against the available cores.
    ///
    /// Every individual evaluation is verdict-, statistics-, and
    /// failure-attribution-identical to its serial counterpart (the
    /// parallel checker's commit-replay step guarantees it). The
    /// equivalence extends to **all resolver effects** in both discovery
    /// modes: expansion workers consult through provisional handles whose
    /// touches stay thread-local, and only the records the replay step
    /// commits publish hole touches, failure attributions, and first
    /// discoveries — in replay order, the serial driver's within-layer
    /// consultation order. This covers the naïve baseline
    /// (`pruning(false)`) too: its fresh `(hole, action 0)` consultations
    /// are answered from the deferred pending list and committed at the
    /// same replay sequence point, so neither mode registers racily.
    /// Speculative work that replay discards (rule applications past a
    /// failing state's short-circuit point, chunks of an aborted
    /// claim-table attempt) leaves no trace, so the ordered hole table,
    /// the per-run `discovered` logs, and the touched sets feeding
    /// [`PatternMode::Refined`] are a pure function of the candidate
    /// sequence, independent of worker interleaving: the exact Figure-2
    /// run log survives `check_threads(4)`
    /// (`fig2_is_exact_under_parallel_checks`; full run-log and registry
    /// equality on failing and state-capped runs is pinned by
    /// `check_threads_match_serial_resolver_effects` below — which covers
    /// naïve mode as well — and `tests/session_equivalence.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`; use [`SynthOptions::try_check_threads`]
    /// for a structured error instead.
    #[track_caller]
    pub fn check_threads(self, threads: usize) -> Self {
        self.try_check_threads(threads)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`SynthOptions::check_threads`].
    pub fn try_check_threads(mut self, threads: usize) -> Result<Self, MckError> {
        if threads == 0 {
            return Err(MckError::InvalidConfig {
                param: "check_threads",
                reason: "at least one checker thread is required".into(),
            });
        }
        self.check_threads = threads;
        Ok(self)
    }

    /// Model-checker options used for every candidate evaluation. A thread
    /// count set here and [`SynthOptions::check_threads`] combine by
    /// maximum — setting either one is enough to parallelize dispatches.
    pub fn checker(mut self, options: CheckerOptions) -> Self {
        self.checker = options;
        self
    }

    /// Number of candidates a worker claims per dispensing step. Part of
    /// the journal fingerprint: resuming requires the same chunk size the
    /// journal was written with.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`; use [`SynthOptions::try_chunk_size`] for a
    /// structured error instead.
    #[track_caller]
    pub fn chunk_size(self, size: u64) -> Self {
        self.try_chunk_size(size).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`SynthOptions::chunk_size`].
    pub fn try_chunk_size(mut self, size: u64) -> Result<Self, MckError> {
        if size == 0 {
            return Err(MckError::InvalidConfig {
                param: "chunk_size",
                reason: "chunk size must be positive".into(),
            });
        }
        self.chunk_size = size;
        Ok(self)
    }

    /// The configured chunk size: the shard coordinator partitions the
    /// generation space in chunk-index units, so it needs the same value
    /// the workers claim by.
    pub(crate) fn chunk(&self) -> u64 {
        self.chunk_size
    }

    /// The configured journal path, if any.
    pub(crate) fn journal_path(&self) -> Option<&Path> {
        self.journal.as_deref()
    }

    /// Stops the run (marking the report truncated) after this many
    /// model-checker dispatches, for the whole run, at any shard count:
    /// every worker checks the one run-wide count before each dispatch, so
    /// a run with `w` workers (shards × threads) stops after at most
    /// `cap + w - 1` dispatches, and a serial run after exactly `cap`.
    /// Journal-replayed dispatches count. A safety valve for exploratory
    /// use on intractable skeletons.
    pub fn max_evaluations(mut self, cap: u64) -> Self {
        self.max_evaluations = Some(cap);
        self
    }

    /// Records a Figure-2-style per-run log in the report. Intended for
    /// single-threaded runs (with multiple threads the log order is
    /// nondeterministic).
    pub fn record_runs(mut self, record: bool) -> Self {
        self.record_runs = record;
        self
    }

    /// Dispatches candidates through per-worker [`CheckSession`]s (the
    /// default, and the only dispatch of a production build) or, with
    /// `false`, through one-shot checker runs: the per-candidate-restart
    /// reference, compiled only for tests and under the `reference`
    /// feature.
    ///
    /// Each synthesis worker holds one long-lived session per generation;
    /// because the candidate odometer varies the latest-discovered (deepest
    /// consulted) holes fastest, consecutive candidates share a deep BFS
    /// prefix and the session resumes from the deepest unchanged
    /// checkpoint, or replays the previous check's ending when the
    /// candidate changes no hole that check consulted. Every individual
    /// evaluation stays bit-identical to its one-shot counterpart (verdict,
    /// statistics, failure attribution), so the run log, pattern table,
    /// evaluated counts, and solution set are unchanged — only
    /// [`SynthStats::check_states_reused`], [`SynthStats::check_replays`]
    /// and wall time move.
    ///
    /// [`SynthStats::check_states_reused`]: crate::report::SynthStats::check_states_reused
    /// [`SynthStats::check_replays`]: crate::report::SynthStats::check_replays
    #[cfg(any(test, feature = "reference"))]
    pub fn reuse_sessions(mut self, reuse: bool) -> Self {
        self.reuse_sessions = reuse;
        self
    }

    /// Writes a crash-safe progress journal to `path` (see
    /// [`crate::journal`]): completed chunk ranges, learned patterns, and
    /// found solutions are appended as CRC-framed records, so a killed run
    /// resumes via [`Synthesizer::resume_from_journal`] (or by re-invoking
    /// [`crate::run_sharded`]) with its exact remaining candidate frontier.
    /// A run writes this one journal at any shard count.
    /// [`Synthesizer::try_run`] truncates any existing file at `path`.
    /// Journal I/O failures mid-run panic, and the panic propagates out of
    /// the run at every shard count (the journal *is* the crash-safety
    /// contract — continuing without it would silently void it);
    /// re-invoking the run resumes it from the journal.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// How many journaled chunk records may accumulate between `fsync`s
    /// (default 64). Generation boundaries and the final stop record always
    /// sync. Lower is more durable, higher is cheaper; at the default
    /// cadence a serial msi_large run makes about ten `sync_data` calls
    /// (creation, each generation start, one per 64 records, the stop
    /// record), and their latency is what the journal costs. Note
    /// the cadence only bounds what an *operating-system* crash can lose —
    /// a killed process loses nothing, because every record is written to
    /// the page cache at chunk completion and survives process death.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`; use
    /// [`SynthOptions::try_journal_fsync_every`] for a structured error.
    #[track_caller]
    pub fn journal_fsync_every(self, every: u64) -> Self {
        self.try_journal_fsync_every(every)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`SynthOptions::journal_fsync_every`].
    pub fn try_journal_fsync_every(mut self, every: u64) -> Result<Self, MckError> {
        if every == 0 {
            return Err(MckError::InvalidConfig {
                param: "journal_fsync_every",
                reason: "fsync cadence must be positive".into(),
            });
        }
        self.journal_fsync_every = every;
        Ok(self)
    }

    /// Stops the run gracefully once this much wall-clock time has elapsed,
    /// for the whole run, at any shard count (counted from the start of the
    /// run), reporting [`StopReason::Deadline`]. Enforced at the
    /// per-candidate dispatch sequence point, so in-flight evaluations
    /// finish and the journal stays chunk-consistent.
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Stops the run gracefully once the checker has committed this many
    /// states across all dispatches (expanded live plus reused from session
    /// checkpoints — the same total a one-shot run would expand), for the
    /// whole run, at any shard count, journal-replayed dispatches included;
    /// reports [`StopReason::StateBudget`].
    pub fn state_budget(mut self, states: u64) -> Self {
        self.state_budget = Some(states);
        self
    }

    /// An external stop request: when the flag becomes `true` (e.g. from a
    /// SIGINT handler), the run stops gracefully at the next dispatch
    /// sequence point, reporting [`StopReason::Interrupted`], and writes a
    /// final journal record if journaling.
    pub fn stop_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.stop_flag = Some(flag);
        self
    }
}

/// The explicit-state synthesis engine.
///
/// See the [crate-level documentation](crate) for a worked example.
#[derive(Debug, Clone, Default)]
pub struct Synthesizer {
    options: SynthOptions,
}

impl Synthesizer {
    /// Creates a synthesizer with the given options.
    pub fn new(options: SynthOptions) -> Self {
        Synthesizer { options }
    }

    /// Runs synthesis to completion on `model` and reports the results.
    ///
    /// # Panics
    ///
    /// Panics on configuration errors (a candidate space too large to
    /// enumerate, an unusable journal path); use [`Synthesizer::try_run`]
    /// for a structured error instead.
    #[track_caller]
    pub fn run<M: TransitionSystem>(&self, model: &M) -> SynthReport {
        self.try_run(model).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Synthesizer::run`]. When
    /// [`SynthOptions::journal`] is set, creates (truncating) the journal
    /// before starting.
    pub fn try_run<M: TransitionSystem>(&self, model: &M) -> Result<SynthReport, MckError> {
        crate::shard::coordinate(model, &self.options, &ShardOptions::default(), None, false)
            .map(|run| run.report)
    }

    /// Resumes a killed or budget-stopped run from its progress journal
    /// ([`SynthOptions::journal`] must point at it).
    ///
    /// The journal's longest valid prefix — a torn final record is expected
    /// after a crash and silently discarded — is replayed into the hole
    /// registry, pattern table, and solution set, completed chunk ranges
    /// are skipped, and enumeration continues exactly where it stopped: a
    /// serial resumed run is bit-identical (evaluated counts, pattern
    /// counts, solution set) to one that was never interrupted. A missing
    /// or empty journal simply starts fresh, so the same invocation works
    /// for the first attempt and every retry.
    ///
    /// # Errors
    ///
    /// Fails with [`MckError::JournalCorrupt`] if the journal belongs to a
    /// different model, was written under a different fingerprint
    /// (pruning, pattern mode, chunk size, enumeration strategy), or was
    /// written by a sharded run (its generations are split into a
    /// different number of slices) — budgets, caps, and thread counts may
    /// change freely between attempts.
    pub fn resume_from_journal<M: TransitionSystem>(
        &self,
        model: &M,
    ) -> Result<SynthReport, MckError> {
        if self.options.journal.is_none() {
            return Err(MckError::InvalidConfig {
                param: "journal",
                reason: "resume_from_journal requires SynthOptions::journal".into(),
            });
        }
        crate::shard::coordinate(model, &self.options, &ShardOptions::default(), None, true)
            .map(|run| run.report)
    }

    /// The option subset a journal is only valid under.
    fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            pruning: self.options.pruning,
            pattern_mode: self.options.pattern_mode,
            chunk_size: self.options.chunk_size,
            enumeration: self.options.enumeration,
        }
    }

    /// Opens the journal at `path` for a run of `model`: with `resume`, an
    /// existing journal is checked against the model and the fingerprint
    /// and reopened after its valid prefix; otherwise (or when there is
    /// nothing to resume) a fresh journal is created, truncating any file
    /// at `path`.
    pub(crate) fn open_journal(
        &self,
        model: &str,
        path: Option<&Path>,
        resume: bool,
    ) -> Result<(Option<JournalReplay>, Option<JournalWriter>), MckError> {
        let Some(path) = path else {
            return Ok((None, None));
        };
        let corrupt = |reason: String| MckError::JournalCorrupt { reason };
        let fsync_every = self.options.journal_fsync_every;
        let replay = if resume { journal::read(path)? } else { None };
        if let Some(replay) = replay {
            if replay.model != model {
                return Err(corrupt(format!(
                    "journal records model `{}`, not `{model}`",
                    replay.model
                )));
            }
            if replay.fingerprint != self.fingerprint() {
                return Err(corrupt(
                    "journal was written under different options (pruning, \
                     pattern mode, chunk size, or enumeration strategy)"
                        .into(),
                ));
            }
            let writer = JournalWriter::resume(path, replay.valid_len, fsync_every)
                .map_err(|e| corrupt(format!("cannot reopen `{}`: {e}", path.display())))?;
            return Ok((Some(replay), Some(writer)));
        }
        let writer = JournalWriter::create(path, model, &self.fingerprint(), fsync_every)
            .map_err(|e| corrupt(format!("cannot create `{}`: {e}", path.display())))?;
        Ok((None, Some(writer)))
    }
}

/// Journal writes are the crash-safety contract; failing one voids it, so
/// the run surfaces the error instead of silently continuing unjournaled.
fn journal_failed(e: std::io::Error) -> MckError {
    MckError::JournalCorrupt {
        reason: format!("journal write failed: {e}"),
    }
}

/// The number of candidates over the frontier `holes`, as the chunk
/// dispenser's u64. The generation space is never larger than u64 in
/// practice (MSI-large is ~1.2e9); fail loudly on a pathological skeleton.
pub(crate) fn candidate_count(holes: &[HoleInfo]) -> Result<(u128, u64), MckError> {
    let space = space_size(&holes.iter().map(|h| h.arity() as u32).collect::<Vec<_>>());
    let total = space.try_into().map_err(|_| MckError::InvalidConfig {
        param: "candidate space",
        reason: format!("generation space of {space} candidates exceeds the enumerable range"),
    })?;
    Ok((space, total))
}

/// State that belongs to the whole run, shared by every slice of every
/// round: the budget counters, the stop reason, the run log and the
/// journal. Because the counters exist once, `max_evaluations`, `deadline`
/// and `state_budget` hold for the whole run at any shard count.
pub(crate) struct Run {
    options: SynthOptions,
    checker: Checker,
    start: Instant,
    /// Absolute deadline derived from [`SynthOptions::deadline`].
    deadline_at: Option<Instant>,
    /// Model-checker dispatches, journal-replayed ones included; also
    /// numbers the run log.
    evaluations: AtomicU64,
    /// States committed by live checker exploration across all dispatches.
    check_expanded: AtomicU64,
    /// States inherited from session checkpoints instead of re-expanded.
    check_reused: AtomicU64,
    /// Session checks that replayed the previous check's ending. A cost
    /// measurement, not journaled: a resumed run counts only its own.
    check_replays: AtomicU64,
    stop: AtomicBool,
    /// Why `stop` was raised; meaningful only once `stop` is `true`.
    stop_reason: Mutex<StopReason>,
    run_log: Mutex<Vec<RunRecord>>,
    journal: Option<JournalWriter>,
}

impl Run {
    pub(crate) fn new(options: &SynthOptions, journal: Option<JournalWriter>) -> Self {
        // A thread count set directly on the checker options is honored too:
        // the effective per-dispatch parallelism is the larger of the two
        // knobs, never a silent reset.
        let mut options = options.clone();
        options.check_threads = options.check_threads.max(options.checker.thread_count());
        let start = Instant::now();
        Run {
            checker: Checker::new(options.checker.clone().threads(options.check_threads)),
            deadline_at: options.deadline.and_then(|d| start.checked_add(d)),
            start,
            options,
            evaluations: AtomicU64::new(0),
            check_expanded: AtomicU64::new(0),
            check_reused: AtomicU64::new(0),
            check_replays: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            stop_reason: Mutex::new(StopReason::Completed),
            run_log: Mutex::new(Vec::new()),
            journal,
        }
    }

    /// The graceful-stop sequence point, checked before every dispatch: the
    /// first exceeded budget wins, in external-signal-first order.
    fn stop_due(&self) -> Option<StopReason> {
        let opts = &self.options;
        if opts
            .stop_flag
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
        {
            return Some(StopReason::Interrupted);
        }
        if self.deadline_at.is_some_and(|d| Instant::now() >= d) {
            return Some(StopReason::Deadline);
        }
        if opts.state_budget.is_some_and(|budget| {
            let committed = self.check_expanded.load(Ordering::Relaxed)
                + self.check_reused.load(Ordering::Relaxed);
            committed >= budget
        }) {
            return Some(StopReason::StateBudget);
        }
        if opts
            .max_evaluations
            .is_some_and(|cap| self.evaluations.load(Ordering::Relaxed) >= cap)
        {
            return Some(StopReason::MaxEvaluations);
        }
        None
    }

    /// Raises the stop flag, recording `reason` if this call won the race.
    fn request_stop(&self, reason: StopReason) {
        if self
            .stop
            .compare_exchange(false, true, Ordering::Release, Ordering::Relaxed)
            .is_ok()
        {
            *self.stop_reason.lock() = reason;
        }
    }

    /// Why the run stopped: `Completed` unless a stop was raised.
    pub(crate) fn stop_reason(&self) -> StopReason {
        if self.stop.load(Ordering::Acquire) {
            *self.stop_reason.lock()
        } else {
            StopReason::Completed
        }
    }

    /// Runs one generation over the frontier `round.holes`: one slice per
    /// range of `round.ranges`, each through `enumerate` (which runs
    /// [`Slice::enumerate`] on the run's model) — inline for a single
    /// slice, on a thread each otherwise — and returns the generation's
    /// summed counters and the slice outcomes in slice order.
    ///
    /// A journaled generation must carry the same frontier and slice
    /// ranges; its segments seed the slices (and the run's budget
    /// counters), so a resumed generation goes through the very code a live
    /// one does. A panic escaping a slice worker propagates out of the run.
    pub(crate) fn round(
        &self,
        mut round: Round<'_>,
        enumerate: &Enumerate<'_>,
    ) -> Result<(GenStats, Vec<SliceOutcome>), MckError> {
        let corrupt = |reason: &str| MckError::JournalCorrupt {
            reason: reason.into(),
        };
        let k = round.holes.len();
        let (space, total) = candidate_count(round.holes)?;
        let chunks_total = total.max(1).div_ceil(self.options.chunk_size);
        let segments = match round.replay.take() {
            Some(gen) => {
                if (gen.k, gen.prev_k) != (k, round.prev_k) {
                    return Err(corrupt("journal does not describe this run's frontier"));
                }
                if gen.ranges != round.ranges {
                    return Err(corrupt(
                        "journal was written under a different partition (slice chunk \
                         ranges): resume with the shard count it was written with",
                    ));
                }
                gen.slices
            }
            None => {
                if let Some(j) = &self.journal {
                    j.gen_start(k, round.prev_k, round.ranges)
                        .map_err(journal_failed)?;
                }
                vec![Segment::default(); round.ranges.len()]
            }
        };
        // The journal's coverage of the generation, whichever slice ran a
        // chunk: a steal can move chunks of one slice's range to another.
        let mut covered = Vec::new();
        for seg in &segments {
            for &(first, count) in &seg.covered {
                journal::add_range(&mut covered, first, count);
            }
            self.evaluations.fetch_add(seg.evaluated, Ordering::Relaxed);
            self.check_expanded
                .fetch_add(seg.expanded, Ordering::Relaxed);
            self.check_reused.fetch_add(seg.reused, Ordering::Relaxed);
        }
        // Clamp exactly like `Odometer::over_range`: a dispatcher handing
        // out boundary ranges must not have to re-derive the space size.
        let ranges: Vec<(u64, u64)> = round
            .ranges
            .iter()
            .map(|&(start, end)| {
                let end = end.min(chunks_total);
                (start.min(end), end)
            })
            .collect();
        let pool = (ranges.len() > 1).then(|| Arc::new(StealPool::new(&ranges, round.steal)));
        let shape = Shape {
            radices: round.holes.iter().map(|h| h.arity() as u32).collect(),
            total,
            k,
            prev_k: round.prev_k,
            covered,
        };
        let slices: Vec<Slice<'_>> = segments
            .into_iter()
            .zip(&ranges)
            .enumerate()
            .map(|(i, (seg, &range))| {
                let dispenser = match &pool {
                    Some(pool) => ChunkClaims::Pool {
                        pool: Arc::clone(pool),
                        slot: i,
                    },
                    None => ChunkClaims::serial(range.0, range.1),
                };
                let exchange = round
                    .endpoint
                    .map(|e| ExchangeState::new(Arc::clone(e), round.first_shard + i));
                Slice::new(self, &shape, &round, i, range, seg, dispenser, exchange)
            })
            .collect();
        if let [slice] = &slices[..] {
            enumerate(slice);
        } else {
            let panics: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = slices
                    .iter()
                    .map(|slice| scope.spawn(move || enumerate(slice)))
                    .collect();
                handles.into_iter().filter_map(|h| h.join().err()).collect()
            });
            if let Some(payload) = panics.into_iter().next() {
                std::panic::resume_unwind(payload);
            }
        }

        let stop = self.stop_reason();
        let outcomes: Vec<SliceOutcome> = slices.into_iter().map(|s| s.finish(stop)).collect();
        let mut gen = GenStats {
            k,
            space,
            ..GenStats::default()
        };
        for o in &outcomes {
            gen.evaluated += o.gen.evaluated;
            gen.skipped_by_pruning += o.gen.skipped_by_pruning;
            gen.deduped += o.gen.deduped;
            gen.probes += o.gen.probes;
            gen.claims += o.gen.claims;
            gen.active_chunks += o.gen.active_chunks;
        }
        Ok((gen, outcomes))
    }

    /// Journals the run's stop reason (a no-op without a journal).
    pub(crate) fn close_journal(&self) -> Result<(), MckError> {
        match &self.journal {
            Some(j) => j.stop(self.stop_reason()).map_err(journal_failed),
            None => Ok(()),
        }
    }

    /// Ends the run: journals the stop reason and assembles the report from
    /// the merged results.
    pub(crate) fn finish(self, model: &str, merged: Merged) -> Result<SynthReport, MckError> {
        self.close_journal()?;
        let stop = self.stop_reason();
        let generations = merged.generations;
        let (patterns_dense, patterns_sparse) = (merged.patterns.dense, merged.patterns.sparse);
        let stats = SynthStats {
            evaluated: generations.iter().map(|g| g.evaluated).sum(),
            skipped_by_pruning: generations.iter().map(|g| g.skipped_by_pruning).sum(),
            patterns: patterns_dense + patterns_sparse,
            patterns_dense,
            patterns_sparse,
            probes: generations.iter().map(|g| g.probes).sum(),
            generations,
            wall: self.start.elapsed(),
            truncated: stop != StopReason::Completed,
            stop,
            quarantined: merged.quarantined.len() as u64,
            check_states_expanded: self.check_expanded.load(Ordering::Relaxed),
            check_states_reused: self.check_reused.load(Ordering::Relaxed),
            check_replays: self.check_replays.load(Ordering::Relaxed),
        };
        Ok(SynthReport {
            model: model.to_owned(),
            holes: merged.holes,
            solutions: merged.solutions,
            stats,
            run_log: self.run_log.into_inner(),
            quarantined: merged.quarantined,
        })
    }
}

/// Everything the merge has accumulated: the run's results so far.
#[derive(Debug, Default)]
pub(crate) struct Merged {
    /// The frontier of the next round: every hole, in merged order.
    pub holes: Vec<HoleInfo>,
    pub patterns: PatternLog,
    pub solutions: Vec<Solution>,
    pub quarantined: Vec<Quarantined>,
    pub generations: Vec<GenStats>,
}

impl Merged {
    /// Merges one slice's outcome of the round over frontier width `k`, in
    /// slice order. The slice named the holes it first saw by its own ids
    /// `k..`; they join the merged holes by name, and the slice's solutions
    /// (which can name them in naïve mode) are translated to merged ids.
    /// Patterns and quarantined digits only reference the frontier.
    pub(crate) fn merge(&mut self, k: usize, outcome: &SliceOutcome) {
        let ids: Vec<HoleId> = outcome
            .discovered
            .iter()
            .map(
                |hole| match self.holes.iter().position(|h| h.name == hole.name) {
                    Some(id) => id,
                    None => {
                        self.holes.push(hole.clone());
                        self.holes.len() - 1
                    }
                },
            )
            .collect();
        for entry in &outcome.patterns {
            self.patterns.file(Arc::clone(entry));
        }
        for solution in &outcome.solutions {
            let mut assignment: Vec<(HoleId, u16)> = solution
                .assignment
                .iter()
                .map(|&(h, a)| (if h < k { h } else { ids[h - k] }, a))
                .collect();
            assignment.sort_unstable();
            if !self.solutions.iter().any(|s| s.assignment == assignment) {
                self.solutions.push(Solution {
                    assignment,
                    ..solution.clone()
                });
            }
        }
        for q in &outcome.quarantined {
            if !self.quarantined.iter().any(|x| x.digits == q.digits) {
                self.quarantined.push(q.clone());
            }
        }
    }
}

/// Runs one slice's workers against the run's model: the one step of a
/// round that depends on the model type (see [`Slice::enumerate`]), so the
/// loop around it is compiled once, not once per model.
pub(crate) type Enumerate<'m> = dyn Fn(&Slice<'_>) + Sync + 'm;

/// One generation as handed to [`Run::round`].
pub(crate) struct Round<'r> {
    /// The frontier: every hole known at round start, in merged order.
    pub holes: &'r [HoleInfo],
    pub prev_k: usize,
    /// One chunk-index range `[start, end)` per slice.
    pub ranges: &'r [(u64, u64)],
    /// The run's merged patterns: the base of every slice's hub.
    pub patterns: &'r PatternLog,
    /// The run's merged solutions, which slices do not report again.
    pub solutions: &'r [Solution],
    /// The journal's record of this generation, when resuming.
    pub replay: Option<GenReplay>,
    /// Cross-slice pattern exchange; slice `i` joins as shard
    /// `first_shard + i`.
    pub endpoint: Option<&'r Arc<dyn PatternExchange>>,
    pub first_shard: usize,
    /// Whether a slice that runs dry steals from its peers' ranges.
    pub steal: bool,
}

/// What every slice of a round shares: the frontier geometry and the
/// journal's coverage of the generation.
struct Shape {
    radices: Vec<u32>,
    /// The generation space as the chunk dispenser's u64.
    total: u64,
    k: usize,
    prev_k: usize,
    /// Chunk-index ranges the journal already covers (sorted, disjoint).
    covered: Vec<(u64, u64)>,
}

impl Shape {
    /// Naïve mode's dedup rule: a candidate whose new digits (holes
    /// `prev_k..k`) are all action 0 is identical to one the previous
    /// generation evaluated, since undiscovered holes default to action 0.
    fn repeats_last_generation(&self, digits: &[u16]) -> bool {
        self.k > self.prev_k && digits[self.prev_k..self.k].iter().all(|&x| x == 0)
    }
}

/// Everything one slice of one generation produced. Hole ids at or beyond
/// the frontier `k` are the slice's own and index `discovered`.
pub(crate) struct SliceOutcome {
    /// The slice's counters over its own candidate range.
    pub gen: GenStats,
    /// Holes the slice first saw, in its discovery order.
    pub discovered: Vec<HoleInfo>,
    /// Patterns the slice learned itself (journal-replayed ones included;
    /// imported ones excluded — their origin slices report them).
    pub patterns: Vec<Arc<journal::PatternEntry>>,
    /// Solutions new to the run.
    pub solutions: Vec<Solution>,
    pub quarantined: Vec<Quarantined>,
    pub stop: StopReason,
    pub check_expanded: u64,
    pub check_reused: u64,
}

/// One slice of one generation: a chunk-index range of the frontier's
/// candidate space, and the state its workers share — the slice's hole
/// registry (the frontier, then the holes the slice first sees), its
/// pattern hub over the run's merged patterns, its finds and counters.
pub(crate) struct Slice<'r> {
    run: &'r Run,
    shape: &'r Shape,
    /// The slice's position in the generation (its journal slot).
    index: u32,
    range: (u64, u64),
    registry: HoleRegistry,
    /// How many of the registry's holes the journal already records.
    journaled_holes: AtomicUsize,
    hub: PatternHub<'r>,
    merged_solutions: &'r [Solution],
    solutions: Mutex<Vec<Solution>>,
    quarantined: Mutex<Vec<Quarantined>>,
    exchange: Option<ExchangeState>,
    dispenser: ChunkClaims,
    evaluated: AtomicU64,
    skipped: AtomicU64,
    deduped: AtomicU64,
    probes: AtomicU64,
    /// Dispenser operations that claimed at least one chunk.
    claims: AtomicU64,
    /// Chunks with at least one evaluation.
    active_chunks: AtomicU64,
    check_expanded: AtomicU64,
    check_reused: AtomicU64,
}

impl<'r> Slice<'r> {
    /// Seeds a slice from the round and its journal segment: the segment's
    /// holes follow the frontier in the registry, so ids keep the meaning
    /// the journaled patterns and solutions gave them.
    #[allow(clippy::too_many_arguments)] // internal plumbing, one call site
    fn new(
        run: &'r Run,
        shape: &'r Shape,
        round: &Round<'r>,
        index: usize,
        range: (u64, u64),
        seg: Segment,
        dispenser: ChunkClaims,
        exchange: Option<ExchangeState>,
    ) -> Self {
        let registry = HoleRegistry::new();
        for h in round.holes.iter().chain(&seg.holes) {
            registry.resolve_or_register(&HoleSpec::new(&h.name, h.actions.iter().cloned()));
        }
        let hub = PatternHub::over(round.patterns);
        // This slice's own journaled patterns are local, so a resumed slice
        // still reports and re-broadcasts its pre-crash learnings.
        hub.seed_local(seg.patterns);
        Slice {
            run,
            shape,
            index: index as u32,
            range,
            journaled_holes: AtomicUsize::new(registry.len()),
            registry,
            hub,
            merged_solutions: round.solutions,
            solutions: Mutex::new(seg.solutions),
            quarantined: Mutex::new(seg.quarantined),
            exchange,
            dispenser,
            evaluated: AtomicU64::new(seg.evaluated),
            skipped: AtomicU64::new(seg.skipped),
            deduped: AtomicU64::new(seg.deduped),
            probes: AtomicU64::new(seg.probes),
            claims: AtomicU64::new(0),
            active_chunks: AtomicU64::new(0),
            check_expanded: AtomicU64::new(seg.expanded),
            check_reused: AtomicU64::new(seg.reused),
        }
    }

    /// The slice's candidate range `[lo, hi)`.
    fn candidates(&self) -> (u64, u64) {
        let chunk = self.run.options.chunk_size;
        let at = |c: u64| c.saturating_mul(chunk).min(self.shape.total);
        (at(self.range.0), at(self.range.1))
    }

    /// Runs the slice's workers over every chunk of its range the journal
    /// does not cover (and, from a steal pool, over peers' remainders).
    pub(crate) fn enumerate<M: TransitionSystem>(&self, model: &M) {
        let (start, end) = self.range;
        if journal::uncovered_from(&self.shape.covered, start) >= end {
            // Already covered by the journal: mark the slot consumed so
            // peers do not steal and re-run chunks we can replay.
            if let ChunkClaims::Pool { pool, slot } = &self.dispenser {
                pool.close(*slot);
            }
        } else {
            let (lo, hi) = self.candidates();
            let threads = self
                .run
                .options
                .threads
                .min(usize::try_from((hi - lo).min(64)).expect("bounded by 64"))
                .max(1);
            if threads == 1 {
                worker(model, self);
            } else {
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        scope.spawn(|| worker(model, self));
                    }
                });
            }
        }
        // Final exchange beat: everything learned after the last in-loop
        // pump still reaches peers that are still enumerating.
        if let Some(x) = &self.exchange {
            x.pump(&self.hub, self.shape.k);
        }
    }

    fn finish(self, stop: StopReason) -> SliceOutcome {
        let (lo, hi) = self.candidates();
        SliceOutcome {
            gen: GenStats {
                k: self.shape.k,
                space: (hi - lo) as u128,
                evaluated: self.evaluated.into_inner(),
                skipped_by_pruning: self.skipped.into_inner() as u128,
                deduped: self.deduped.into_inner(),
                probes: self.probes.into_inner(),
                claims: self.claims.into_inner(),
                active_chunks: self.active_chunks.into_inner(),
            },
            discovered: self.registry.snapshot().split_off(self.shape.k),
            patterns: self.hub.into_locals(),
            solutions: self.solutions.into_inner(),
            quarantined: self.quarantined.into_inner(),
            stop,
            check_expanded: self.check_expanded.into_inner(),
            check_reused: self.check_reused.into_inner(),
        }
    }

    /// Banks a chunk's counters into the slice totals (also called for
    /// partial chunks on a graceful stop, so the report stays accurate even
    /// though only completed chunks are journaled).
    fn bank(&self, draft: &ChunkDraft) {
        self.evaluated.fetch_add(draft.evaluated, Ordering::Relaxed);
        self.skipped.fetch_add(draft.skipped, Ordering::Relaxed);
        self.deduped.fetch_add(draft.deduped, Ordering::Relaxed);
        self.probes.fetch_add(draft.probes, Ordering::Relaxed);
    }

    /// Banks one dispatch's checker work, into the slice and the run.
    fn bank_check(&self, expanded: u64, reused: u64, replays: u64) {
        self.check_expanded.fetch_add(expanded, Ordering::Relaxed);
        self.check_reused.fetch_add(reused, Ordering::Relaxed);
        let run = self.run;
        run.check_expanded.fetch_add(expanded, Ordering::Relaxed);
        run.check_reused.fetch_add(reused, Ordering::Relaxed);
        run.check_replays.fetch_add(replays, Ordering::Relaxed);
    }

    /// Candidates in the chunk range `[first, first + count)`.
    fn chunk_candidates(&self, first: u64, count: u64) -> u64 {
        let chunk = self.run.options.chunk_size;
        let at = |c: u64| c.saturating_mul(chunk).min(self.shape.total.max(1));
        at(first + count) - at(first)
    }

    /// Journals a completed chunk (a no-op without a journal).
    fn journal_chunk(&self, draft: ChunkDraft) {
        if let Some(j) = &self.run.journal {
            // Workers cannot return errors through the claim loop; a failed
            // journal write voids the crash-safety contract, so fail loudly.
            j.chunk(&self.registry, &self.journaled_holes, draft)
                .unwrap_or_else(|e| panic!("journal write failed: {e}"));
        }
    }
}

/// A slice's connection to the cross-slice pattern exchange: the endpoint,
/// this slice's identity on it, and the export cursor into the hub log.
/// Pumped with the hub sync at every chunk boundary.
struct ExchangeState {
    endpoint: Arc<dyn PatternExchange>,
    shard: usize,
    /// Export cursor into the hub's own log (locally-published entries
    /// only).
    cursor: Mutex<usize>,
    /// Monotonic sequence number for published batches.
    seq: AtomicU64,
}

impl ExchangeState {
    fn new(endpoint: Arc<dyn PatternExchange>, shard: usize) -> Self {
        ExchangeState {
            endpoint,
            shard,
            cursor: Mutex::new(0),
            seq: AtomicU64::new(0),
        }
    }

    /// One exchange beat: exports locally-learned patterns published since
    /// the last beat, then imports every batch peers published since this
    /// slice's last poll. Imports go through [`PatternHub::import`], which
    /// files them on the hub log — workers then merge them into their local
    /// tables and propagators via the ordinary sync path, so an imported
    /// pattern invalidates the guided odometer's masks exactly like a local
    /// insert. `width` is the frontier `k`: entries referencing holes at or
    /// beyond it (a malformed or stale peer batch) are dropped on import,
    /// since no candidate in this generation constrains them.
    fn pump(&self, hub: &PatternHub<'_>, width: usize) {
        let batch = {
            let mut cursor = self.cursor.lock();
            hub.export_locals(&mut cursor)
        };
        if !batch.is_empty() {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            self.endpoint.publish(PatternBatch {
                shard: self.shard as u32,
                seq,
                patterns: batch.into_iter().map(Into::into).collect(),
            });
        }
        for batch in self.endpoint.poll(self.shard) {
            hub.import(batch.patterns.into_iter().map(Into::into), width);
        }
    }
}

/// Chunk-index dispenser for one slice's workers: either a plain serial
/// counter over the slice's range (the one-slice case), or the slice's slot
/// in the cross-slice [`StealPool`] (whose range can shrink when a finished
/// peer steals half of it).
///
/// Both kinds take the journal's coverage (`covered`: sorted, disjoint,
/// merged chunk ranges) into every claim: [`ChunkClaims::claim`] steps over
/// a whole covered range in one advance, and
/// [`ChunkClaims::claim_refuted`] never crosses one.
pub(crate) enum ChunkClaims {
    Serial { next: AtomicU64, end: u64 },
    Pool { pool: Arc<StealPool>, slot: usize },
}

/// A claimed chunk index, and the end of the claimable run it was taken
/// from: the dispenser's end at claim time, or the next journal-covered
/// chunk if that comes first. The guided walk searches for the next
/// consistent candidate up to `limit`, never past it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Claim {
    pub idx: u64,
    pub limit: u64,
}

impl ChunkClaims {
    pub(crate) fn serial(start: u64, end: u64) -> Self {
        ChunkClaims::Serial {
            next: AtomicU64::new(start),
            end,
        }
    }

    /// Claims the next uncovered chunk index, or `None` when the range
    /// (and, for a pooled slice, every stealable peer remainder) is
    /// exhausted.
    pub(crate) fn claim(&self, covered: &[(u64, u64)]) -> Option<Claim> {
        match self {
            ChunkClaims::Serial { next, end } => {
                let mut n = next.load(Ordering::Relaxed);
                loop {
                    let idx = journal::uncovered_from(covered, n);
                    if idx >= *end {
                        return None;
                    }
                    match next.compare_exchange_weak(
                        n,
                        idx + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            let limit = journal::next_covered(covered, idx + 1).min(*end);
                            return Some(Claim { idx, limit });
                        }
                        Err(current) => n = current,
                    }
                }
            }
            ChunkClaims::Pool { pool, slot } => pool.claim(*slot, covered),
        }
    }

    /// Claims, in one step, the unclaimed chunks of `[from, through)` that
    /// directly follow the dispenser's cursor: every chunk there is refuted
    /// by the caller's patterns, so whoever claims it only banks its skip
    /// count. Returns the claimed `(first, count)`, or `None` when the
    /// cursor lies outside the range. Clamped to the dispenser's current
    /// end (a thief may have taken a pool slot's tail) and to the next
    /// journal-covered chunk.
    pub(crate) fn claim_refuted(
        &self,
        from: u64,
        through: u64,
        covered: &[(u64, u64)],
    ) -> Option<(u64, u64)> {
        match self {
            ChunkClaims::Serial { next, end } => {
                let mut n = next.load(Ordering::Relaxed);
                loop {
                    let stop = through.min(*end).min(journal::next_covered(covered, n));
                    if n < from || n >= stop {
                        return None;
                    }
                    match next.compare_exchange_weak(n, stop, Ordering::Relaxed, Ordering::Relaxed)
                    {
                        Ok(_) => return Some((n, stop - n)),
                        Err(current) => n = current,
                    }
                }
            }
            ChunkClaims::Pool { pool, slot } => pool.claim_refuted(*slot, from, through, covered),
        }
    }
}

/// One worker: opens its per-generation [`CheckSession`] and runs the
/// chunk-claiming evaluation loop over its thread-local [`Propagator`],
/// which holds every pattern the slice's hub does.
///
/// A finished chunk's walk runs on past the chunk to the next consistent
/// candidate `t`, searching up to the claim's [`Claim::limit`]. Every chunk
/// wholly below `t` is refuted by this worker's own patterns — and patterns
/// only grow — so the worker claims them all in one dispenser step and
/// journals them as one refuted run, at any thread or shard count. Nothing
/// in the run is evaluated, so the skip count grows by exactly its
/// candidates and serial counts are those of a chunk-by-chunk walk. Every
/// completed range goes straight to the journal writer, which coalesces
/// adjacent inactive ranges itself.
fn worker<M: TransitionSystem>(model: &M, slice: &Slice<'_>) {
    let opts = &slice.run.options;
    let shape = slice.shape;
    let mut session = slice.run.checker.session(model);
    let mut propagator = Propagator::new();
    let mut log_cursor = 0usize;
    let total = shape.total.max(1);
    let chunk = opts.chunk_size;

    while !slice.run.stop.load(Ordering::Acquire) {
        let Some(Claim { idx, limit }) = slice.dispenser.claim(&shape.covered) else {
            return;
        };
        slice.claims.fetch_add(1, Ordering::Relaxed);
        let lo = idx.saturating_mul(chunk);
        let hi = lo.saturating_add(chunk).min(total);
        let search_end = limit.saturating_mul(chunk).min(total);
        if opts.pruning {
            // Pattern-log sync (and the exchange beat) at every chunk
            // boundary: publication is immediate, and this is the pull.
            if let Some(exchange) = &slice.exchange {
                exchange.pump(&slice.hub, shape.k);
            }
            slice.hub.sync_into(&mut propagator, &mut log_cursor);
        }

        // Everything this chunk produces accumulates here and is journaled
        // atomically when the chunk completes; a chunk abandoned mid-way
        // (stop request, kill) leaves no journal trace and is re-run on
        // resume against the same pattern-table state it started from.
        let mut draft = ChunkDraft::new(shape.k as u64, slice.index, idx);
        let next = match opts.enumeration {
            Enumeration::Guided => run_chunk_guided(
                slice,
                lo,
                hi,
                search_end,
                &mut propagator,
                &mut session,
                &mut draft,
            ),
            #[cfg(any(test, feature = "reference"))]
            Enumeration::Lexicographic => {
                run_chunk_lex(slice, lo, hi, &mut propagator, &mut session, &mut draft)
            }
        };

        slice.bank(&draft);
        if draft.evaluated > 0 {
            slice.active_chunks.fetch_add(1, Ordering::Relaxed);
        }
        // A stop request interrupted the chunk: its partial counters are
        // banked (for the report) but never journaled.
        let Some(next) = next else { return };
        slice.journal_chunk(draft);

        // Every chunk below `through` and past this one holds no consistent
        // candidate; a search that ran out refutes the partial last chunk
        // too.
        let through = if next >= search_end {
            limit
        } else {
            next / chunk
        };
        if through <= idx + 1 {
            continue;
        }
        if let Some((first, count)) =
            slice
                .dispenser
                .claim_refuted(idx + 1, through, &shape.covered)
        {
            slice.claims.fetch_add(1, Ordering::Relaxed);
            let run = ChunkDraft::refuted(
                shape.k as u64,
                slice.index,
                first,
                count,
                slice.chunk_candidates(first, count),
            );
            slice.bank(&run);
            slice.journal_chunk(run);
        }
    }
}

/// The walk over one chunk's candidate range `[lo, hi)`: the propagator
/// jumps the odometer straight to each next consistent candidate, so the
/// walk visits exactly the candidates a lexicographic walk filtered by the
/// same pattern table visits — only the probe cost differs. A naïve run's
/// table stays empty and refutes nothing; there a candidate that repeats
/// one of the previous generation is deduped instead of evaluated. The
/// walk's last seek runs on past `hi`, up to `search_end`, and its landing
/// index — the next consistent candidate, or `search_end` if there is none
/// — is returned; `None` if a stop request interrupted the chunk.
fn run_chunk_guided<M: TransitionSystem>(
    slice: &Slice<'_>,
    lo: u64,
    hi: u64,
    search_end: u64,
    propagator: &mut Propagator,
    session: &mut CheckSession<'_, M>,
    draft: &mut ChunkDraft,
) -> Option<u64> {
    // The walk stays warm across chunk boundaries: most chunks hold a
    // single enumeration node, so a cold restart per chunk would pay the
    // same from-root probe skip-counting pays and forfeit the entire
    // guided advantage. The price is that a chunk's probe count depends on
    // the propagator's memo — probes are a *cost measurement* (like wall
    // time), not a result: a resumed run reproduces evaluations, patterns,
    // and solutions bit-identically but may re-measure a slightly
    // different probe total, since its first live chunk starts from a cold
    // memo.
    let (run, shape) = (slice.run, slice.shape);
    let probes_before = propagator.probes();
    let mut od = GuidedOdometer::over_range(
        shape.radices.clone(),
        lo as u128,
        search_end as u128,
        propagator,
    );
    let next = loop {
        // The CEGIS propose step: jump past everything the learned
        // patterns refute. Only the part of the jump inside this chunk is
        // this chunk's skip count; the caller banks the rest.
        let from = od.index() as u64;
        od.seek_consistent();
        let at = od.index() as u64;
        draft.skipped += at.min(hi) - from;
        if at >= hi {
            break Some(at);
        }
        if run.stop.load(Ordering::Acquire) {
            break None;
        }
        let digits = od.current().expect("candidate below the search end");
        if !run.options.pruning && shape.repeats_last_generation(digits) {
            draft.deduped += 1;
            od.advance();
            continue;
        }
        // The graceful-stop sequence point: budgets, deadlines, caps,
        // and external interrupts all take effect between dispatches,
        // never inside one.
        if let Some(reason) = run.stop_due() {
            run.request_stop(reason);
            break None;
        }
        let digits = digits.to_vec();
        evaluate_candidate(slice, digits, session, od.propagator_mut(), draft);
        od.advance();
    };
    draft.probes += od.propagator_mut().probes() - probes_before;
    next
}

/// The lexicographic reference walk over one chunk's candidate range
/// `[lo, hi)`: it probes the pattern table from the root at every candidate
/// and skips each matched subtree. It never searches past its chunk, so it
/// claims chunk by chunk: returns `Some(hi)`, or `None` if a stop request
/// interrupted the chunk.
#[cfg(any(test, feature = "reference"))]
fn run_chunk_lex<M: TransitionSystem>(
    slice: &Slice<'_>,
    lo: u64,
    hi: u64,
    propagator: &mut Propagator,
    session: &mut CheckSession<'_, M>,
    draft: &mut ChunkDraft,
) -> Option<u64> {
    let (run, shape) = (slice.run, slice.shape);
    let mut scratch = Vec::new();
    let mut od = Odometer::over_range(shape.radices.clone(), lo as u128, hi as u128);
    while let Some(digits) = od.current() {
        if run.stop.load(Ordering::Acquire) {
            return None;
        }
        if run.options.pruning {
            // One incremental cursor walk over all prefix depths; a hit at
            // depth `d` skips the entire subtree below it in O(1).
            let hit = propagator
                .table()
                .first_pruned_depth_in(digits, shape.k, &mut scratch);
            // The walk consults depths `0..=d` (or all `0..=k` on a miss).
            draft.probes += hit.unwrap_or(shape.k) as u64 + 1;
            if let Some(d) = hit {
                draft.skipped += od.skip_subtree(d) as u64;
                continue;
            }
        } else if shape.repeats_last_generation(digits) {
            draft.deduped += 1;
            if !od.advance() {
                break;
            }
            continue;
        }
        if let Some(reason) = run.stop_due() {
            run.request_stop(reason);
            return None;
        }
        evaluate_candidate(slice, digits.to_vec(), session, propagator, draft);
        if !od.advance() {
            break;
        }
    }
    Some(hi)
}

/// Dispatches one candidate to the model checker and files the result —
/// into the slice and run state immediately, and into the chunk `draft`
/// for the journal.
fn evaluate_candidate<M: TransitionSystem>(
    slice: &Slice<'_>,
    digits: Vec<u16>,
    session: &mut CheckSession<'_, M>,
    propagator: &mut Propagator,
    draft: &mut ChunkDraft,
) {
    let run = slice.run;
    let opts = &run.options;
    let known_before = slice.registry.len();
    let default = if opts.pruning {
        DiscoveryDefault::Wildcard
    } else {
        DiscoveryDefault::ActionZero
    };
    let resolver = SharedCandidateResolver::new(&slice.registry, &digits, default);
    let (outcome, touched) = dispatch(slice, session, resolver, draft);
    let number = run.evaluations.fetch_add(1, Ordering::Relaxed) + 1;
    draft.evaluated += 1;

    let mut pattern_added = false;
    match outcome.verdict() {
        Verdict::Failure => {
            if opts.pruning {
                let entry = match opts.pattern_mode {
                    PatternMode::Exact => PatternEntry::Prefix(digits.clone()),
                    PatternMode::Refined => {
                        // Prefer the checker's failure-attributed set (the
                        // paper's Cₜ: resolutions along the counterexample
                        // trace); fall back to everything this run consulted
                        // for whole-space failures (unreachable goals,
                        // quiescence), where only full agreement is sound.
                        let relevant = outcome
                            .failure()
                            .and_then(|f| f.touched.as_deref())
                            .unwrap_or(&touched);
                        PatternEntry::Sparse(relevant.iter().map(|&(h, a)| (h as u16, a)).collect())
                    }
                };
                pattern_added = slice.hub.publish(&entry, propagator);
                if pattern_added {
                    draft.patterns.push(entry);
                }
            }
        }
        Verdict::Success => {
            let mut assignment: Vec<(HoleId, u16)> = touched.clone();
            assignment.sort_unstable();
            let known = |s: &Solution| s.assignment == assignment;
            let mut solutions = slice.solutions.lock();
            if !slice.merged_solutions.iter().any(known) && !solutions.iter().any(known) {
                let solution = Solution {
                    assignment,
                    visited_states: outcome.stats().states_visited,
                    transitions: outcome.stats().transitions,
                };
                solutions.push(solution.clone());
                draft.solutions.push(solution);
            }
        }
        Verdict::Unknown => {
            // A panic in the candidate's own protocol code was converted to
            // a structured error by the checker's isolation layer: the
            // candidate is quarantined (excluded from patterns and
            // solutions) and the search continues.
            if let Some(MckError::CandidatePanicked { message }) = outcome.incomplete() {
                let q = Quarantined {
                    digits: digits.clone(),
                    message: message.clone(),
                };
                slice.quarantined.lock().push(q.clone());
                draft.quarantined.push(q);
            }
        }
    }

    if opts.record_runs {
        let wildcards = known_before.saturating_sub(slice.shape.k);
        let discovered = slice.registry.names_from(known_before);
        run.run_log.lock().push(RunRecord {
            run: number,
            candidate: CandidateVec::from_digits(&digits, wildcards),
            verdict: outcome.verdict(),
            pattern_added,
            discovered,
        });
    }
}

/// Checks one candidate on the worker's session and banks the checker work
/// into the slice, the run and `draft`. The session resumes from its
/// deepest checkpoint whose hole resolutions the candidate leaves
/// unchanged; verdict and failure attribution are those of a fresh check.
/// Returns the outcome and the hole-id-sorted touched set: the live
/// consultations plus those of the checkpoint-reused layers, which a fresh
/// check would have made itself (answers agree by the checkpoint validity
/// rule).
fn dispatch<M: TransitionSystem>(
    slice: &Slice<'_>,
    session: &mut CheckSession<'_, M>,
    resolver: SharedCandidateResolver<'_>,
    draft: &mut ChunkDraft,
) -> (Outcome<M::State>, Vec<(HoleId, u16)>) {
    #[cfg(any(test, feature = "reference"))]
    if !slice.run.options.reuse_sessions {
        // The per-candidate-restart reference: one fresh check from the
        // initial states, the session left untouched.
        let outcome = slice.run.checker.run_shared(session.model(), &resolver);
        let expanded = outcome.stats().states_visited as u64;
        slice.bank_check(expanded, 0, 0);
        draft.expanded += expanded;
        return (outcome, resolver.into_touched());
    }
    let before = session.stats().clone();
    let outcome = session.check(&resolver);
    // Bank the session's reuse counters per candidate (a panicked check
    // resets the session, discarding its partial work — saturate).
    let after = session.stats();
    let expanded = after.states_expanded.saturating_sub(before.states_expanded);
    let reused = after.states_reused.saturating_sub(before.states_reused);
    slice.bank_check(
        expanded,
        reused,
        after.checks_replayed - before.checks_replayed,
    );
    draft.expanded += expanded;
    draft.reused += reused;
    let mut touched = resolver.into_touched();
    touched.extend(session.reused_touches());
    touched.sort_unstable();
    touched.dedup_by_key(|pair| pair.0);
    (outcome, touched)
}

/// Where a slice hub's pattern came from. Only [`Origin::Local`] entries
/// are exported over the cross-slice exchange (foreign entries arrived
/// *from* it, so re-broadcasting them would echo forever) and merged into
/// the run's patterns at round end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Published by this slice's own workers (or replayed from its journal
    /// segment after a crash).
    Local,
    /// Imported from a peer slice via the exchange.
    Foreign,
}

/// Sorts and de-duplicates a sparse pattern as
/// [`crate::PatternTable::insert_sparse`] normalizes it, so equal patterns hash
/// equal.
fn normalized(mut entry: PatternEntry) -> PatternEntry {
    if let PatternEntry::Sparse(pairs) = &mut entry {
        pairs.sort_unstable();
        pairs.dedup();
    }
    entry
}

fn merge_into(local: &mut Propagator, entry: &PatternEntry) {
    match entry {
        PatternEntry::Prefix(p) => local.insert_prefix(p),
        PatternEntry::Sparse(s) => local.insert_sparse(s.clone()),
    };
}

/// The run's merged pruning patterns, each distinct pattern stored once, in
/// merge order. Every slice's hub reads it as its base; the merge files the
/// slices' own patterns into it at round end.
#[derive(Debug, Default)]
pub(crate) struct PatternLog {
    seen: FnvHashSet<Arc<PatternEntry>>,
    log: Vec<Arc<PatternEntry>>,
    dense: usize,
    sparse: usize,
}

impl PatternLog {
    /// Files a pattern; returns whether it was new.
    pub(crate) fn file(&mut self, entry: Arc<PatternEntry>) -> bool {
        let fresh = self.seen.insert(Arc::clone(&entry));
        if fresh {
            match *entry {
                PatternEntry::Prefix(_) => self.dense += 1,
                PatternEntry::Sparse(_) => self.sparse += 1,
            }
            self.log.push(entry);
        }
        fresh
    }

    /// Files an entry from outside the run (a seed), normalizing it first.
    pub(crate) fn seed(&mut self, entry: PatternEntry) {
        self.file(Arc::new(normalized(entry)));
    }
}

/// A slice's pruning-pattern hub: the run's merged patterns (`base`,
/// read-only while the round runs) followed by an append-only log of what
/// the slice learned or imported since. Workers replay both, in that order,
/// into their thread-local tables; the de-duplication sets decide what is
/// new. Each distinct pattern is stored once: a set's entry and its log's
/// share one allocation, and the merge moves it into the base.
#[derive(Debug)]
struct PatternHub<'r> {
    base: &'r PatternLog,
    inner: Mutex<HubInner>,
}

#[derive(Debug, Default)]
struct HubInner {
    seen: FnvHashSet<Arc<PatternEntry>>,
    log: Vec<(Arc<PatternEntry>, Origin)>,
}

impl<'r> PatternHub<'r> {
    fn over(base: &'r PatternLog) -> Self {
        PatternHub {
            base,
            inner: Mutex::default(),
        }
    }

    /// Logs `entry` if neither the base nor this hub has it; returns
    /// whether it was new.
    fn file(&self, inner: &mut HubInner, entry: PatternEntry, origin: Origin) -> bool {
        let entry = normalized(entry);
        if self.base.seen.contains(&entry) {
            return false;
        }
        let entry = Arc::new(entry);
        let fresh = inner.seen.insert(Arc::clone(&entry));
        if fresh {
            inner.log.push((entry, origin));
        }
        fresh
    }

    /// Publishes a pattern a worker learned; merges it into `local` as
    /// well. Returns whether the pattern was new to the run.
    fn publish(&self, entry: &PatternEntry, local: &mut Propagator) -> bool {
        merge_into(local, entry);
        self.file(&mut self.inner.lock(), entry.clone(), Origin::Local)
    }

    /// Replays the hub from `*cursor` on — the base, then this slice's log,
    /// regardless of origin — into `local`: a worker's propagator must hold
    /// everything the hub knows, imported patterns included.
    fn sync_into(&self, local: &mut Propagator, cursor: &mut usize) {
        let base = &self.base.log;
        for entry in base.get(*cursor..).unwrap_or(&[]) {
            merge_into(local, entry);
        }
        let inner = self.inner.lock();
        let from = cursor.saturating_sub(base.len());
        for (entry, _) in &inner.log[from..] {
            merge_into(local, entry);
        }
        *cursor = base.len() + inner.log.len();
    }

    /// Seeds the slice's journaled patterns (before any worker starts) as
    /// `Local`, so a resumed slice still reports and re-exports them.
    fn seed_local(&self, entries: Vec<PatternEntry>) {
        let mut inner = self.inner.lock();
        for entry in entries {
            self.file(&mut inner, entry, Origin::Local);
        }
    }

    /// Imports peer-slice patterns: new-to-this-hub entries join the log
    /// as `Foreign`, from where the ordinary worker sync merges them into
    /// every local table and propagator. Entries referencing holes at or
    /// beyond `width` (the frontier `k`) are dropped — no candidate in this
    /// generation constrains those holes, and a well-formed peer at the
    /// same frontier never sends them.
    fn import(&self, entries: impl Iterator<Item = PatternEntry>, width: usize) {
        let mut inner = self.inner.lock();
        for entry in entries {
            let in_range = match &entry {
                PatternEntry::Prefix(p) => p.len() <= width,
                PatternEntry::Sparse(s) => s.iter().all(|&(h, _)| (h as usize) < width),
            };
            if in_range {
                self.file(&mut inner, entry, Origin::Foreign);
            }
        }
    }

    /// Drains `Local` log entries past `cursor` for export to peer slices.
    fn export_locals(&self, cursor: &mut usize) -> Vec<PatternEntry> {
        let inner = self.inner.lock();
        let out = inner.log[*cursor..]
            .iter()
            .filter(|(_, origin)| *origin == Origin::Local)
            .map(|(entry, _)| (**entry).clone())
            .collect();
        *cursor = inner.log.len();
        out
    }

    /// Every `Local` entry, in log order — what the slice hands the merge.
    fn into_locals(self) -> Vec<Arc<PatternEntry>> {
        self.inner
            .into_inner()
            .log
            .into_iter()
            .filter(|(_, origin)| *origin == Origin::Local)
            .map(|(entry, _)| entry)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verc3_mck::GraphModel;

    #[test]
    fn fig2_pruning_run_matches_paper() {
        let model = GraphModel::worked_example();
        let report = Synthesizer::new(SynthOptions::default().record_runs(true)).run(&model);

        assert_eq!(report.holes().len(), 4);
        assert_eq!(report.naive_candidate_space(), 24);
        assert_eq!(report.stats().evaluated, 10, "paper: 10 runs with pruning");
        assert_eq!(report.stats().patterns, 5, "paper: 5 pruning patterns");
        assert_eq!(report.solutions().len(), 1);
        let sol = &report.solutions()[0];
        assert_eq!(
            sol.display_named(report.holes()),
            "⟨ 1@B, 2@A, 3@B, 4@B ⟩",
            "paper: the unique solution of the worked example"
        );
    }

    #[test]
    fn fig2_run_log_details() {
        let model = GraphModel::worked_example();
        let report = Synthesizer::new(SynthOptions::default().record_runs(true)).run(&model);
        let log = report.run_log();
        assert_eq!(log.len(), 10);
        let display: Vec<String> = log
            .iter()
            .map(|r| r.candidate.display_named(report.holes()))
            .collect();
        assert_eq!(
            display,
            vec![
                "⟨ ⟩",
                "⟨ 1@A ⟩",
                "⟨ 1@B ⟩",
                "⟨ 1@C, 2@? ⟩",
                "⟨ 1@B, 2@A ⟩",
                "⟨ 1@B, 2@B, 3@? ⟩",
                "⟨ 1@B, 2@A, 3@A ⟩",
                "⟨ 1@B, 2@A, 3@B ⟩",
                "⟨ 1@B, 2@A, 3@B, 4@A ⟩",
                "⟨ 1@B, 2@A, 3@B, 4@B ⟩",
            ],
            "run sequence must match the paper's Figure 2 exactly"
        );
        let patterns: Vec<bool> = log.iter().map(|r| r.pattern_added).collect();
        assert_eq!(
            patterns,
            vec![false, true, false, true, false, true, true, false, true, false]
        );
        let discovered: Vec<Vec<String>> = log.iter().map(|r| r.discovered.clone()).collect();
        assert_eq!(discovered[0], vec!["1"]);
        assert_eq!(discovered[2], vec!["2"]);
        assert_eq!(discovered[4], vec!["3"]);
        assert_eq!(discovered[7], vec!["4"]);
    }

    #[test]
    fn fig2_naive_evaluates_full_product() {
        let model = GraphModel::worked_example();
        let report = Synthesizer::new(SynthOptions::default().pruning(false)).run(&model);
        assert_eq!(report.stats().evaluated, 24, "naïve: the full product");
        assert_eq!(report.stats().patterns, 0);
        assert_eq!(report.solutions().len(), 1);
        assert_eq!(
            report.solutions()[0].display_named(report.holes()),
            "⟨ 1@B, 2@A, 3@B, 4@B ⟩"
        );
    }

    #[test]
    fn refined_patterns_never_increase_evaluations() {
        for seed in 0..20 {
            let model = GraphModel::random(seed, 6, 3);
            let exact = Synthesizer::new(SynthOptions::default()).run(&model);
            let refined =
                Synthesizer::new(SynthOptions::default().pattern_mode(PatternMode::Refined))
                    .run(&model);
            assert!(
                refined.stats().evaluated <= exact.stats().evaluated,
                "seed {seed}: refined {} > exact {}",
                refined.stats().evaluated,
                exact.stats().evaluated
            );
            assert_eq!(
                solution_set(&refined),
                solution_set(&exact),
                "seed {seed}: solution sets must agree"
            );
        }
    }

    #[test]
    fn pruned_and_naive_agree_on_random_models() {
        for seed in 100..130 {
            let model = GraphModel::random(seed, 5, 3);
            let pruned = Synthesizer::new(SynthOptions::default()).run(&model);
            let naive = Synthesizer::new(SynthOptions::default().pruning(false)).run(&model);
            assert_eq!(
                solution_set(&pruned),
                solution_set(&naive),
                "seed {seed}: pruning must not change the solution set"
            );
            assert!(pruned.stats().evaluated <= naive.stats().evaluated.max(1) * 2);
        }
    }

    #[test]
    fn parallel_agrees_with_sequential() {
        for seed in 200..210 {
            let model = GraphModel::random(seed, 6, 3);
            let seq = Synthesizer::new(SynthOptions::default()).run(&model);
            let par = Synthesizer::new(SynthOptions::default().threads(4)).run(&model);
            assert_eq!(
                solution_set(&par),
                solution_set(&seq),
                "seed {seed}: parallel must find the same solutions"
            );
        }
    }

    #[test]
    fn fig2_is_exact_under_parallel_checks() {
        // Per-check parallelism must not disturb the candidate sequencing:
        // the checker is verdict- and attribution-identical at any thread
        // count, so even the paper's exact Figure-2 run log is preserved.
        let model = GraphModel::worked_example();
        let serial = Synthesizer::new(SynthOptions::default().record_runs(true)).run(&model);
        let par = Synthesizer::new(SynthOptions::default().record_runs(true).check_threads(4))
            .run(&model);
        assert_eq!(par.stats().evaluated, serial.stats().evaluated);
        assert_eq!(par.stats().patterns, serial.stats().patterns);
        let fmt = |r: &SynthReport| -> Vec<String> {
            r.run_log()
                .iter()
                .map(|rec| rec.candidate.display_named(r.holes()))
                .collect()
        };
        assert_eq!(fmt(&par), fmt(&serial), "identical run sequence");
    }

    #[test]
    fn parallel_checks_agree_with_serial_checks() {
        for seed in 300..310 {
            let model = GraphModel::random(seed, 6, 3);
            for mode in [PatternMode::Exact, PatternMode::Refined] {
                let seq = Synthesizer::new(SynthOptions::default().pattern_mode(mode)).run(&model);
                let par =
                    Synthesizer::new(SynthOptions::default().pattern_mode(mode).check_threads(4))
                        .run(&model);
                assert_eq!(
                    par.stats().evaluated,
                    seq.stats().evaluated,
                    "seed {seed}: same dispatch count"
                );
                assert_eq!(
                    solution_set(&par),
                    solution_set(&seq),
                    "seed {seed}: same solutions"
                );
            }
        }
    }

    #[test]
    fn check_threads_match_serial_resolver_effects() {
        // Commit-replay satellite: speculative expansion work the replay
        // step discards (rule applications past a failing state's
        // short-circuit point, aborted claim-table attempts) must leave no
        // trace in hole registration, per-run discovery logs, touched
        // sets, or pattern publications. With a single synthesis worker,
        // the *entire* Figure-2-style run log is therefore bit-identical
        // at any checker thread count — including on failing runs and on
        // runs clamped by `max_states` (verdict `Unknown`), on both the
        // session and one-shot dispatch paths.
        let fmt = |r: &SynthReport| -> Vec<String> {
            r.run_log()
                .iter()
                .map(|rec| {
                    format!(
                        "{} {:?} {} {:?}",
                        rec.candidate.display_named(r.holes()),
                        rec.verdict,
                        rec.pattern_added,
                        rec.discovered
                    )
                })
                .collect()
        };
        for pruning in [true, false] {
            for max_states in [usize::MAX, 12] {
                for reuse in [true, false] {
                    for seed in [600, 601, 602] {
                        let model = GraphModel::random(seed, 6, 3);
                        let run = |threads: usize| {
                            let checker = CheckerOptions::default()
                                .max_states(max_states)
                                .clamp_threads(false);
                            Synthesizer::new(
                                SynthOptions::default()
                                    .record_runs(true)
                                    .pruning(pruning)
                                    .pattern_mode(PatternMode::Refined)
                                    .reuse_sessions(reuse)
                                    .checker(checker)
                                    .check_threads(threads),
                            )
                            .run(&model)
                        };
                        let serial = run(1);
                        let par = run(4);
                        let names = |r: &SynthReport| -> Vec<String> {
                            r.holes().iter().map(|h| h.name.clone()).collect()
                        };
                        let what =
                            format!("pruning {pruning} seed {seed} cap {max_states} reuse {reuse}");
                        assert_eq!(names(&par), names(&serial), "{what}: registration order");
                        assert_eq!(fmt(&par), fmt(&serial), "{what}: run log");
                        assert_eq!(
                            solution_set(&par),
                            solution_set(&serial),
                            "{what}: solutions"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn both_parallelism_axes_compose() {
        for seed in 400..405 {
            let model = GraphModel::random(seed, 6, 3);
            let seq = Synthesizer::new(SynthOptions::default()).run(&model);
            let par =
                Synthesizer::new(SynthOptions::default().threads(2).check_threads(2)).run(&model);
            assert_eq!(solution_set(&par), solution_set(&seq), "seed {seed}");
        }
    }

    #[test]
    fn pattern_counts_split_by_kind() {
        let model = GraphModel::worked_example();
        let exact = Synthesizer::new(SynthOptions::default()).run(&model);
        assert_eq!(exact.stats().patterns_dense, exact.stats().patterns);
        assert_eq!(exact.stats().patterns_sparse, 0);

        let refined = Synthesizer::new(SynthOptions::default().pattern_mode(PatternMode::Refined))
            .run(&model);
        assert_eq!(refined.stats().patterns_dense, 0);
        assert_eq!(refined.stats().patterns_sparse, refined.stats().patterns);
    }

    #[test]
    fn session_reuse_accounting_balances_against_one_shot() {
        let model = GraphModel::worked_example();
        let one_shot = Synthesizer::new(SynthOptions::default().reuse_sessions(false)).run(&model);
        let sessions = Synthesizer::new(SynthOptions::default()).run(&model);
        assert_eq!(sessions.stats().evaluated, one_shot.stats().evaluated);
        assert_eq!(sessions.stats().patterns, one_shot.stats().patterns);
        assert_eq!(one_shot.stats().check_states_reused, 0);
        assert!(one_shot.stats().check_states_expanded > 0);
        // Every state a one-shot run expands is, under sessions, either
        // expanded live or inherited from a checkpoint — nothing vanishes.
        assert_eq!(
            sessions.stats().check_states_expanded + sessions.stats().check_states_reused,
            one_shot.stats().check_states_expanded,
        );
        assert!(
            sessions.stats().check_states_reused > 0,
            "fig2 shares prefixes"
        );
        assert!(sessions.stats().check_reuse_rate() > 0.0);
        assert_eq!(sessions.model_name(), "fig2");
        assert_eq!(one_shot.stats().check_replays, 0);

        // The naïve sweep replays whole checks: a candidate that changes
        // only holes the previous check never consulted expands nothing.
        let naive = |reuse| {
            Synthesizer::new(SynthOptions::default().pruning(false).reuse_sessions(reuse))
                .run(&model)
        };
        let (one_shot, sessions) = (naive(false), naive(true));
        assert_eq!(one_shot.stats().check_replays, 0);
        assert!(sessions.stats().check_replays > 0);
        assert_eq!(
            sessions.stats().check_states_expanded + sessions.stats().check_states_reused,
            one_shot.stats().check_states_expanded,
        );
        assert_eq!(sessions.solutions(), one_shot.solutions());
    }

    #[test]
    fn max_evaluations_truncates() {
        let model = GraphModel::worked_example();
        let report = Synthesizer::new(SynthOptions::default().max_evaluations(3)).run(&model);
        assert!(report.stats().truncated);
        assert!(report.stats().evaluated <= 4);
    }

    /// Drains a dispenser the way workers do — claim a chunk, then maybe
    /// claim a refuted run after it up to a pseudo-random bound — and
    /// returns every chunk index it handed out, in claim order.
    fn drain(claims: &ChunkClaims, covered: &[(u64, u64)], seed: u64) -> Vec<u64> {
        let mut rng = seed;
        let mut out = Vec::new();
        while let Some(Claim { idx, limit }) = claims.claim(covered) {
            assert!(idx < limit, "claim {idx} outside its limit {limit}");
            out.push(idx);
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let through = idx + 1 + (rng >> 33) % 9;
            if let Some((first, count)) = claims.claim_refuted(idx + 1, through, covered) {
                assert!(count > 0 && first > idx && first + count <= through);
                out.extend(first..first + count);
            }
        }
        out
    }

    #[test]
    fn serial_claims_step_over_covered_ranges_and_stop_at_them() {
        let covered = [(3, 4), (10, 2)];
        let claims = ChunkClaims::serial(0, 20);
        assert_eq!(claims.claim(&covered), Some(Claim { idx: 0, limit: 3 }));
        // A refuted run stops at the first covered chunk.
        assert_eq!(claims.claim_refuted(1, 9, &covered), Some((1, 2)));
        // The covered range [3, 7) is stepped over in one claim.
        assert_eq!(claims.claim(&covered), Some(Claim { idx: 7, limit: 10 }));
        // A run that does not start at the cursor claims nothing.
        assert_eq!(claims.claim_refuted(9, 12, &covered), None);
        assert_eq!(claims.claim_refuted(8, 12, &covered), Some((8, 2)));
        assert_eq!(claims.claim(&covered), Some(Claim { idx: 12, limit: 20 }));
        // Clamped to the dispenser's end.
        assert_eq!(claims.claim_refuted(13, 99, &covered), Some((13, 7)));
        assert_eq!(claims.claim(&covered), None);
        assert_eq!(claims.claim_refuted(20, 99, &covered), None);
    }

    #[test]
    fn racing_serial_claimers_bank_every_chunk_exactly_once() {
        let covered = [(40, 25), (300, 1)];
        let claims = ChunkClaims::serial(0, 500);
        let mut all: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|seed| {
                    let (claims, covered) = (&claims, &covered);
                    scope.spawn(move || drain(claims, covered, seed))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        all.sort_unstable();
        let expected: Vec<u64> = (0..500)
            .filter(|&c| !(40..65).contains(&c) && c != 300)
            .collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn pooled_claims_clamp_to_a_slot_a_thief_shortened() {
        let pool = Arc::new(crate::shard::StealPool::new(&[(0, 100), (100, 100)], true));
        let owner = ChunkClaims::Pool {
            pool: Arc::clone(&pool),
            slot: 0,
        };
        let thief = ChunkClaims::Pool {
            pool: Arc::clone(&pool),
            slot: 1,
        };
        assert_eq!(owner.claim(&[]), Some(Claim { idx: 0, limit: 100 }));
        // Slot 1 is empty: its first claim steals the tail half [51, 100).
        assert_eq!(
            thief.claim(&[]),
            Some(Claim {
                idx: 51,
                limit: 100
            })
        );
        // The owner searched to 100, but only [1, 51) is still its own.
        assert_eq!(owner.claim_refuted(1, 100, &[]), Some((1, 50)));
        assert_eq!(thief.claim_refuted(52, 60, &[(55, 5)]), Some((52, 3)));
        assert_eq!(
            thief.claim(&[(55, 5)]),
            Some(Claim {
                idx: 60,
                limit: 100
            })
        );
        // The owner's slot is exhausted: it steals from the thief's tail.
        assert_eq!(
            owner.claim(&[]),
            Some(Claim {
                idx: 81,
                limit: 100
            })
        );
    }

    #[test]
    fn racing_pooled_claimers_bank_every_chunk_exactly_once() {
        let ranges = [(0u64, 200), (200, 210), (210, 210), (210, 400)];
        let covered = [(150, 30), (390, 10)];
        let pool = Arc::new(crate::shard::StealPool::new(&ranges, true));
        let mut all: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..ranges.len() * 2)
                .map(|t| {
                    let claims = ChunkClaims::Pool {
                        pool: Arc::clone(&pool),
                        slot: t % ranges.len(),
                    };
                    scope.spawn(move || drain(&claims, &covered, t as u64))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        all.sort_unstable();
        let expected: Vec<u64> = (0..400)
            .filter(|&c| !(150..180).contains(&c) && !(390..400).contains(&c))
            .collect();
        assert_eq!(all, expected);
    }

    /// Hole ids are assigned in discovery order, which differs between
    /// pruning and naïve modes (naïve defaults explore deeper, discovering
    /// holes earlier); compare solutions by hole *name*.
    fn solution_set(report: &SynthReport) -> std::collections::BTreeSet<Vec<(String, u16)>> {
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
}
