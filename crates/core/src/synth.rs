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
//! Parallel synthesis (paper §II, *Parallel Synthesis*) runs a generation
//! on worker threads that share its one [`HoleRegistry`] and one pattern
//! hub. The generation's chunk space is split into one contiguous slot per
//! worker, and a worker that drains its slot steals the tail half of the
//! largest remaining one. Pruning patterns propagate through the hub's
//! append-only log, which workers sync from at every chunk boundary — so
//! "each thread \[can\] make use of another thread's registered patterns as
//! soon as they become available". A serial run is the one-slot case.
//!
//! ## One loop
//!
//! Both entry points, [`Synthesizer::try_run`] and
//! [`Synthesizer::resume_from_journal`], run the same generation loop. What
//! belongs to the run exists once and every generation shares it: the
//! budget counters (evaluations, committed states, the deadline counted
//! from the start of the run, the stop reason), the run log and the
//! journal. What belongs to a generation exists once per generation, shared
//! by its workers: the hole registry (the frontier, then the holes the
//! workers first see), the pattern hub over the run's patterns, the chunk
//! dispenser and the finds.

use crate::candidate::CandidateVec;
use crate::hole::{HoleId, HoleInfo, HoleRegistry};
use crate::journal::{
    self, ChunkDraft, Fingerprint, GenReplay, JournalReplay, JournalWriter, PatternEntry,
};
#[cfg(any(test, feature = "reference"))]
use crate::odometer::Odometer;
use crate::odometer::{space_size, GuidedOdometer};
use crate::pattern::{PatternMode, Propagator};
use crate::report::{
    GenStats, Quarantined, RunRecord, Solution, StopReason, SynthReport, SynthStats,
};
use crate::resolver::{DiscoveryDefault, SharedCandidateResolver};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::path::PathBuf;
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
    /// Every generation splits its chunk space into one contiguous slot per
    /// worker, and a worker that drains its slot steals the tail half of the
    /// largest remaining one. The workers share the generation's hole
    /// registry and pattern hub, so a pattern one worker learns prunes every
    /// worker's candidates from its next chunk on. The solution set does not
    /// depend on the count; evaluated counts do, since a worker may evaluate
    /// a doomed candidate before a peer's pattern reaches it. The journal
    /// records which chunks are covered, not which worker covered them, so
    /// a run may resume at any thread count.
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

    /// Model-checker options used for every candidate evaluation.
    ///
    /// Their thread count ([`CheckerOptions::threads`], default 1) is the
    /// number of checker worker threads *per candidate evaluation*: the
    /// second parallelism axis, orthogonal to [`SynthOptions::threads`].
    /// Cross-candidate threads scale with the width of the candidate space;
    /// per-check threads scale with the size of a single candidate's state
    /// space, and are the only axis that helps when few candidates are in
    /// flight (small generations, the pruning-dense tail of a run, or plain
    /// golden-model verification). The two compose — `threads(t)` workers
    /// each drive `c` checker workers, so budget `t * c` against the
    /// available cores.
    ///
    /// Every individual evaluation is verdict-, statistics-, and
    /// failure-attribution-identical to its serial counterpart (the
    /// parallel checker's commit walk guarantees it). The equivalence
    /// extends to **all resolver effects** in both discovery modes:
    /// expansion workers consult through provisional handles whose touches
    /// stay thread-local, and only the applications the walk commits
    /// publish hole touches, failure attributions, and first discoveries —
    /// in walk order, the serial driver's within-layer consultation order.
    /// This covers the naïve baseline (`pruning(false)`) too: its fresh
    /// `(hole, action 0)` consultations are answered from the deferred
    /// pending list and committed at the same sequence point, so neither
    /// mode registers racily. Speculative work the walk discards (rule
    /// applications past a failing state's short-circuit point, chunks of
    /// an aborted claim-table attempt) leaves no trace, so the ordered hole
    /// table, the per-run `discovered` logs, and the touched sets feeding
    /// [`PatternMode::Refined`] are a pure function of the candidate
    /// sequence, independent of worker interleaving: the exact Figure-2 run
    /// log survives 4 checker threads (`fig2_is_exact_under_parallel_checks`;
    /// full run-log and registry equality on failing and state-capped runs
    /// is pinned by `check_threads_match_serial_resolver_effects` below —
    /// which covers naïve mode as well — and `tests/session_equivalence.rs`).
    pub fn checker(mut self, options: CheckerOptions) -> Self {
        self.checker = options;
        self
    }

    /// Number of candidates a worker claims per dispensing step (default
    /// 32). Part of the journal fingerprint: resuming requires the same
    /// chunk size the journal was written with. Results do not depend on
    /// it (`tests/chunk_size_sweep.rs`), so it is a test hook, compiled
    /// only for tests and under the `reference` feature.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`; use [`SynthOptions::try_chunk_size`] for a
    /// structured error instead.
    #[cfg(any(test, feature = "reference"))]
    #[track_caller]
    pub fn chunk_size(self, size: u64) -> Self {
        self.try_chunk_size(size).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`SynthOptions::chunk_size`].
    #[cfg(any(test, feature = "reference"))]
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

    /// Stops the run (marking the report truncated) after this many
    /// model-checker dispatches, for the whole run: every worker checks the
    /// one run-wide count before each dispatch, so a run with `t` threads
    /// stops after at most `cap + t - 1` dispatches, and a serial run after
    /// exactly `cap`.
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
    /// [`SynthStats::check_states_reused`], [`SynthStats::check_replays`],
    /// [`SynthStats::check_expansions_reused`] and wall time move.
    ///
    /// [`SynthStats::check_states_reused`]: crate::report::SynthStats::check_states_reused
    /// [`SynthStats::check_replays`]: crate::report::SynthStats::check_replays
    /// [`SynthStats::check_expansions_reused`]: crate::report::SynthStats::check_expansions_reused
    #[cfg(any(test, feature = "reference"))]
    pub fn reuse_sessions(mut self, reuse: bool) -> Self {
        self.reuse_sessions = reuse;
        self
    }

    /// Writes a crash-safe progress journal to `path` (see
    /// [`crate::journal`]): completed chunk ranges, learned patterns, and
    /// found solutions are appended as CRC-framed records, so a killed run
    /// resumes via [`Synthesizer::resume_from_journal`], at any thread count,
    /// with its exact remaining candidate frontier.
    /// [`Synthesizer::try_run`] truncates any existing file at `path`.
    /// Journal I/O failures mid-run panic, and the panic propagates out of
    /// the run at every thread count (the journal *is* the crash-safety
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
    /// counted from the start of the run, reporting
    /// [`StopReason::Deadline`]. Enforced at the per-candidate dispatch
    /// sequence point, so in-flight evaluations finish and the journal
    /// stays chunk-consistent.
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Stops the run gracefully once the checker has committed this many
    /// states across all dispatches (expanded live plus reused from session
    /// checkpoints — the same total a one-shot run would expand), for the
    /// whole run, journal-replayed dispatches included; reports
    /// [`StopReason::StateBudget`].
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
        self.synthesize(model, false)
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
    /// for the first attempt and every retry. The journal records which
    /// chunks are covered, not which worker covered them, so budgets, caps
    /// and thread counts may change freely between attempts.
    ///
    /// # Errors
    ///
    /// Fails with [`MckError::JournalCorrupt`] if the journal belongs to a
    /// different model, was written under a different fingerprint
    /// (pruning, pattern mode, chunk size, enumeration strategy), names a
    /// hole, action or candidate width outside the generation that records
    /// it, or was written by a sharded run of an older build (its
    /// generations list more than one chunk range).
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
        self.synthesize(model, true)
    }

    /// The synthesis loop behind both entry points. With `resume`, an
    /// existing journal is replayed; otherwise it is truncated.
    fn synthesize<M: TransitionSystem>(
        &self,
        model: &M,
        resume: bool,
    ) -> Result<SynthReport, MckError> {
        let enumerate = |gen: &Generation<'_>| gen.enumerate(model);
        self.drive(model.name(), resume, &enumerate)
    }

    /// [`Synthesizer::synthesize`] past its one model-typed step,
    /// `enumerate`: one generation per frontier, until a generation
    /// discovers no hole or a budget stops the run.
    fn drive(
        &self,
        model: &str,
        resume: bool,
        enumerate: &Enumerate<'_>,
    ) -> Result<SynthReport, MckError> {
        let (replay, writer) = self.open_journal(model, resume)?;
        let mut journaled = replay.map(|r| r.gens).unwrap_or_default().into_iter();
        let run = Run::new(&self.options, writer);
        let mut merged = Merged::default();
        let mut prev_k = 0;
        loop {
            let k = merged.holes.len();
            let outcome = run.generation(&merged, prev_k, journaled.next(), enumerate)?;
            merged.merge(outcome);
            if run.stop_reason() != StopReason::Completed || merged.holes.len() == k {
                break;
            }
            prev_k = k;
        }
        run.finish(model, merged)
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

    /// Opens the configured journal for a run of `model`: with `resume`, an
    /// existing journal is checked against the model and the fingerprint
    /// and reopened after its valid prefix; otherwise (or when there is
    /// nothing to resume) a fresh journal is created, truncating any file
    /// at the path.
    fn open_journal(
        &self,
        model: &str,
        resume: bool,
    ) -> Result<(Option<JournalReplay>, Option<JournalWriter>), MckError> {
        let Some(path) = self.options.journal.as_deref() else {
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
fn candidate_count(holes: &[HoleInfo]) -> Result<u64, MckError> {
    let space = space_size(&holes.iter().map(|h| h.arity() as u32).collect::<Vec<_>>());
    space.try_into().map_err(|_| MckError::InvalidConfig {
        param: "candidate space",
        reason: format!("generation space of {space} candidates exceeds the enumerable range"),
    })
}

/// Refuses a journaled generation whose records do not fit it, before any
/// of them reaches a registry, a propagator or the report. Over frontier
/// `0..k`, the journal's holes must be new, distinct and have actions; its
/// solutions may name the frontier and those holes; its patterns and
/// quarantined candidates only the frontier.
fn check_replay(replay: &GenReplay, frontier: &[HoleInfo]) -> Result<(), MckError> {
    let k = frontier.len();
    let holes: Vec<&HoleInfo> = frontier.iter().chain(&replay.holes).collect();
    let fits = |h: usize, a: u16, width: usize| h < width && usize::from(a) < holes[h].arity();
    let refuse = |what: &str| {
        Err(MckError::JournalCorrupt {
            reason: format!("journal generation at frontier width {k} {what}"),
        })
    };
    let mut names = HashSet::new();
    if !holes.iter().all(|h| names.insert(h.name.as_str())) {
        return refuse("lists a hole twice");
    }
    if replay.holes.iter().any(|h| h.actions.is_empty()) {
        return refuse("lists a hole without actions");
    }
    let solutions_fit = replay
        .solutions
        .iter()
        .all(|s| s.assignment.iter().all(|&(h, a)| fits(h, a, holes.len())));
    if !solutions_fit {
        return refuse("has a solution naming an unknown hole or action");
    }
    let patterns_fit = replay.patterns.iter().all(|p| match p {
        PatternEntry::Prefix(digits) => {
            digits.len() <= k && digits.iter().enumerate().all(|(h, &a)| fits(h, a, k))
        }
        PatternEntry::Sparse(pairs) => pairs.iter().all(|&(h, a)| fits(h.into(), a, k)),
    });
    if !patterns_fit {
        return refuse("has a pattern outside its frontier");
    }
    if replay.quarantined.iter().any(|q| q.digits.len() != k) {
        return refuse("quarantines a candidate of another width");
    }
    Ok(())
}

/// State that belongs to the whole run, shared by every generation and its
/// workers: the budget counters, the stop reason, the run log and the
/// journal. Because the counters exist once, `max_evaluations`, `deadline`
/// and `state_budget` hold for the whole run at any thread count.
struct Run {
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
    /// States whose expansion a session check took from an expansion
    /// record; not journaled either.
    check_expansions_reused: AtomicU64,
    stop: AtomicBool,
    /// Why `stop` was raised; meaningful only once `stop` is `true`.
    stop_reason: Mutex<StopReason>,
    run_log: Mutex<Vec<RunRecord>>,
    journal: Option<JournalWriter>,
}

impl Run {
    fn new(options: &SynthOptions, journal: Option<JournalWriter>) -> Self {
        let options = options.clone();
        let start = Instant::now();
        Run {
            checker: Checker::new(options.checker.clone()),
            deadline_at: options.deadline.and_then(|d| start.checked_add(d)),
            start,
            options,
            evaluations: AtomicU64::new(0),
            check_expanded: AtomicU64::new(0),
            check_reused: AtomicU64::new(0),
            check_replays: AtomicU64::new(0),
            check_expansions_reused: AtomicU64::new(0),
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
    fn stop_reason(&self) -> StopReason {
        if self.stop.load(Ordering::Acquire) {
            *self.stop_reason.lock()
        } else {
            StopReason::Completed
        }
    }

    /// Runs one generation over the frontier `merged.holes` through
    /// `enumerate` (which runs [`Generation::enumerate`] on the run's
    /// model) and returns what it produced.
    ///
    /// A journaled generation must describe the same frontier and chunk
    /// count, and its records must fit that frontier ([`check_replay`]);
    /// they seed the generation (and the run's budget counters), so a
    /// resumed generation goes through the very code a live one does. A
    /// panic escaping a worker propagates out of the run.
    fn generation(
        &self,
        merged: &Merged,
        prev_k: usize,
        replay: Option<GenReplay>,
        enumerate: &Enumerate<'_>,
    ) -> Result<GenOutcome, MckError> {
        let k = merged.holes.len();
        let total = candidate_count(&merged.holes)?;
        let chunks = total.max(1).div_ceil(self.options.chunk_size);
        let replay = match replay {
            Some(replay) => {
                if (replay.k, replay.prev_k, replay.chunks) != (k, prev_k, chunks) {
                    return Err(MckError::JournalCorrupt {
                        reason: "journal does not describe this run's frontier".into(),
                    });
                }
                check_replay(&replay, &merged.holes)?;
                replay
            }
            None => {
                if let Some(j) = &self.journal {
                    j.gen_start(k, prev_k, chunks).map_err(journal_failed)?;
                }
                GenReplay::default()
            }
        };
        self.evaluations
            .fetch_add(replay.evaluated, Ordering::Relaxed);
        self.check_expanded
            .fetch_add(replay.expanded, Ordering::Relaxed);
        self.check_reused
            .fetch_add(replay.reused, Ordering::Relaxed);
        let gen = Generation::new(self, merged, prev_k, total, chunks, replay);
        enumerate(&gen);
        Ok(gen.finish())
    }

    /// Ends the run: journals the stop reason and assembles the report from
    /// the merged results.
    fn finish(self, model: &str, merged: Merged) -> Result<SynthReport, MckError> {
        let stop = self.stop_reason();
        if let Some(j) = &self.journal {
            j.stop(stop).map_err(journal_failed)?;
        }
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
            check_expansions_reused: self.check_expansions_reused.load(Ordering::Relaxed),
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

/// The run's results so far, and the next generation's inputs.
#[derive(Debug, Default)]
struct Merged {
    /// The frontier of the next generation: every hole, in discovery order.
    holes: Vec<HoleInfo>,
    patterns: PatternLog,
    solutions: Vec<Solution>,
    quarantined: Vec<Quarantined>,
    generations: Vec<GenStats>,
}

impl Merged {
    /// Appends one generation's outcome. Its holes follow the frontier in
    /// its registry, so every id it hands over already means the same hole
    /// here; its solutions and quarantined candidates are new to the run.
    fn merge(&mut self, outcome: GenOutcome) {
        self.holes.extend(outcome.discovered);
        for entry in outcome.patterns {
            self.patterns.file(entry);
        }
        self.solutions.extend(outcome.solutions);
        self.quarantined.extend(outcome.quarantined);
        self.generations.push(outcome.gen);
    }
}

/// Runs one generation's workers against the run's model: the one step of
/// the loop that depends on the model type (see [`Generation::enumerate`]),
/// so the loop around it is compiled once, not once per model.
type Enumerate<'m> = dyn Fn(&Generation<'_>) + Sync + 'm;

/// Everything one generation produced.
struct GenOutcome {
    gen: GenStats,
    /// Holes the generation first saw, in discovery order.
    discovered: Vec<HoleInfo>,
    /// Patterns the generation learned, journal-replayed ones included.
    patterns: Vec<Arc<PatternEntry>>,
    /// Solutions new to the run.
    solutions: Vec<Solution>,
    quarantined: Vec<Quarantined>,
}

/// One generation: the frontier's candidate space, claimed chunk by chunk
/// from one steal pool, and the state its workers share — the hole
/// registry (the frontier, then the holes the workers first see), the
/// pattern hub over the run's patterns, the finds and the counters.
struct Generation<'r> {
    run: &'r Run,
    radices: Vec<u32>,
    /// The generation's candidate count.
    total: u64,
    k: usize,
    prev_k: usize,
    /// Chunk-index ranges the journal already covers (sorted, disjoint).
    covered: Vec<(u64, u64)>,
    registry: HoleRegistry,
    /// How many of the registry's holes the journal already records.
    journaled_holes: AtomicUsize,
    hub: PatternHub<'r>,
    /// The run's solutions from earlier generations, not reported again.
    known_solutions: &'r [Solution],
    solutions: Mutex<Vec<Solution>>,
    quarantined: Mutex<Vec<Quarantined>>,
    /// The chunk dispenser: one slot per worker.
    pool: StealPool,
    evaluated: AtomicU64,
    skipped: AtomicU64,
    deduped: AtomicU64,
    probes: AtomicU64,
    /// Dispenser operations that claimed at least one chunk.
    claims: AtomicU64,
    /// Chunks with at least one evaluation.
    active_chunks: AtomicU64,
}

impl<'r> Generation<'r> {
    /// Seeds a generation from the run's results and its journal replay:
    /// the replay's holes follow the frontier in the registry, so ids keep
    /// the meaning the journaled patterns and solutions gave them. The
    /// chunk space is split into one slot per worker.
    fn new(
        run: &'r Run,
        merged: &'r Merged,
        prev_k: usize,
        total: u64,
        chunks: u64,
        replay: GenReplay,
    ) -> Self {
        let registry = HoleRegistry::new();
        for h in merged.holes.iter().chain(&replay.holes) {
            registry.resolve_or_register(&HoleSpec::new(&h.name, h.actions.iter().cloned()));
        }
        let workers = run
            .options
            .threads
            .min(usize::try_from(total.min(64)).expect("bounded by 64"))
            .max(1);
        Generation {
            run,
            radices: merged.holes.iter().map(|h| h.arity() as u32).collect(),
            total,
            k: merged.holes.len(),
            prev_k,
            covered: replay.covered,
            journaled_holes: AtomicUsize::new(registry.len()),
            registry,
            hub: PatternHub::new(&merged.patterns, replay.patterns),
            known_solutions: &merged.solutions,
            solutions: Mutex::new(replay.solutions),
            quarantined: Mutex::new(replay.quarantined),
            pool: StealPool::new(&partition_chunks(chunks, workers)),
            evaluated: AtomicU64::new(replay.evaluated),
            skipped: AtomicU64::new(replay.skipped),
            deduped: AtomicU64::new(replay.deduped),
            probes: AtomicU64::new(replay.probes),
            claims: AtomicU64::new(0),
            active_chunks: AtomicU64::new(0),
        }
    }

    /// Runs one worker per pool slot — inline for a single slot, on a
    /// thread each otherwise — over every chunk the journal does not cover.
    fn enumerate<M: TransitionSystem>(&self, model: &M) {
        match self.pool.slots.len() {
            1 => worker(model, self, 0),
            workers => std::thread::scope(|scope| {
                for slot in 0..workers {
                    scope.spawn(move || worker(model, self, slot));
                }
            }),
        }
    }

    fn finish(self) -> GenOutcome {
        GenOutcome {
            gen: GenStats {
                k: self.k,
                space: self.total.into(),
                evaluated: self.evaluated.into_inner(),
                skipped_by_pruning: self.skipped.into_inner() as u128,
                deduped: self.deduped.into_inner(),
                probes: self.probes.into_inner(),
                claims: self.claims.into_inner(),
                active_chunks: self.active_chunks.into_inner(),
            },
            discovered: self.registry.snapshot().split_off(self.k),
            patterns: self.hub.into_log(),
            solutions: self.solutions.into_inner(),
            quarantined: self.quarantined.into_inner(),
        }
    }

    /// Naïve mode's dedup rule: a candidate whose new digits (holes
    /// `prev_k..k`) are all action 0 is identical to one the previous
    /// generation evaluated, since undiscovered holes default to action 0.
    fn repeats_last_generation(&self, digits: &[u16]) -> bool {
        self.k > self.prev_k && digits[self.prev_k..self.k].iter().all(|&x| x == 0)
    }

    /// Banks a chunk's counters into the generation totals (also called for
    /// partial chunks on a graceful stop, so the report stays accurate even
    /// though only completed chunks are journaled).
    fn bank(&self, draft: &ChunkDraft) {
        self.evaluated.fetch_add(draft.evaluated, Ordering::Relaxed);
        self.skipped.fetch_add(draft.skipped, Ordering::Relaxed);
        self.deduped.fetch_add(draft.deduped, Ordering::Relaxed);
        self.probes.fetch_add(draft.probes, Ordering::Relaxed);
    }

    /// Banks one dispatch's checker work into the run.
    fn bank_check(&self, expanded: u64, reused: u64, replays: u64, expansions_reused: u64) {
        let run = self.run;
        run.check_expanded.fetch_add(expanded, Ordering::Relaxed);
        run.check_reused.fetch_add(reused, Ordering::Relaxed);
        run.check_replays.fetch_add(replays, Ordering::Relaxed);
        run.check_expansions_reused
            .fetch_add(expansions_reused, Ordering::Relaxed);
    }

    /// Candidates in the chunk range `[first, first + count)`.
    fn chunk_candidates(&self, first: u64, count: u64) -> u64 {
        let chunk = self.run.options.chunk_size;
        let at = |c: u64| c.saturating_mul(chunk).min(self.total.max(1));
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

/// Splits `[0, chunks)` into `slots` contiguous balanced ranges (the first
/// `chunks % slots` ranges are one chunk longer). Ranges may be empty when
/// there are fewer chunks than slots.
fn partition_chunks(chunks: u64, slots: usize) -> Vec<(u64, u64)> {
    let n = slots as u64;
    let (base, rem) = (chunks / n, chunks % n);
    let mut cursor = 0u64;
    (0..n)
        .map(|i| {
            let start = cursor;
            cursor += base + u64::from(i < rem);
            (start, cursor)
        })
        .collect()
}

/// A generation's chunk dispenser: one `(next, end)` slot per worker. A
/// worker that drains its slot steals the tail half of the largest
/// remaining one, so a share that prunes poorly (dense evaluation) is
/// finished by the workers whose shares pruned well. A claim is one
/// compare-and-bump under an uncontended mutex, and a steal moves a tail
/// between two slots under both locks, so the slots always partition the
/// unclaimed space — every chunk is claimed exactly once. A serial run has
/// one slot and never steals.
///
/// Every claim takes the journal's coverage (`covered`: sorted, disjoint,
/// merged chunk ranges) into account: [`StealPool::claim`] steps over a
/// whole covered range in one advance, and [`StealPool::claim_refuted`]
/// never crosses one.
#[derive(Debug)]
struct StealPool {
    slots: Vec<Mutex<(u64, u64)>>,
}

/// A claimed chunk index, and the end of the claimable run it was taken
/// from: the slot's end at claim time, or the next journal-covered chunk if
/// that comes first. The guided walk searches for the next consistent
/// candidate up to `limit`, never past it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Claim {
    idx: u64,
    limit: u64,
}

impl StealPool {
    fn new(ranges: &[(u64, u64)]) -> Self {
        StealPool {
            slots: ranges.iter().map(|&r| Mutex::new(r)).collect(),
        }
    }

    /// Claims the next chunk index for `slot` outside the journal coverage
    /// `covered`, stealing when the slot is drained; `None` once no slot
    /// has stealable work left.
    fn claim(&self, slot: usize, covered: &[(u64, u64)]) -> Option<Claim> {
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
            if !self.steal_into(slot) {
                return None;
            }
        }
    }

    /// Claims, in one step, the unclaimed chunks of `[from, through)` that
    /// directly follow `slot`'s cursor: every chunk there is refuted by the
    /// caller's patterns, so whoever claims it only banks its skip count.
    /// Returns the claimed `(first, count)`, or `None` when the cursor lies
    /// outside the range. Clamped to the slot's current end (a thief may
    /// have taken its tail) and to the next journal-covered chunk.
    fn claim_refuted(
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

/// One worker: opens its per-generation [`CheckSession`] and runs the
/// chunk-claiming evaluation loop on its pool `slot`, over its
/// thread-local [`Propagator`], which holds every pattern the generation's
/// hub does.
///
/// A finished chunk's walk runs on past the chunk to the next consistent
/// candidate `t`, searching up to the claim's [`Claim::limit`]. Every chunk
/// wholly below `t` is refuted by this worker's own patterns — and patterns
/// only grow — so the worker claims them all in one dispenser step and
/// journals them as one refuted run, at any thread count. Nothing in the
/// run is evaluated, so the skip count grows by exactly its candidates and
/// serial counts are those of a chunk-by-chunk walk. Every completed range
/// goes straight to the journal writer, which coalesces adjacent inactive
/// ranges itself.
fn worker<M: TransitionSystem>(model: &M, gen: &Generation<'_>, slot: usize) {
    let opts = &gen.run.options;
    let mut session = gen.run.checker.session(model);
    let mut propagator = Propagator::new();
    let mut log_cursor = 0usize;
    let total = gen.total.max(1);
    let chunk = opts.chunk_size;

    while !gen.run.stop.load(Ordering::Acquire) {
        let Some(Claim { idx, limit }) = gen.pool.claim(slot, &gen.covered) else {
            return;
        };
        gen.claims.fetch_add(1, Ordering::Relaxed);
        let lo = idx.saturating_mul(chunk);
        let hi = lo.saturating_add(chunk).min(total);
        let search_end = limit.saturating_mul(chunk).min(total);
        if opts.pruning {
            // Pattern-log sync at every chunk boundary: publication is
            // immediate, and this is the pull.
            gen.hub.sync_into(&mut propagator, &mut log_cursor);
        }

        // Everything this chunk produces accumulates here and is journaled
        // atomically when the chunk completes; a chunk abandoned mid-way
        // (stop request, kill) leaves no journal trace and is re-run on
        // resume against the same pattern-table state it started from.
        let mut draft = ChunkDraft::new(gen.k as u64, idx);
        let next = match opts.enumeration {
            Enumeration::Guided => run_chunk_guided(
                gen,
                lo,
                hi,
                search_end,
                &mut propagator,
                &mut session,
                &mut draft,
            ),
            #[cfg(any(test, feature = "reference"))]
            Enumeration::Lexicographic => {
                run_chunk_lex(gen, lo, hi, &mut propagator, &mut session, &mut draft)
            }
        };

        gen.bank(&draft);
        if draft.evaluated > 0 {
            gen.active_chunks.fetch_add(1, Ordering::Relaxed);
        }
        // A stop request interrupted the chunk: its partial counters are
        // banked (for the report) but never journaled.
        let Some(next) = next else { return };
        gen.journal_chunk(draft);

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
        if let Some((first, count)) = gen.pool.claim_refuted(slot, idx + 1, through, &gen.covered) {
            gen.claims.fetch_add(1, Ordering::Relaxed);
            let run = ChunkDraft::refuted(
                gen.k as u64,
                first,
                count,
                gen.chunk_candidates(first, count),
            );
            gen.bank(&run);
            gen.journal_chunk(run);
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
    gen: &Generation<'_>,
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
    let run = gen.run;
    let probes_before = propagator.probes();
    let mut od = GuidedOdometer::over_range(
        gen.radices.clone(),
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
        if !run.options.pruning && gen.repeats_last_generation(digits) {
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
        evaluate_candidate(gen, digits, session, od.propagator_mut(), draft);
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
    gen: &Generation<'_>,
    lo: u64,
    hi: u64,
    propagator: &mut Propagator,
    session: &mut CheckSession<'_, M>,
    draft: &mut ChunkDraft,
) -> Option<u64> {
    let run = gen.run;
    let mut scratch = Vec::new();
    let mut od = Odometer::over_range(gen.radices.clone(), lo as u128, hi as u128);
    while let Some(digits) = od.current() {
        if run.stop.load(Ordering::Acquire) {
            return None;
        }
        if run.options.pruning {
            // One incremental cursor walk over all prefix depths; a hit at
            // depth `d` skips the entire subtree below it in O(1).
            let hit = propagator
                .table()
                .first_pruned_depth_in(digits, gen.k, &mut scratch);
            // The walk consults depths `0..=d` (or all `0..=k` on a miss).
            draft.probes += hit.unwrap_or(gen.k) as u64 + 1;
            if let Some(d) = hit {
                draft.skipped += od.skip_subtree(d) as u64;
                continue;
            }
        } else if gen.repeats_last_generation(digits) {
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
        evaluate_candidate(gen, digits.to_vec(), session, propagator, draft);
        if !od.advance() {
            break;
        }
    }
    Some(hi)
}

/// Dispatches one candidate to the model checker and files the result —
/// into the generation and run state immediately, and into the chunk
/// `draft` for the journal.
fn evaluate_candidate<M: TransitionSystem>(
    gen: &Generation<'_>,
    digits: Vec<u16>,
    session: &mut CheckSession<'_, M>,
    propagator: &mut Propagator,
    draft: &mut ChunkDraft,
) {
    let run = gen.run;
    let opts = &run.options;
    let known_before = gen.registry.len();
    let default = if opts.pruning {
        DiscoveryDefault::Wildcard
    } else {
        DiscoveryDefault::ActionZero
    };
    let resolver = SharedCandidateResolver::new(&gen.registry, &digits, default);
    let (outcome, touched) = dispatch(gen, session, resolver, draft);
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
                pattern_added = gen.hub.publish(&entry, propagator);
                if pattern_added {
                    draft.patterns.push(entry);
                }
            }
        }
        Verdict::Success => {
            let mut assignment: Vec<(HoleId, u16)> = touched.clone();
            assignment.sort_unstable();
            let known = |s: &Solution| s.assignment == assignment;
            let mut solutions = gen.solutions.lock();
            if !gen.known_solutions.iter().any(known) && !solutions.iter().any(known) {
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
                gen.quarantined.lock().push(q.clone());
                draft.quarantined.push(q);
            }
        }
    }

    if opts.record_runs {
        let wildcards = known_before.saturating_sub(gen.k);
        let discovered = gen.registry.names_from(known_before);
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
/// into the run and `draft`. The session resumes from its deepest
/// checkpoint whose hole resolutions the candidate leaves unchanged;
/// verdict and failure attribution are those of a fresh check. Returns the
/// outcome and the hole-id-sorted touched set: the live consultations plus
/// those of the checkpoint-reused layers, which a fresh check would have
/// made itself (answers agree by the checkpoint validity rule).
fn dispatch<M: TransitionSystem>(
    gen: &Generation<'_>,
    session: &mut CheckSession<'_, M>,
    resolver: SharedCandidateResolver<'_>,
    draft: &mut ChunkDraft,
) -> (Outcome<M::State>, Vec<(HoleId, u16)>) {
    #[cfg(any(test, feature = "reference"))]
    if !gen.run.options.reuse_sessions {
        // The per-candidate-restart reference: one fresh check from the
        // initial states, the session left untouched.
        let outcome = gen.run.checker.run_shared(session.model(), &resolver);
        let expanded = outcome.stats().states_visited as u64;
        gen.bank_check(expanded, 0, 0, 0);
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
    gen.bank_check(
        expanded,
        reused,
        after.checks_replayed - before.checks_replayed,
        after.expansions_reused - before.expansions_reused,
    );
    draft.expanded += expanded;
    draft.reused += reused;
    let mut touched = resolver.into_touched();
    touched.extend(session.reused_touches());
    touched.sort_unstable();
    touched.dedup_by_key(|pair| pair.0);
    (outcome, touched)
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

/// Pruning patterns, each distinct pattern stored once, in filing order:
/// the run's patterns, and what one generation learned on top of them.
#[derive(Debug, Default)]
struct PatternLog {
    seen: FnvHashSet<Arc<PatternEntry>>,
    log: Vec<Arc<PatternEntry>>,
    dense: usize,
    sparse: usize,
}

impl PatternLog {
    /// Files a pattern unless the log already has it; returns whether it
    /// was new.
    fn file(&mut self, entry: Arc<PatternEntry>) -> bool {
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
}

/// A generation's pruning-pattern hub: the run's patterns (`base`,
/// read-only while the generation runs) followed by the log of what the
/// generation learned since, journal-replayed patterns first. Workers
/// replay both, in that order, into their thread-local propagators. Each
/// distinct pattern is stored once: a set's entry and its log's share one
/// allocation, and the merge moves it into the run's log.
#[derive(Debug)]
struct PatternHub<'r> {
    base: &'r PatternLog,
    learned: Mutex<PatternLog>,
}

impl<'r> PatternHub<'r> {
    /// A hub over `base`, seeded with the generation's journaled patterns
    /// before any worker starts.
    fn new(base: &'r PatternLog, journaled: Vec<PatternEntry>) -> Self {
        let hub = PatternHub {
            base,
            learned: Mutex::default(),
        };
        for entry in journaled {
            hub.file(&mut hub.learned.lock(), entry);
        }
        hub
    }

    /// Logs `entry` if neither the base nor this hub has it; returns
    /// whether it was new.
    fn file(&self, learned: &mut PatternLog, entry: PatternEntry) -> bool {
        let entry = normalized(entry);
        !self.base.seen.contains(&entry) && learned.file(Arc::new(entry))
    }

    /// Publishes a pattern a worker learned; merges it into `local` as
    /// well. Returns whether the pattern was new to the run.
    fn publish(&self, entry: &PatternEntry, local: &mut Propagator) -> bool {
        merge_into(local, entry);
        self.file(&mut self.learned.lock(), entry.clone())
    }

    /// Replays the hub from `*cursor` on — the base, then the generation's
    /// log — into `local`.
    fn sync_into(&self, local: &mut Propagator, cursor: &mut usize) {
        let base = &self.base.log;
        for entry in base.get(*cursor..).unwrap_or(&[]) {
            merge_into(local, entry);
        }
        let learned = self.learned.lock();
        let from = cursor.saturating_sub(base.len());
        for entry in &learned.log[from..] {
            merge_into(local, entry);
        }
        *cursor = base.len() + learned.log.len();
    }

    /// Every pattern the generation learned, in log order.
    fn into_log(self) -> Vec<Arc<PatternEntry>> {
        self.learned.into_inner().log
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
        // Naïve mode: a solution can name holes first seen in its own
        // generation, which racing workers register in any order.
        for seed in [8u64, 9, 300, 301] {
            let model = GraphModel::random(seed, 6, 3);
            let naive = SynthOptions::default().pruning(false);
            let seq = Synthesizer::new(naive.clone()).run(&model);
            let par = Synthesizer::new(naive.threads(4)).run(&model);
            assert_eq!(solution_set(&par), solution_set(&seq), "naive seed {seed}");
            assert_eq!(par.solutions().len(), seq.solutions().len());
        }
    }

    #[test]
    fn fig2_is_exact_under_parallel_checks() {
        // Per-check parallelism must not disturb the candidate sequencing:
        // the checker is verdict- and attribution-identical at any thread
        // count, so even the paper's exact Figure-2 run log is preserved.
        let model = GraphModel::worked_example();
        let serial = Synthesizer::new(SynthOptions::default().record_runs(true)).run(&model);
        let checker = CheckerOptions::default().threads(4);
        let par = Synthesizer::new(SynthOptions::default().record_runs(true).checker(checker))
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
                let checker = CheckerOptions::default().threads(4);
                let par =
                    Synthesizer::new(SynthOptions::default().pattern_mode(mode).checker(checker))
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
                                .threads(threads)
                                .clamp_threads(false);
                            Synthesizer::new(
                                SynthOptions::default()
                                    .record_runs(true)
                                    .pruning(pruning)
                                    .pattern_mode(PatternMode::Refined)
                                    .reuse_sessions(reuse)
                                    .checker(checker),
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
            let checker = CheckerOptions::default().threads(2);
            let par =
                Synthesizer::new(SynthOptions::default().threads(2).checker(checker)).run(&model);
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

    /// Drains `slot` of a pool the way a worker does — claim a chunk, then
    /// maybe claim a refuted run after it up to a pseudo-random bound — and
    /// returns every chunk index it handed out, in claim order.
    fn drain(pool: &StealPool, slot: usize, covered: &[(u64, u64)], seed: u64) -> Vec<u64> {
        let mut rng = seed;
        let mut out = Vec::new();
        while let Some(Claim { idx, limit }) = pool.claim(slot, covered) {
            assert!(idx < limit, "claim {idx} outside its limit {limit}");
            out.push(idx);
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let through = idx + 1 + (rng >> 33) % 9;
            if let Some((first, count)) = pool.claim_refuted(slot, idx + 1, through, covered) {
                assert!(count > 0 && first > idx && first + count <= through);
                out.extend(first..first + count);
            }
        }
        out
    }

    #[test]
    fn partition_covers_space_with_balanced_contiguous_ranges() {
        for chunks in [0u64, 1, 2, 3, 7, 64, 1000, 1001] {
            for slots in [1usize, 2, 3, 4, 7, 13] {
                let ranges = partition_chunks(chunks, slots);
                assert_eq!(ranges.len(), slots);
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
    fn one_slot_claims_step_over_covered_ranges_and_stop_at_them() {
        let covered = [(3, 4), (10, 2)];
        let pool = StealPool::new(&[(0, 20)]);
        assert_eq!(pool.claim(0, &covered), Some(Claim { idx: 0, limit: 3 }));
        // A refuted run stops at the first covered chunk.
        assert_eq!(pool.claim_refuted(0, 1, 9, &covered), Some((1, 2)));
        // The covered range [3, 7) is stepped over in one claim.
        assert_eq!(pool.claim(0, &covered), Some(Claim { idx: 7, limit: 10 }));
        // A run that does not start at the cursor claims nothing.
        assert_eq!(pool.claim_refuted(0, 9, 12, &covered), None);
        assert_eq!(pool.claim_refuted(0, 8, 12, &covered), Some((8, 2)));
        assert_eq!(pool.claim(0, &covered), Some(Claim { idx: 12, limit: 20 }));
        // Clamped to the slot's end.
        assert_eq!(pool.claim_refuted(0, 13, 99, &covered), Some((13, 7)));
        assert_eq!(pool.claim(0, &covered), None);
        assert_eq!(pool.claim_refuted(0, 20, 99, &covered), None);
    }

    #[test]
    fn racing_claimers_of_one_slot_bank_every_chunk_exactly_once() {
        let covered = [(40, 25), (300, 1)];
        let pool = StealPool::new(&[(0, 500)]);
        let mut all: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|seed| {
                    let (pool, covered) = (&pool, &covered);
                    scope.spawn(move || drain(pool, 0, covered, seed))
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
    fn claims_clamp_to_a_slot_a_thief_shortened() {
        let pool = StealPool::new(&[(0, 100), (100, 100)]);
        assert_eq!(pool.claim(0, &[]), Some(Claim { idx: 0, limit: 100 }));
        // Slot 1 is empty: its first claim steals the tail half [51, 100).
        assert_eq!(
            pool.claim(1, &[]),
            Some(Claim {
                idx: 51,
                limit: 100
            })
        );
        // The owner searched to 100, but only [1, 51) is still its own.
        assert_eq!(pool.claim_refuted(0, 1, 100, &[]), Some((1, 50)));
        assert_eq!(pool.claim_refuted(1, 52, 60, &[(55, 5)]), Some((52, 3)));
        assert_eq!(
            pool.claim(1, &[(55, 5)]),
            Some(Claim {
                idx: 60,
                limit: 100
            })
        );
        // The owner's slot is exhausted: it steals from the thief's tail.
        assert_eq!(
            pool.claim(0, &[]),
            Some(Claim {
                idx: 81,
                limit: 100
            })
        );
    }

    #[test]
    fn racing_slots_claim_every_chunk_exactly_once() {
        // Uneven ranges and more claimants than work force heavy stealing.
        for (ranges, covered) in [
            (
                vec![(0u64, 100), (100, 101), (101, 101), (101, 160)],
                vec![],
            ),
            (
                vec![(0, 200), (200, 210), (210, 210), (210, 400)],
                vec![(150, 30), (390, 10)],
            ),
        ] {
            let (pool, slots) = (StealPool::new(&ranges), ranges.len());
            let mut all: Vec<u64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..slots * 2)
                    .map(|t| {
                        let (pool, covered) = (&pool, &covered);
                        scope.spawn(move || drain(pool, t % slots, covered, t as u64))
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap())
                    .collect()
            });
            all.sort_unstable();
            let end = ranges.last().unwrap().1;
            let expected: Vec<u64> = (0..end)
                .filter(|&c| !covered.iter().any(|&(f, n)| (f..f + n).contains(&c)))
                .collect();
            assert_eq!(all, expected, "ranges {ranges:?}");
        }
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
