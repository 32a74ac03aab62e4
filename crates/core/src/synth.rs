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
//! sync from at chunk boundaries — so "each thread \[can\] make use of another
//! thread's registered patterns as soon as they become available".

use crate::candidate::CandidateVec;
use crate::hole::{HoleId, HoleInfo, HoleRegistry};
use crate::journal::{self, ChunkDraft, Fingerprint, GenReplay, JournalReplay, JournalWriter};
use crate::odometer::{space_size, GuidedOdometer, Odometer};
use crate::pattern::{PatternMode, PatternSink, PatternTable, Propagator};
use crate::report::{
    GenStats, Quarantined, RunRecord, Solution, StopReason, SynthReport, SynthStats,
};
use crate::resolver::{DiscoveryDefault, SharedCandidateResolver};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use verc3_mck::hashers::FnvHashSet;
use verc3_mck::{
    CheckSession, Checker, CheckerOptions, HoleSpec, MckError, TransitionSystem, Verdict,
};

/// Candidate-enumeration strategy (see [`SynthOptions::enumeration`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Enumeration {
    /// Walk the candidate space in lexicographic order, consulting the
    /// pattern table from the root at every candidate and skipping matched
    /// subtrees.
    #[default]
    Lexicographic,
    /// Let the learned patterns drive the walk: jump directly to the next
    /// assignment consistent with every dense prefix and sparse pattern,
    /// re-verifying only the digits each jump changed (see
    /// [`crate::GuidedOdometer`]). Visits the exact same candidate sequence
    /// as `Lexicographic` — solution sets, pattern tables, and run logs are
    /// bit-identical — at a fraction of the per-depth probes
    /// ([`crate::report::GenStats::probes`]). Requires pruning.
    Guided,
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
    sync_interval: usize,
    max_evaluations: Option<u64>,
    record_runs: bool,
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
            enumeration: Enumeration::Lexicographic,
            threads: 1,
            check_threads: 1,
            checker: CheckerOptions::default(),
            chunk_size: 32,
            sync_interval: 1,
            max_evaluations: None,
            record_runs: false,
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

    /// Selects the candidate-enumeration strategy (default
    /// [`Enumeration::Lexicographic`]). [`Enumeration::Guided`] turns the
    /// learned pattern table from a per-candidate veto into the proposal
    /// mechanism itself, without changing which candidates are evaluated.
    /// Part of the journal fingerprint: resuming requires the strategy the
    /// journal was written with.
    ///
    /// Guided enumeration requires pruning — combining it with
    /// `pruning(false)` fails at run time with
    /// [`MckError::InvalidConfig`].
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

    /// How many chunks a worker processes between syncs from the shared
    /// pattern log (default 1: sync at every chunk boundary, the eager
    /// behaviour small workloads want).
    ///
    /// At msi_xl-and-beyond pattern volumes, taking the shared-log lock at
    /// every chunk boundary serializes the workers; a larger interval
    /// amortizes the merges at the cost of each worker pruning against a
    /// slightly staler table. Pattern *publication* stays immediate — only
    /// the pull side is batched — and every pattern a worker records locally
    /// is also in its own table at once, so results (the solution set) are
    /// unaffected at any interval; only the evaluated-candidate count can
    /// drift, exactly as it does across thread counts.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`; use [`SynthOptions::try_sync_interval`] for
    /// a structured error instead.
    #[track_caller]
    pub fn sync_interval(self, every: usize) -> Self {
        self.try_sync_interval(every)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`SynthOptions::sync_interval`].
    pub fn try_sync_interval(mut self, every: usize) -> Result<Self, MckError> {
        if every == 0 {
            return Err(MckError::InvalidConfig {
                param: "sync_interval",
                reason: "sync interval must be positive".into(),
            });
        }
        self.sync_interval = every;
        Ok(self)
    }

    /// Stops the run (marking the report truncated) after this many
    /// model-checker dispatches. A safety valve for exploratory use on
    /// intractable skeletons.
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
    /// default) instead of one-shot checker runs.
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
    /// and wall time move. Disable to measure the per-candidate-restart
    /// baseline.
    ///
    /// [`SynthStats::check_states_reused`]: crate::report::SynthStats::check_states_reused
    /// [`SynthStats::check_replays`]: crate::report::SynthStats::check_replays
    pub fn reuse_sessions(mut self, reuse: bool) -> Self {
        self.reuse_sessions = reuse;
        self
    }

    /// Writes a crash-safe progress journal to `path` (see
    /// [`crate::journal`]): completed chunk ranges, learned patterns, and
    /// found solutions are appended as CRC-framed records, so a killed run
    /// resumes via [`Synthesizer::resume_from_journal`] with its exact
    /// remaining candidate frontier. [`Synthesizer::try_run`] truncates any
    /// existing file at `path`; journal I/O failures mid-run panic (the
    /// journal *is* the crash-safety contract — continuing without it would
    /// silently void it).
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// How many journaled chunk records may accumulate between `fsync`s
    /// (default 64). Generation boundaries and the final stop record always
    /// sync. Lower is more durable, higher is cheaper; at the default
    /// cadence the journal costs msi-scale runs under 2% wall time. Note
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
    /// reporting [`StopReason::Deadline`]. Enforced at the per-candidate
    /// dispatch sequence point, so in-flight evaluations finish and the
    /// journal stays chunk-consistent.
    pub fn deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Stops the run gracefully once the checker has committed this many
    /// states across all dispatches (expanded live plus reused from session
    /// checkpoints — the same total a one-shot run would expand), reporting
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
        self.validate()?;
        let writer = match &self.options.journal {
            Some(path) => Some(
                JournalWriter::create(
                    path,
                    model.name(),
                    &self.fingerprint(),
                    self.options.journal_fsync_every,
                )
                .map_err(|e| MckError::JournalCorrupt {
                    reason: format!("cannot create `{}`: {e}", path.display()),
                })?,
            ),
            None => None,
        };
        self.run_inner(model, None, writer)
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
    /// different model or was written under a different fingerprint
    /// (pruning, pattern mode, chunk size, enumeration strategy) — budgets,
    /// caps, and thread counts may change freely between attempts.
    pub fn resume_from_journal<M: TransitionSystem>(
        &self,
        model: &M,
    ) -> Result<SynthReport, MckError> {
        self.validate()?;
        let Some(path) = self.options.journal.clone() else {
            return Err(MckError::InvalidConfig {
                param: "journal",
                reason: "resume_from_journal requires SynthOptions::journal".into(),
            });
        };
        let Some(replay) = journal::read(&path)? else {
            return self.try_run(model);
        };
        if replay.model != model.name() {
            return Err(MckError::JournalCorrupt {
                reason: format!(
                    "journal records model `{}`, not `{}`",
                    replay.model,
                    model.name()
                ),
            });
        }
        if replay.fingerprint != self.fingerprint() {
            return Err(MckError::JournalCorrupt {
                reason: "journal was written under different options \
                         (pruning, pattern mode, chunk size, or enumeration \
                         strategy)"
                    .into(),
            });
        }
        let writer = JournalWriter::resume(
            &path,
            replay.valid_len,
            replay.holes.len(),
            self.options.journal_fsync_every,
        )
        .map_err(|e| MckError::JournalCorrupt {
            reason: format!("cannot reopen `{}`: {e}", path.display()),
        })?;
        self.run_inner(model, Some(replay), Some(writer))
    }

    /// The option subset a journal is only valid under.
    fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            pruning: self.options.pruning,
            pattern_mode: self.options.pattern_mode,
            chunk_size: self.options.chunk_size,
            enumeration: self.options.enumeration,
            shard: None,
        }
    }

    /// Rejects option combinations no run mode can honor.
    fn validate(&self) -> Result<(), MckError> {
        if self.options.enumeration == Enumeration::Guided && !self.options.pruning {
            return Err(MckError::InvalidConfig {
                param: "enumeration",
                reason: "guided enumeration requires pruning: the learned \
                         pattern table is what drives the jumps"
                    .into(),
            });
        }
        Ok(())
    }

    fn run_inner<M: TransitionSystem>(
        &self,
        model: &M,
        replay: Option<JournalReplay>,
        writer: Option<JournalWriter>,
    ) -> Result<SynthReport, MckError> {
        let start = Instant::now();
        // A thread count set directly on the checker options is honored too:
        // the effective per-dispatch parallelism is the larger of the two
        // knobs, never a silent reset.
        let mut opts = self.options.clone();
        opts.check_threads = opts.check_threads.max(opts.checker.thread_count());
        let opts = &opts;
        let registry = HoleRegistry::new();
        let checker = Checker::new(opts.checker.clone().threads(opts.check_threads));

        // Seed everything the journal already knows. Holes replay in id
        // (discovery) order, so the registry hands out identical ids and
        // candidate digit vectors keep their meaning.
        let mut queue: VecDeque<GenReplay> = VecDeque::new();
        let (solutions, quarantined, patterns, expanded_seed, reused_seed) = match replay {
            Some(r) => {
                for h in &r.holes {
                    registry
                        .resolve_or_register(&HoleSpec::new(&h.name, h.actions.iter().cloned()));
                }
                queue.extend(r.gens);
                (r.solutions, r.quarantined, r.patterns, r.expanded, r.reused)
            }
            None => Default::default(),
        };
        let evaluated_seed: u64 = queue.iter().map(|g| g.evaluated).sum();

        let shared = Shared {
            registry: &registry,
            checker: &checker,
            options: opts,
            hub: PatternHub::default(),
            solutions: Mutex::new(solutions),
            quarantined: Mutex::new(quarantined),
            run_log: Mutex::new(Vec::new()),
            run_counter: AtomicU64::new(evaluated_seed),
            stop: AtomicBool::new(false),
            stop_reason: Mutex::new(StopReason::Completed),
            check_expanded: AtomicU64::new(expanded_seed),
            check_reused: AtomicU64::new(reused_seed),
            check_replays: AtomicU64::new(0),
            deadline_at: opts.deadline.and_then(|d| start.checked_add(d)),
            journal: writer,
            exchange: None,
        };
        shared.hub.seed(patterns);

        let mut generations: Vec<GenStats> = Vec::new();
        let (mut k, mut prev_k);
        let mut current = match queue.pop_front() {
            Some(g) => {
                k = g.k;
                prev_k = g.prev_k;
                Some(g)
            }
            None => {
                k = 0;
                prev_k = 0;
                if let Some(j) = &shared.journal {
                    j.gen_start(0, 0).map_err(journal_failed)?;
                }
                None
            }
        };

        loop {
            let gen = self.run_generation(model, &shared, k, prev_k, current.take())?;
            generations.push(gen);
            if shared.stop.load(Ordering::Acquire) {
                break;
            }
            if let Some(g) = queue.pop_front() {
                // Follow the journal's generation sequence while it lasts —
                // the registry already holds later generations' holes, so
                // `len()` would skip ahead.
                k = g.k;
                prev_k = g.prev_k;
                current = Some(g);
                continue;
            }
            let known = registry.len();
            if known > k {
                prev_k = k;
                k = known;
                if let Some(j) = &shared.journal {
                    j.gen_start(k, prev_k).map_err(journal_failed)?;
                }
            } else {
                break;
            }
        }

        let stop = if shared.stop.load(Ordering::Acquire) {
            *shared.stop_reason.lock()
        } else {
            StopReason::Completed
        };
        if let Some(j) = &shared.journal {
            j.stop(stop).map_err(journal_failed)?;
        }

        let (patterns_dense, patterns_sparse) = shared.hub.counts();
        let quarantined = shared.quarantined.into_inner();
        let stats = SynthStats {
            evaluated: generations.iter().map(|g| g.evaluated).sum(),
            skipped_by_pruning: generations.iter().map(|g| g.skipped_by_pruning).sum(),
            patterns: patterns_dense + patterns_sparse,
            patterns_dense,
            patterns_sparse,
            probes: generations.iter().map(|g| g.probes).sum(),
            generations,
            wall: start.elapsed(),
            truncated: stop != StopReason::Completed,
            stop,
            quarantined: quarantined.len() as u64,
            check_states_expanded: shared.check_expanded.load(Ordering::Relaxed),
            check_states_reused: shared.check_reused.load(Ordering::Relaxed),
            check_replays: shared.check_replays.load(Ordering::Relaxed),
        };
        Ok(SynthReport {
            model: model.name().to_owned(),
            holes: registry.snapshot(),
            solutions: shared.solutions.into_inner(),
            stats,
            run_log: shared.run_log.into_inner(),
            quarantined,
        })
    }

    /// Runs one generation: a full enumeration pass over holes `0..k`,
    /// skipping chunk ranges the journal already covers.
    fn run_generation<M: TransitionSystem>(
        &self,
        model: &M,
        shared: &Shared<'_>,
        k: usize,
        prev_k: usize,
        replayed: Option<GenReplay>,
    ) -> Result<GenStats, MckError> {
        let radices = shared.registry.arities(k);
        let space = space_size(&radices);
        // The generation space is never larger than u64 in practice
        // (MSI-large is ~1.2e9); fail loudly on a pathological skeleton.
        let total: u64 = space.try_into().map_err(|_| MckError::InvalidConfig {
            param: "candidate space",
            reason: format!("generation space of {space} candidates exceeds the enumerable range"),
        })?;
        let (completed, ev, sk, dd, pr) = match replayed {
            Some(g) => (g.ranges, g.evaluated, g.skipped, g.deduped, g.probes),
            None => (Vec::new(), 0, 0, 0, 0),
        };
        let chunks_total = total.max(1).div_ceil(shared.options.chunk_size);
        let gen = GenShared {
            dispenser: ChunkClaims::serial(0, chunks_total),
            evaluated: AtomicU64::new(ev),
            skipped: AtomicU64::new(sk),
            deduped: AtomicU64::new(dd),
            probes: AtomicU64::new(pr),
            claims: AtomicU64::new(0),
            active_chunks: AtomicU64::new(0),
            radices,
            total,
            k,
            prev_k,
            completed,
        };

        let fully_covered = matches!(gen.completed.first(), Some(&(0, c)) if c >= chunks_total);
        if !fully_covered {
            let threads = self
                .options
                .threads
                .min(usize::try_from(space.min(64)).expect("bounded by 64"))
                .max(1);
            if threads == 1 {
                worker(model, shared, &gen);
            } else {
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        scope.spawn(|| worker(model, shared, &gen));
                    }
                });
            }
        }

        Ok(gen.stats(space))
    }

    /// Runs one shard's slice of one generation: the chunk-index range
    /// `[spec.start, spec.end)` of the frontier the coordinator's merged
    /// registry defines, through the ordinary worker machinery (sessions,
    /// pruning, guided or lexicographic walk, per-shard journal). The
    /// registry is seeded from `spec.holes` — the shared baseline every
    /// peer shard starts this round from — so hole ids below the frontier
    /// mean the same thing across all shards, which is what makes pattern
    /// ids exchangeable and solution assignments directly mergeable.
    ///
    /// With `spec.journal` set, an existing journal at that path is
    /// resumed: its fingerprint (which pins the partition — see
    /// [`Fingerprint::shard`]) and frontier must match, its coverage is
    /// skipped, and its recorded holes/patterns/solutions seed the run.
    /// With `pool` set, the claim dispenser is the cross-shard steal pool
    /// slot `spec.index` instead of the serial range.
    pub(crate) fn run_shard_generation<M: TransitionSystem>(
        &self,
        model: &M,
        spec: &crate::shard::ShardSpec,
        seed_patterns: Vec<journal::PatternEntry>,
        exchange: Option<ExchangeState>,
        pool: Option<Arc<crate::shard::StealPool>>,
    ) -> Result<ShardOutcome, MckError> {
        self.validate()?;
        let start = Instant::now();
        let mut opts = self.options.clone();
        opts.check_threads = opts.check_threads.max(opts.checker.thread_count());
        let opts = &opts;
        let registry = HoleRegistry::new();
        for h in &spec.holes {
            registry.resolve_or_register(&HoleSpec::new(&h.name, h.actions.iter().cloned()));
        }
        let k = spec.holes.len();
        let radices = registry.arities(k);
        let space = space_size(&radices);
        let total: u64 = space.try_into().map_err(|_| MckError::InvalidConfig {
            param: "candidate space",
            reason: format!("generation space of {space} candidates exceeds the enumerable range"),
        })?;
        let chunks_total = total.max(1).div_ceil(opts.chunk_size);
        // Clamp exactly like `Odometer::over_range`: a coordinator handing
        // out boundary ranges must not have to re-derive the space size.
        let end_chunk = spec.end.min(chunks_total);
        let start_chunk = spec.start.min(end_chunk);
        let fingerprint = Fingerprint {
            pruning: opts.pruning,
            pattern_mode: opts.pattern_mode,
            chunk_size: opts.chunk_size,
            enumeration: opts.enumeration,
            shard: Some((spec.start, spec.end)),
        };

        let corrupt = |reason: String| MckError::JournalCorrupt { reason };
        let mut replay_gen: Option<GenReplay> = None;
        let mut local_seed: Vec<journal::PatternEntry> = Vec::new();
        let mut solutions: Vec<Solution> = Vec::new();
        let mut quarantined: Vec<Quarantined> = Vec::new();
        let (mut expanded_seed, mut reused_seed) = (0u64, 0u64);
        let mut fresh_gen_record = true;
        let writer = match &spec.journal {
            Some(path) => Some(match journal::read(path)? {
                Some(replay) => {
                    if replay.model != model.name() {
                        return Err(corrupt(format!(
                            "shard journal records model `{}`, not `{}`",
                            replay.model,
                            model.name()
                        )));
                    }
                    if replay.fingerprint != fingerprint {
                        return Err(corrupt(
                            "shard journal was written under a different partition \
                             (chunk range) or different options"
                                .into(),
                        ));
                    }
                    if replay.gens.len() > 1 || replay.gens.first().is_some_and(|g| g.k != k) {
                        return Err(corrupt(
                            "shard journal does not describe this round's frontier".into(),
                        ));
                    }
                    for h in &replay.holes {
                        registry.resolve_or_register(&HoleSpec::new(
                            &h.name,
                            h.actions.iter().cloned(),
                        ));
                    }
                    let w = JournalWriter::resume(
                        path,
                        replay.valid_len,
                        k + replay.holes.len(),
                        opts.journal_fsync_every,
                    )
                    .map_err(|e| corrupt(format!("cannot reopen `{}`: {e}", path.display())))?;
                    fresh_gen_record = replay.gens.is_empty();
                    replay_gen = replay.gens.into_iter().next();
                    local_seed = replay.patterns;
                    solutions = replay.solutions;
                    quarantined = replay.quarantined;
                    expanded_seed = replay.expanded;
                    reused_seed = replay.reused;
                    w
                }
                None => JournalWriter::create_at(
                    path,
                    model.name(),
                    &fingerprint,
                    opts.journal_fsync_every,
                    k,
                )
                .map_err(|e| corrupt(format!("cannot create `{}`: {e}", path.display())))?,
            }),
            None => None,
        };

        let (completed, ev, sk, dd, pr) = match replay_gen {
            Some(g) => (g.ranges, g.evaluated, g.skipped, g.deduped, g.probes),
            None => (Vec::new(), 0, 0, 0, 0),
        };
        let checker = Checker::new(opts.checker.clone().threads(opts.check_threads));
        let shared = Shared {
            registry: &registry,
            checker: &checker,
            options: opts,
            hub: PatternHub::default(),
            solutions: Mutex::new(solutions),
            quarantined: Mutex::new(quarantined),
            run_log: Mutex::new(Vec::new()),
            run_counter: AtomicU64::new(ev),
            stop: AtomicBool::new(false),
            stop_reason: Mutex::new(StopReason::Completed),
            check_expanded: AtomicU64::new(expanded_seed),
            check_reused: AtomicU64::new(reused_seed),
            check_replays: AtomicU64::new(0),
            deadline_at: opts.deadline.and_then(|d| start.checked_add(d)),
            journal: writer,
            exchange,
        };
        // Round-start merged patterns are foreign (peers have them too);
        // this shard's own journaled patterns are local, so a resumed shard
        // still reports and re-broadcasts its pre-crash learnings.
        shared.hub.seed_with(seed_patterns, Origin::Foreign);
        shared.hub.seed_with(local_seed, Origin::Local);
        if fresh_gen_record {
            if let Some(j) = &shared.journal {
                j.gen_start(k, spec.prev_k).map_err(journal_failed)?;
            }
        }

        let dispenser = match pool {
            Some(pool) => ChunkClaims::Pool {
                pool,
                slot: spec.index,
            },
            None => ChunkClaims::serial(start_chunk, end_chunk),
        };
        let gen = GenShared {
            dispenser,
            evaluated: AtomicU64::new(ev),
            skipped: AtomicU64::new(sk),
            deduped: AtomicU64::new(dd),
            probes: AtomicU64::new(pr),
            claims: AtomicU64::new(0),
            active_chunks: AtomicU64::new(0),
            radices,
            total,
            k,
            prev_k: spec.prev_k,
            completed,
        };

        let fully_covered = end_chunk <= start_chunk
            || gen
                .completed
                .iter()
                .any(|&(f, c)| f <= start_chunk && f + c >= end_chunk);
        if fully_covered {
            // Already covered by the resumed journal: mark the slot consumed
            // so peers do not steal and re-run chunks we can replay.
            if let ChunkClaims::Pool { pool, slot } = &gen.dispenser {
                pool.close(*slot);
            }
        } else {
            let slice = (end_chunk - start_chunk).saturating_mul(opts.chunk_size);
            let threads = self
                .options
                .threads
                .min(usize::try_from(slice.min(64)).expect("bounded by 64"))
                .max(1);
            if threads == 1 {
                worker(model, &shared, &gen);
            } else {
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        scope.spawn(|| worker(model, &shared, &gen));
                    }
                });
            }
        }

        let stop = if shared.stop.load(Ordering::Acquire) {
            *shared.stop_reason.lock()
        } else {
            StopReason::Completed
        };
        // Final exchange beat: everything learned after the last in-loop
        // pump still reaches peers that are still enumerating.
        if let Some(x) = &shared.exchange {
            x.pump(&shared.hub, k);
        }
        if let Some(j) = &shared.journal {
            j.stop(stop).map_err(journal_failed)?;
        }

        let lo = start_chunk.saturating_mul(opts.chunk_size).min(total);
        let hi = end_chunk.saturating_mul(opts.chunk_size).min(total);
        Ok(ShardOutcome {
            gen: gen.stats((hi.max(lo) - lo) as u128),
            discovered: registry.snapshot().split_off(k),
            patterns: shared.hub.locals(),
            solutions: shared.solutions.into_inner(),
            quarantined: shared.quarantined.into_inner(),
            stop,
            check_expanded: shared.check_expanded.load(Ordering::Relaxed),
            check_reused: shared.check_reused.load(Ordering::Relaxed),
            check_replays: shared.check_replays.load(Ordering::Relaxed),
        })
    }
}

/// Everything one shard's generation pass produced, in the shared hole-id
/// space (every pattern and solution id is below the round's frontier, so
/// the coordinator merges without translation).
pub(crate) struct ShardOutcome {
    pub gen: GenStats,
    /// Holes first consulted inside this shard's slice, in this shard's
    /// discovery order (ids beyond the baseline frontier).
    pub discovered: Vec<HoleInfo>,
    /// Locally-learned patterns (journal-replayed ones included; seeded and
    /// imported ones excluded — their origin shards report them).
    pub patterns: Vec<journal::PatternEntry>,
    pub solutions: Vec<Solution>,
    pub quarantined: Vec<Quarantined>,
    pub stop: StopReason,
    pub check_expanded: u64,
    pub check_reused: u64,
    pub check_replays: u64,
}

/// Journal writes are the crash-safety contract; failing one voids it, so
/// the run surfaces the error instead of silently continuing unjournaled.
fn journal_failed(e: std::io::Error) -> MckError {
    MckError::JournalCorrupt {
        reason: format!("journal write failed: {e}"),
    }
}

/// State shared across the whole synthesis run.
struct Shared<'a> {
    registry: &'a HoleRegistry,
    checker: &'a Checker,
    options: &'a SynthOptions,
    hub: PatternHub,
    solutions: Mutex<Vec<Solution>>,
    quarantined: Mutex<Vec<Quarantined>>,
    run_log: Mutex<Vec<RunRecord>>,
    run_counter: AtomicU64,
    stop: AtomicBool,
    /// Why `stop` was raised; meaningful only once `stop` is `true`.
    stop_reason: Mutex<StopReason>,
    /// States committed by live checker exploration across all dispatches.
    check_expanded: AtomicU64,
    /// States inherited from session checkpoints instead of re-expanded.
    check_reused: AtomicU64,
    /// Session checks that replayed the previous check's ending. A cost
    /// measurement, not journaled: a resumed run counts only its own.
    check_replays: AtomicU64,
    /// Absolute deadline derived from [`SynthOptions::deadline`].
    deadline_at: Option<Instant>,
    journal: Option<JournalWriter>,
    /// Cross-shard pattern exchange endpoint (shard runs only).
    exchange: Option<ExchangeState>,
}

/// A shard's connection to the cross-shard pattern exchange: the endpoint,
/// this shard's identity on it, and the export cursor into the hub log.
/// Pumped at the same cadence as the hub sync (every
/// [`SynthOptions::sync_interval`] chunks), so exchange traffic stays off
/// the chunk fast path exactly like hub pulls.
pub(crate) struct ExchangeState {
    pub(crate) endpoint: Arc<dyn crate::shard::PatternExchange>,
    pub(crate) shard: usize,
    /// Export cursor into the hub log (locally-published entries only).
    cursor: Mutex<usize>,
    /// Monotonic sequence number for published batches.
    seq: AtomicU64,
}

impl ExchangeState {
    pub(crate) fn new(endpoint: Arc<dyn crate::shard::PatternExchange>, shard: usize) -> Self {
        ExchangeState {
            endpoint,
            shard,
            cursor: Mutex::new(0),
            seq: AtomicU64::new(0),
        }
    }

    /// One exchange beat: exports locally-learned patterns published since
    /// the last beat, then imports every batch peers published since this
    /// shard's last poll. Imports go through [`PatternHub::import`], which
    /// files them on the hub log — workers then merge them into their local
    /// tables and propagators via the ordinary sync path, so an imported
    /// pattern invalidates the guided odometer's masks exactly like a local
    /// insert. `width` is the shard's frontier `k`: entries referencing
    /// holes at or beyond it (a malformed or stale peer batch) are dropped
    /// on import, since no candidate in this generation constrains them.
    fn pump(&self, hub: &PatternHub, width: usize) {
        let batch = {
            let mut cursor = self.cursor.lock();
            hub.export_locals(&mut cursor)
        };
        if !batch.is_empty() {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            self.endpoint.publish(crate::shard::PatternBatch {
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

impl Shared<'_> {
    /// The graceful-stop sequence point, checked before every dispatch: the
    /// first exceeded budget wins, in external-signal-first order.
    fn stop_due(&self) -> Option<StopReason> {
        let opts = self.options;
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
            .is_some_and(|cap| self.run_counter.load(Ordering::Relaxed) >= cap)
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

    /// Journals a completed chunk (a no-op without a journal).
    fn journal_chunk(&self, draft: ChunkDraft) {
        if let Some(j) = &self.journal {
            // Workers cannot return errors through the claim loop; a failed
            // journal write voids the crash-safety contract, so fail loudly.
            j.chunk(self.registry, draft)
                .unwrap_or_else(|e| panic!("journal write failed: {e}"));
        }
    }
}

/// Chunk-index dispenser for one generation's workers: either a plain
/// serial counter over the whole generation, or a shard's slot in the
/// cross-shard [`crate::shard::StealPool`] (whose range can shrink when a
/// finished peer steals half of it).
///
/// Both kinds take the journal's coverage (`covered`: sorted, disjoint,
/// merged chunk ranges) into every claim: [`ChunkClaims::claim`] steps over
/// a whole covered range in one advance, and
/// [`ChunkClaims::claim_refuted`] never crosses one.
pub(crate) enum ChunkClaims {
    Serial {
        next: AtomicU64,
        end: u64,
    },
    Pool {
        pool: Arc<crate::shard::StealPool>,
        slot: usize,
    },
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
    /// (and, for a pooled shard, every stealable peer remainder) is
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

/// State shared across one generation's workers.
struct GenShared {
    dispenser: ChunkClaims,
    evaluated: AtomicU64,
    skipped: AtomicU64,
    deduped: AtomicU64,
    probes: AtomicU64,
    /// Dispenser operations that claimed at least one chunk.
    claims: AtomicU64,
    /// Chunks with at least one evaluation.
    active_chunks: AtomicU64,
    radices: Vec<u32>,
    /// The generation space as the chunk dispenser's u64 (checked against
    /// overflow by `run_generation`).
    total: u64,
    k: usize,
    prev_k: usize,
    /// Chunk-index ranges the journal already covers (sorted, disjoint).
    completed: Vec<(u64, u64)>,
}

impl GenShared {
    /// Banks a chunk's counters into the generation totals (also called for
    /// partial chunks on a graceful stop, so the report stays accurate even
    /// though only completed chunks are journaled).
    fn bank(&self, draft: &ChunkDraft) {
        self.evaluated.fetch_add(draft.evaluated, Ordering::Relaxed);
        self.skipped.fetch_add(draft.skipped, Ordering::Relaxed);
        self.deduped.fetch_add(draft.deduped, Ordering::Relaxed);
        self.probes.fetch_add(draft.probes, Ordering::Relaxed);
    }

    /// Candidates in the chunk range `[first, first + count)`.
    fn candidates(&self, chunk: u64, first: u64, count: u64) -> u64 {
        let at = |c: u64| c.saturating_mul(chunk).min(self.total.max(1));
        at(first + count) - at(first)
    }

    /// The generation's counters over a slice of `space` candidates.
    fn stats(&self, space: u128) -> GenStats {
        GenStats {
            k: self.k,
            space,
            evaluated: self.evaluated.load(Ordering::Relaxed),
            skipped_by_pruning: self.skipped.load(Ordering::Relaxed) as u128,
            deduped: self.deduped.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            claims: self.claims.load(Ordering::Relaxed),
            active_chunks: self.active_chunks.load(Ordering::Relaxed),
        }
    }
}

/// One worker: opens its per-generation [`CheckSession`] (unless
/// [`SynthOptions::reuse_sessions`] is off) and runs the chunk-claiming
/// loop. Session reuse counters are banked per candidate (see
/// [`evaluate_candidate`]), so interrupted runs and journal records stay
/// accurate.
fn worker<M: TransitionSystem>(model: &M, shared: &Shared<'_>, gen: &GenShared) {
    let mut session = shared
        .options
        .reuse_sessions
        .then(|| shared.checker.session(model));
    worker_loop(model, shared, gen, &mut session);
}

/// A worker's thread-local pattern store. The lexicographic walker probes a
/// plain [`PatternTable`]; the guided walker's [`Propagator`] additionally
/// caches its trie cursor stack and candidate snapshot, which must persist
/// across chunks to keep jump re-verification incremental.
enum LocalStore {
    Lex {
        table: PatternTable,
        /// Survivor-bitset scratch reused across every pruning probe this
        /// worker makes: the query path allocates nothing.
        scratch: Vec<u64>,
    },
    Guided(Propagator),
}

impl LocalStore {
    fn sink(&mut self) -> &mut dyn PatternSink {
        match self {
            LocalStore::Lex { table, .. } => table,
            LocalStore::Guided(propagator) => propagator,
        }
    }
}

/// One worker's chunk-claiming evaluation loop.
///
/// Under guided enumeration a finished chunk's walk runs on past the chunk
/// to the next consistent candidate `t`, searching up to the claim's
/// [`Claim::limit`]. Every chunk wholly below `t` is refuted by this
/// worker's own patterns — and patterns only grow — so the worker claims
/// them all in one dispenser step and banks them as one idle run, at any
/// thread or shard count. Nothing in the run is evaluated, so the skip
/// count grows by exactly its candidates and serial counts are those of a
/// chunk-by-chunk walk.
fn worker_loop<'m, M: TransitionSystem>(
    model: &'m M,
    shared: &Shared<'_>,
    gen: &GenShared,
    session: &mut Option<CheckSession<'m, M>>,
) {
    let opts = shared.options;
    let mut store = if opts.pruning && opts.enumeration == Enumeration::Guided {
        LocalStore::Guided(Propagator::new())
    } else {
        LocalStore::Lex {
            table: PatternTable::new(),
            scratch: Vec::new(),
        }
    };
    let mut log_cursor = 0usize;
    let mut chunks_until_sync = 0usize;
    let total = gen.total.max(1);
    let chunk = opts.chunk_size;
    // Worker-local run of contiguous *inactive* chunks, flushed to the
    // journal writer only when an active chunk or a claim gap breaks the
    // run: on heavily-pruned generations almost every chunk is inactive,
    // and journaling each one individually puts the writer lock on the
    // enumeration fast path (measured ~8% wall on msi_xl).
    let mut idle: Option<ChunkDraft> = None;

    loop {
        if shared.stop.load(Ordering::Acquire) {
            flush_idle(shared, &mut idle);
            return;
        }
        let Some(Claim { idx, limit }) = gen.dispenser.claim(&gen.completed) else {
            flush_idle(shared, &mut idle);
            return;
        };
        gen.claims.fetch_add(1, Ordering::Relaxed);
        let lo = idx.saturating_mul(chunk);
        let hi = lo.saturating_add(chunk).min(total);
        if opts.pruning {
            // Batched pattern-log sync: pull the shared log every
            // `sync_interval` chunks instead of at every boundary, so the
            // hub lock is off the chunk fast path at large pattern volumes.
            if chunks_until_sync == 0 {
                if let Some(exchange) = &shared.exchange {
                    exchange.pump(&shared.hub, gen.k);
                }
                shared.hub.sync_into(store.sink(), &mut log_cursor);
                chunks_until_sync = opts.sync_interval;
            }
            chunks_until_sync -= 1;
        }

        // Everything this chunk produces accumulates here and is journaled
        // atomically when the chunk completes; a chunk abandoned mid-way
        // (stop request, kill) leaves no journal trace and is re-run on
        // resume against the same pattern-table state it started from.
        let mut draft = ChunkDraft::new(gen.k as u64, idx);

        // `through`: the guided walk's refuted bound — every chunk below it
        // and past this one holds no consistent candidate (`None` for the
        // lexicographic walk, which never looks past a chunk).
        let (completed, through) = match &mut store {
            LocalStore::Lex { table, scratch } => (
                run_chunk_lex(
                    model, shared, gen, lo, hi, table, scratch, session, &mut draft,
                ),
                None,
            ),
            LocalStore::Guided(propagator) => {
                let search_end = limit.saturating_mul(chunk).min(total);
                let next = run_chunk_guided(
                    model, shared, gen, lo, hi, search_end, propagator, session, &mut draft,
                );
                // A search that ran out refutes the partial last chunk too.
                let through = next.map(|t| if t >= search_end { limit } else { t / chunk });
                (next.is_some(), through)
            }
        };

        gen.bank(&draft);
        if draft.evaluated > 0 {
            gen.active_chunks.fetch_add(1, Ordering::Relaxed);
        }
        if !completed {
            // A stop request interrupted the chunk: its partial counters are
            // banked (for the report) but never journaled.
            flush_idle(shared, &mut idle);
            return;
        }
        file_chunk(shared, &mut idle, draft);

        if let Some((first, count)) =
            through
                .filter(|&through| through > idx + 1)
                .and_then(|through| {
                    gen.dispenser
                        .claim_refuted(idx + 1, through, &gen.completed)
                })
        {
            gen.claims.fetch_add(1, Ordering::Relaxed);
            let run = ChunkDraft::refuted(
                gen.k as u64,
                first,
                count,
                gen.candidates(chunk, first, count),
            );
            gen.bank(&run);
            file_chunk(shared, &mut idle, run);
        }
    }
}

/// Files a completed chunk range: an inactive one extends the worker's
/// contiguous idle run without touching the writer; anything else flushes
/// that run first (so the writer can absorb it into the active record's
/// range) and is journaled at once.
fn file_chunk(shared: &Shared<'_>, idle: &mut Option<ChunkDraft>, draft: ChunkDraft) {
    if !draft.is_inactive() {
        flush_idle(shared, idle);
        shared.journal_chunk(draft);
        return;
    }
    match idle {
        Some(run) if run.first + run.count == draft.first => {
            run.count += draft.count;
            run.skipped += draft.skipped;
            run.deduped += draft.deduped;
            run.probes += draft.probes;
        }
        _ => {
            flush_idle(shared, idle);
            *idle = Some(draft);
        }
    }
}

/// Lexicographic walk over one chunk's candidate range. Returns `false` if a
/// stop request interrupted the chunk.
#[allow(clippy::too_many_arguments)] // internal plumbing, one call site
fn run_chunk_lex<'m, M: TransitionSystem>(
    model: &'m M,
    shared: &Shared<'_>,
    gen: &GenShared,
    lo: u64,
    hi: u64,
    table: &mut PatternTable,
    scratch: &mut Vec<u64>,
    session: &mut Option<CheckSession<'m, M>>,
    draft: &mut ChunkDraft,
) -> bool {
    let opts = shared.options;
    let mut od = Odometer::over_range(gen.radices.clone(), lo as u128, hi as u128);
    'candidates: while let Some(digits) = od.current() {
        if shared.stop.load(Ordering::Acquire) {
            return false;
        }
        // Candidate pruning: one incremental cursor walk over all prefix
        // depths (trie descent + per-depth inverted-index probes); a hit
        // at depth `d` skips the entire subtree below it in O(1).
        if opts.pruning {
            let hit = table.first_pruned_depth_in(digits, gen.k, scratch);
            // The walk consults depths `0..=d` (or all `0..=k` on a miss).
            draft.probes += match hit {
                Some(d) => d as u64 + 1,
                None => gen.k as u64 + 1,
            };
            if let Some(d) = hit {
                let n = od.skip_subtree(d);
                draft.skipped += n as u64;
                continue 'candidates;
            }
        } else if gen.k > gen.prev_k && digits[gen.prev_k..gen.k].iter().all(|&x| x == 0) {
            // Naïve mode: a candidate whose new digits are all defaults
            // is identical to one already evaluated last generation.
            draft.deduped += 1;
            if !od.advance() {
                break;
            }
            continue;
        }

        // The graceful-stop sequence point: budgets, deadlines, caps,
        // and external interrupts all take effect between dispatches,
        // never inside one.
        if let Some(reason) = shared.stop_due() {
            shared.request_stop(reason);
            return false;
        }

        evaluate_candidate(model, shared, gen, digits.to_vec(), session, table, draft);

        if !od.advance() {
            break;
        }
    }
    true
}

/// Guided walk over one chunk's candidate range `[lo, hi)`: the propagator
/// jumps the odometer straight to each next consistent candidate. Visits
/// the exact candidate sequence [`run_chunk_lex`] visits against the same
/// pattern table — only the probe cost differs. The walk's last seek runs
/// on past `hi`, up to `search_end`, and its landing index — the next
/// consistent candidate, or `search_end` if there is none — is returned;
/// `None` if a stop request interrupted the chunk.
#[allow(clippy::too_many_arguments)] // internal plumbing, one call site
fn run_chunk_guided<'m, M: TransitionSystem>(
    model: &'m M,
    shared: &Shared<'_>,
    gen: &GenShared,
    lo: u64,
    hi: u64,
    search_end: u64,
    propagator: &mut Propagator,
    session: &mut Option<CheckSession<'m, M>>,
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
        if shared.stop.load(Ordering::Acquire) {
            break None;
        }
        // The graceful-stop sequence point, as in the lexicographic walk.
        if let Some(reason) = shared.stop_due() {
            shared.request_stop(reason);
            break None;
        }
        let digits = od
            .current()
            .expect("candidate below the search end")
            .to_vec();
        evaluate_candidate(
            model,
            shared,
            gen,
            digits,
            session,
            od.propagator_mut(),
            draft,
        );
        od.advance();
    };
    draft.probes += od.propagator_mut().probes() - probes_before;
    next
}

/// Hands a worker's buffered idle-chunk run to the journal writer. Chunks
/// that die in the buffer (process kill before the flush) simply re-run on
/// resume with identical counts: inactive chunks publish no patterns, so
/// their enumeration state is exactly reproduced.
fn flush_idle(shared: &Shared<'_>, idle: &mut Option<ChunkDraft>) {
    if let Some(run) = idle.take() {
        shared.journal_chunk(run);
    }
}

/// Dispatches one candidate to the model checker and files the result —
/// into the shared run state immediately, and into the chunk `draft` for
/// the journal.
fn evaluate_candidate<'m, M: TransitionSystem>(
    model: &'m M,
    shared: &Shared<'_>,
    gen: &GenShared,
    digits: Vec<u16>,
    session: &mut Option<CheckSession<'m, M>>,
    local_patterns: &mut dyn PatternSink,
    draft: &mut ChunkDraft,
) {
    let opts = shared.options;
    let known_before = shared.registry.len();
    let default = if opts.pruning {
        DiscoveryDefault::Wildcard
    } else {
        DiscoveryDefault::ActionZero
    };

    // Session dispatch resumes from the deepest checkpoint whose hole
    // resolutions this candidate leaves unchanged; one-shot dispatch checks
    // a fresh session from the initial states. The resolver's touched set
    // is hole-id-sorted so downstream consumers see thread-count-
    // independent data. Either way the verdict and failure attribution are
    // identical.
    let resolver = SharedCandidateResolver::new(shared.registry, &digits, default);
    let (outcome, touched) = if let Some(session) = session.as_mut() {
        let before = session.stats().clone();
        let outcome = session.check(&resolver);
        // Bank the session's reuse counters per candidate (a panicked check
        // resets the session, discarding its partial work — saturate).
        let after = session.stats();
        let expanded = after.states_expanded.saturating_sub(before.states_expanded);
        let reused = after.states_reused.saturating_sub(before.states_reused);
        let replays = after.checks_replayed - before.checks_replayed;
        shared.check_expanded.fetch_add(expanded, Ordering::Relaxed);
        shared.check_reused.fetch_add(reused, Ordering::Relaxed);
        shared.check_replays.fetch_add(replays, Ordering::Relaxed);
        draft.expanded += expanded;
        draft.reused += reused;
        // The run's touched set is the union of live consultations and the
        // consultations of the checkpoint-reused layers (which a fresh run
        // would have made itself); both are id-sorted, answers agree by the
        // checkpoint validity rule.
        let mut touched = resolver.into_touched();
        touched.extend(session.reused_touches());
        touched.sort_unstable();
        touched.dedup_by_key(|pair| pair.0);
        (outcome, touched)
    } else {
        let outcome = shared.checker.run_shared(model, &resolver);
        let expanded = outcome.stats().states_visited as u64;
        shared.check_expanded.fetch_add(expanded, Ordering::Relaxed);
        draft.expanded += expanded;
        (outcome, resolver.into_touched())
    };
    let run = shared.run_counter.fetch_add(1, Ordering::Relaxed) + 1;
    draft.evaluated += 1;

    let mut pattern_added = false;
    match outcome.verdict() {
        Verdict::Failure => {
            if opts.pruning {
                let entry = match opts.pattern_mode {
                    PatternMode::Exact => journal::PatternEntry::Prefix(digits.clone()),
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
                        journal::PatternEntry::Sparse(
                            relevant.iter().map(|&(h, a)| (h as u16, a)).collect(),
                        )
                    }
                };
                pattern_added = shared.hub.publish(&entry, local_patterns);
                if pattern_added {
                    draft.patterns.push(entry);
                }
            }
        }
        Verdict::Success => {
            let mut assignment: Vec<(HoleId, u16)> = touched.clone();
            assignment.sort_unstable();
            let mut solutions = shared.solutions.lock();
            if !solutions.iter().any(|s| s.assignment == assignment) {
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
                shared.quarantined.lock().push(q.clone());
                draft.quarantined.push(q);
            }
        }
    }

    if opts.record_runs {
        let wildcards = known_before.saturating_sub(gen.k);
        let discovered = shared.registry.names_from(known_before);
        shared.run_log.lock().push(RunRecord {
            run,
            candidate: CandidateVec::from_digits(&digits, wildcards),
            verdict: outcome.verdict(),
            pattern_added,
            discovered,
        });
    }
}

/// Where a hub-log pattern came from. Only [`Origin::Local`] entries are
/// exported over the cross-shard exchange (foreign entries either arrived
/// *from* it or were seeded from the coordinator's merged table, so
/// re-broadcasting them would echo forever) and reported to the coordinator
/// at round end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Published by this run's own workers (or replayed from this shard's
    /// own journal after a crash).
    Local,
    /// Seeded from a prior round's merged table, or imported from a peer
    /// shard via the exchange.
    Foreign,
}

/// Shared pruning-pattern hub: an append-only log that workers replay into
/// their thread-local tables, plus the de-duplication set that decides what
/// is new. Each distinct pattern is stored once: the set's entry and the
/// log's share one allocation.
#[derive(Debug, Default)]
struct PatternHub {
    inner: Mutex<HubInner>,
}

#[derive(Debug, Default)]
struct HubInner {
    /// Every distinct pattern filed so far, sparse ones sorted and
    /// de-duplicated as [`PatternTable::insert_sparse`] normalizes them.
    seen: FnvHashSet<Arc<journal::PatternEntry>>,
    log: Vec<(Arc<journal::PatternEntry>, Origin)>,
    dense: usize,
    sparse: usize,
}

impl HubInner {
    /// Records `entry` as seen; returns it shared, and whether it was new.
    fn see(&mut self, mut entry: journal::PatternEntry) -> (Arc<journal::PatternEntry>, bool) {
        if let journal::PatternEntry::Sparse(pairs) = &mut entry {
            pairs.sort_unstable();
            pairs.dedup();
        }
        let entry = Arc::new(entry);
        let fresh = self.seen.insert(Arc::clone(&entry));
        if fresh {
            match *entry {
                journal::PatternEntry::Prefix(_) => self.dense += 1,
                journal::PatternEntry::Sparse(_) => self.sparse += 1,
            }
        }
        (entry, fresh)
    }

    /// Logs `entry` if it is new; returns whether it was.
    fn file(&mut self, entry: journal::PatternEntry, origin: Origin) -> bool {
        let (entry, fresh) = self.see(entry);
        if fresh {
            self.log.push((entry, origin));
        }
        fresh
    }
}

impl PatternHub {
    /// Publishes a pattern a worker learned; merges it into `local` as
    /// well. Returns whether the pattern was new to the hub.
    fn publish(&self, entry: &journal::PatternEntry, local: &mut dyn PatternSink) -> bool {
        match entry {
            journal::PatternEntry::Prefix(p) => local.merge_prefix(p),
            journal::PatternEntry::Sparse(s) => local.merge_sparse(s.clone()),
        }
        self.inner.lock().file(entry.clone(), Origin::Local)
    }

    /// Replays log entries `[*cursor..]` into `local`, regardless of
    /// origin: a worker's thread-local table must hold everything the hub
    /// knows, imported patterns included.
    fn sync_into(&self, local: &mut dyn PatternSink, cursor: &mut usize) {
        let inner = self.inner.lock();
        for (entry, _) in &inner.log[*cursor..] {
            match &**entry {
                journal::PatternEntry::Prefix(p) => local.merge_prefix(p),
                journal::PatternEntry::Sparse(s) => local.merge_sparse(s.clone()),
            }
        }
        *cursor = inner.log.len();
    }

    /// Seeds the hub (before any worker starts): entries are marked seen
    /// and logged, so every worker picks them up from cursor 0 exactly as
    /// live publications. Journal-replay seeds in a whole-space run and
    /// merged-table seeds in a shard run are both `Foreign` (nothing to
    /// re-export); a shard resuming its *own* journal seeds `Local`, so its
    /// pre-crash learnings still reach peers and the coordinator.
    fn seed_with(&self, entries: Vec<journal::PatternEntry>, origin: Origin) {
        let mut inner = self.inner.lock();
        for entry in entries {
            let (entry, _) = inner.see(entry);
            inner.log.push((entry, origin));
        }
    }

    fn seed(&self, entries: Vec<journal::PatternEntry>) {
        self.seed_with(entries, Origin::Foreign);
    }

    /// Imports peer-shard patterns: new-to-this-hub entries join the log
    /// as `Foreign`, from where the ordinary worker sync merges them into
    /// every local table and propagator. Entries referencing holes at or
    /// beyond `width` (the frontier `k`) are dropped — no candidate in this
    /// generation constrains those holes, and a well-formed peer at the
    /// same frontier never sends them.
    fn import(&self, entries: impl Iterator<Item = journal::PatternEntry>, width: usize) {
        let mut inner = self.inner.lock();
        for entry in entries {
            let in_range = match &entry {
                journal::PatternEntry::Prefix(p) => p.len() <= width,
                journal::PatternEntry::Sparse(s) => s.iter().all(|&(h, _)| (h as usize) < width),
            };
            if in_range {
                inner.file(entry, Origin::Foreign);
            }
        }
    }

    /// Drains `Local` log entries past `cursor` for export to peer shards.
    fn export_locals(&self, cursor: &mut usize) -> Vec<journal::PatternEntry> {
        let inner = self.inner.lock();
        let out = locals_of(&inner.log[*cursor..]);
        *cursor = inner.log.len();
        out
    }

    /// Every `Local` log entry — what a shard reports to the coordinator.
    fn locals(&self) -> Vec<journal::PatternEntry> {
        locals_of(&self.inner.lock().log)
    }

    /// Distinct `(dense prefix, sparse)` pattern counts recorded.
    fn counts(&self) -> (usize, usize) {
        let inner = self.inner.lock();
        (inner.dense, inner.sparse)
    }
}

/// The `Local` entries of a hub-log slice, in log order.
fn locals_of(log: &[(Arc<journal::PatternEntry>, Origin)]) -> Vec<journal::PatternEntry> {
    log.iter()
        .filter(|(_, origin)| *origin == Origin::Local)
        .map(|(entry, _)| (**entry).clone())
        .collect()
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
    fn sync_interval_is_result_invariant() {
        // Serial: batching the pattern-log pull must not perturb the exact
        // Figure-2 run (the worker's local table already holds everything it
        // published itself).
        let model = GraphModel::worked_example();
        let base = Synthesizer::new(SynthOptions::default().record_runs(true)).run(&model);
        let batched = Synthesizer::new(SynthOptions::default().record_runs(true).sync_interval(64))
            .run(&model);
        assert_eq!(batched.stats().evaluated, base.stats().evaluated);
        assert_eq!(batched.stats().patterns, base.stats().patterns);

        // Parallel: staler local tables may shift evaluated counts, never
        // the solution set.
        for seed in 500..505 {
            let model = GraphModel::random(seed, 6, 3);
            let seq = Synthesizer::new(SynthOptions::default()).run(&model);
            for interval in [2usize, 16] {
                let par =
                    Synthesizer::new(SynthOptions::default().threads(4).sync_interval(interval))
                        .run(&model);
                assert_eq!(
                    solution_set(&par),
                    solution_set(&seq),
                    "seed {seed} interval {interval}"
                );
            }
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
