//! Check sessions: the checker's one exploration driver, with incremental
//! prefix re-verification.
//!
//! Every check runs here. The one-shot entry points ([`Checker::run`],
//! [`Checker::run_with`], [`Checker::run_shared`]) check once on a fresh
//! session; the synthesis loop holds one session per worker across
//! thousands of candidate evaluations against *one* model. Consecutive
//! candidates usually differ only in late-firing holes: everything the
//! checker would explore before the first rule application that consults a
//! changed hole is identical between them. A fresh session rebuilds that
//! shared prefix from scratch on every dispatch; a held [`CheckSession`]
//! keeps it.
//!
//! ## How reuse works
//!
//! A session explores in layer-synchronized BFS order and, at every layer
//! boundary, records a **checkpoint** — the committed-store length, the
//! statistics, and the reachability flags at that point (the store itself
//! is append-only, so a checkpoint is three scalars and a bitvector, not a
//! copy of the state space) — together with a **hole-touch log**: every
//! `(hole, answer)` pair the expansion of that layer consulted, wildcard
//! answers included.
//!
//! On the next [`CheckSession::check`], the session walks the logs in layer
//! order and asks the *new* resolver (via
//! [`SessionResolver::assignment`]) what it would answer each recorded
//! consultation. Expansion of a layer is a deterministic function of the
//! committed frontier and those answers, so the first layer with any
//! changed answer is the first layer that could diverge — the session
//! rolls back to the checkpoint *before* it (truncating the store and
//! evicting the truncated ids from the visited set) and resumes live
//! exploration there. Candidates sharing a deep resolution prefix therefore
//! resume from a deep checkpoint; in the worst case (answers changed in
//! layer 0) the session still reuses the canonicalized initial states,
//! which are computed exactly once per session.
//!
//! The same walk continues past the sealed layers into the **stop log**:
//! the consultations the previous check made in the layer where it stopped,
//! up to the rule application or state that stopped it, kept beside that
//! check's **ending** (verdict, failure, incomplete reason). A stop is fixed
//! by the same prefix as a layer: an invariant violation, a deadlock, the
//! state cap, or the post-pass over a complete store (whose stop log is
//! empty). So when every sealed log and the stop log repeat, the new check
//! **replays**: it returns the stored ending with no rollback, rule
//! application, canonicalization or visited-set churn, and leaves the store
//! exactly as a re-run would. A synthesis sweep then pays for the
//! candidates that change a consulted answer, not again for a stop layer
//! the session has already explored. One-shot checks log nothing and never
//! replay.
//!
//! Inside the layers a check does explore, reuse is per state. The session
//! keeps one **expansion record** per fully expanded state (the `records`
//! module): the rule applications that consulted a hole or did not return
//! `Disabled`, with their touches, wildcard holes and outcomes, successors
//! named by committed id. When the new resolver answers every consultation
//! of a frontier state's record the same way — the rule the layer logs
//! follow — the state's expansion is walked from the record: no rule is
//! applied and no successor is canonicalized or hashed. Rollback moves the
//! truncated states aside with their records until the check returns, so a
//! state the check commits again adopts its old record, and a record's
//! successor still in that tail is committed from there.
//! [`SessionStats::expansions_reused`] counts these expansions.
//!
//! ## One walk, two schedules
//!
//! Every expansion is committed by the one walk of the [`super::parallel`]
//! module, in BFS order. The effective thread count picks how its words
//! are produced: at one thread the serial schedule applies each rule in
//! place and walks the application at once (measurably faster than
//! drafting a whole state first), so it applies no rule past the
//! application that stops the check; with more threads the parallel engine
//! drafts the layer and walks the drafts, so consultations past a stop
//! never reach a checkpoint log.
//!
//! ## Equivalence contract
//!
//! Every `check` is observationally identical to a fresh run of the same
//! model and resolver: verdict, the full [`Stats`], failure kind / property
//! / touched attribution, the counterexample trace, and the kept graph all
//! match bit for bit, at any [`CheckerOptions::threads`] count. Both
//! schedules are held to the reference serial BFS (the `reference` module)
//! by `tests/session_equivalence.rs` and
//! `tests/checker_parallel_equivalence.rs`.

use super::parallel::{Engine, LayerTouch, Refs, Walk};
use super::records::{push_app, BLOCKED, DISABLED, HELD};
use super::{fingerprint, CheckerOptions, Failure, Outcome, SearchCore, Stats, Verdict};
use crate::error::MckError;
use crate::eval::{HoleResolver, SessionResolver, SharedResolver};
use crate::model::TransitionSystem;
use crate::rule::RuleOutcome;
use std::time::Instant;

#[cfg(doc)]
use super::Checker;

/// Snapshot of the search at a layer boundary: layers `0..=d` committed,
/// layers `0..d` expanded, frontier = layer `d`. The committed store is
/// append-only, so the snapshot is positional — no states are copied.
#[derive(Debug, Clone)]
struct Checkpoint {
    /// Committed-store length (exclusive end of the frontier layer).
    committed: usize,
    /// First id of the frontier layer.
    frontier_start: usize,
    stats: Stats,
    reach_found: Vec<bool>,
}

/// How the most recent check ended, kept so that the next check can replay
/// it (see the module docs).
#[derive(Debug)]
struct Ending<S> {
    /// Consultations made in the stop layer up to the application or state
    /// that stopped the check (sorted, de-duplicated; empty when the
    /// post-pass ended it over a complete store).
    stop_log: Vec<LayerTouch>,
    verdict: Verdict,
    failure: Option<Failure<S>>,
    incomplete: Option<MckError>,
}

/// Where a check starts, and afterwards how the most recent check started
/// (what [`CheckSession::reused_touches`] reports).
#[derive(Debug, Clone, Copy)]
enum Resume {
    /// From the initial states: no checkpoint exists yet.
    Fresh,
    /// Live from checkpoint `d`, inheriting layers `0..d`.
    At(usize),
    /// Nowhere: every sealed layer and the stop log repeat, so the check
    /// returns the previous ending.
    Replay,
}

/// Cumulative reuse counters of one [`CheckSession`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Number of [`CheckSession::check`] calls completed.
    pub checks: u64,
    /// States committed by live exploration across all checks: by the
    /// layers a check explored after its resume point, whether the
    /// expansions that produced them applied the rules or were taken from
    /// expansion records ([`SessionStats::expansions_reused`]).
    pub states_expanded: u64,
    /// States inherited from checkpoints instead of being re-expanded — the
    /// work a per-candidate restart would have repeated. A replayed check
    /// inherits the whole committed store, so `states_expanded +
    /// states_reused` always equals what one-shot checks would commit.
    pub states_reused: u64,
    /// Fully-expanded BFS layers resumed past, summed over checks (a
    /// replayed check counts every sealed layer).
    pub layers_reused: u64,
    /// Checks that replayed the previous check's ending because every
    /// consultation it made repeated: no layer was expanded at all.
    pub checks_replayed: u64,
    /// States whose expansion a live layer took from the state's expansion
    /// record, because every consultation the record lists repeated: no
    /// rule was applied to them, and none of their successors was
    /// canonicalized or hashed.
    pub expansions_reused: u64,
}

impl SessionStats {
    /// Fraction of all committed states that were reused rather than
    /// expanded (0.0 when nothing was committed yet).
    pub fn reuse_rate(&self) -> f64 {
        let total = self.states_expanded + self.states_reused;
        if total == 0 {
            0.0
        } else {
            self.states_reused as f64 / total as f64
        }
    }
}

/// How one layer ended: `Err` carries the outcome of a check that stopped
/// inside it. Either way the layer's hole-touch log comes along, sorted and
/// de-duplicated: the log to seal, or the stop log.
type Layer<S> = (Result<(), Box<Outcome<S>>>, Vec<LayerTouch>);

/// A reusable checker instance over one model: owns the visited set, the
/// committed state store, the canonical initial states, the per-layer
/// checkpoints, and (through the parallel engine) a persistent worker pool
/// when `threads > 1`.
///
/// Created by [`Checker::session`]. Checks resume from the deepest BFS
/// checkpoint whose recorded hole resolutions the new resolver answers
/// identically, or replay the previous check's ending when it answers
/// every recorded resolution identically, and every check stays
/// observationally identical to a fresh run of the same candidate.
pub struct CheckSession<'a, M: TransitionSystem> {
    core: SearchCore<'a, M>,
    /// The exploration engine: visited set, committed fingerprints, claim
    /// table, worker pool, chunk auto-tuner, and name-cache bank. The
    /// serial loop uses only its committed index and cache bank.
    engine: Engine<M::State>,
    /// Effective thread count ([`CheckerOptions::effective_threads`] at
    /// session creation, or the last [`CheckSession::set_threads`]).
    threads: usize,
    /// Canonicalized initial states, computed once at session creation.
    initial: Vec<M::State>,
    checkpoints: Vec<Checkpoint>,
    /// `layer_touches[d]` = consultations made while expanding layer `d`;
    /// always exactly one entry shorter than `checkpoints` once the initial
    /// layer is committed.
    layer_touches: Vec<Vec<LayerTouch>>,
    /// How the most recent check ended, for the next one to replay; `None`
    /// until a check has explored past the initial states.
    ending: Option<Ending<M::State>>,
    /// How the most recent check started.
    last_resume: Resume,
    stats: SessionStats,
}

impl<M: TransitionSystem> std::fmt::Debug for CheckSession<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckSession")
            .field("model", &self.core.model.name())
            .field("threads", &self.threads)
            .field("committed", &self.core.states.len())
            .field("checkpoints", &self.checkpoints.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<'a, M: TransitionSystem> CheckSession<'a, M> {
    pub(super) fn new(model: &'a M, options: CheckerOptions) -> Self {
        let threads = options.effective_threads();
        let initial: Vec<M::State> = model
            .initial_states()
            .into_iter()
            .map(|s| model.canonicalize(s))
            .collect();
        let engine = Engine::new(&options);
        let mut core = SearchCore::new(model, options);
        // A held session's store must survive finish() (graphs are cloned
        // out, never moved) and its layers are logged for resumption; the
        // one-shot entry points flip this back.
        core.one_shot = false;
        CheckSession {
            core,
            engine,
            threads,
            initial,
            checkpoints: Vec::new(),
            layer_touches: Vec::new(),
            ending: None,
            last_resume: Resume::Fresh,
            stats: SessionStats::default(),
        }
    }

    /// The session's cumulative reuse counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// The model this session explores.
    pub fn model(&self) -> &M {
        self.core.model
    }

    /// The *effective* thread count the next check will use: the requested
    /// [`CheckerOptions::threads`] after the availability clamp
    /// ([`CheckerOptions::clamp_threads`]).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Retargets the session to a new thread count before the next
    /// [`CheckSession::check`]. The worker pool is rebuilt to match (on the
    /// next parallel layer) instead of silently keeping its old size;
    /// checkpoints and the committed store are unaffected — thread count
    /// never changes what a check observes, only how fast it runs.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn set_threads(&mut self, threads: usize) {
        assert!(threads > 0, "at least one checker thread is required");
        self.core.options.threads = threads;
        self.threads = self.core.options.effective_threads();
        self.engine.set_threads(self.threads);
    }

    /// The concrete `(hole, action)` resolutions consulted by the layers
    /// the most recent [`CheckSession::check`] inherited from checkpoints —
    /// consultations a fresh run of the same candidate would have made but
    /// the session skipped. After a replayed check that is every sealed
    /// layer plus the stop log. Sorted by hole id, de-duplicated.
    ///
    /// Callers reconstructing a run's full touched set (e.g. to identify a
    /// verified solution by the holes it depends on) must union this with
    /// the resolver's live consultation log; the two partitions are
    /// disjoint in coverage but agree on every answer by the checkpoint
    /// validity rule.
    pub fn reused_touches(&self) -> Vec<(usize, u16)> {
        let (layers, stop): (usize, &[LayerTouch]) = match (self.last_resume, &self.ending) {
            (Resume::At(depth), _) => (depth, &[]),
            (Resume::Replay, Some(ending)) => (self.layer_touches.len(), &ending.stop_log),
            _ => (0, &[]),
        };
        let mut out: Vec<(usize, u16)> = self.layer_touches[..layers]
            .iter()
            .flatten()
            .chain(stop)
            .filter_map(|&(hole, answer)| answer.map(|action| (hole, action)))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Verifies the model under `resolver`, reusing as much of the previous
    /// check's exploration as the resolver's answers allow.
    ///
    /// The outcome is bit-identical (verdict, statistics, failure
    /// attribution, trace, graph) to a fresh run of the same candidate —
    /// reuse is invisible except in wall-clock time and
    /// [`CheckSession::stats`].
    ///
    /// A panic in user protocol code (a rule, an invariant, the resolver)
    /// is caught and reported as a [`Verdict::Unknown`] outcome carrying
    /// [`MckError::CandidatePanicked`]. Because the panic may interrupt the
    /// search mid-layer, the session discards its store and checkpoints —
    /// the next check re-explores from the initial states (bit-identical to
    /// a fresh session by the equivalence contract), and the worker pool,
    /// claim table, and session itself remain fully usable.
    pub fn check(&mut self, resolver: &dyn SessionResolver) -> Outcome<M::State> {
        self.isolated(|session, start| session.check_inner(start, resolver))
    }

    /// One check of a fresh session through a thread-shareable resolver
    /// ([`Checker::run_shared`]). Nothing is resumed, so the resolver is
    /// never asked for a [`SessionResolver::assignment`].
    pub(super) fn check_once<R: SharedResolver + ?Sized>(self, resolver: &R) -> Outcome<M::State> {
        self.once(|session, start| session.explore(start, resolver, None))
    }

    /// One serial check of a fresh session that expands in the caller's
    /// exclusive resolver ([`Checker::run_with`]).
    pub(super) fn check_once_with(self, worker: &mut dyn HoleResolver) -> Outcome<M::State> {
        self.once(|session, start| {
            session.drive(start, |s, f0, f1| {
                s.run_layer_serial(start, f0, f1, &mut *worker, None)
            })
        })
    }

    /// Runs `explore` from the initial states of a session that is dropped
    /// right after (see [`SearchCore::one_shot`]).
    fn once(
        mut self,
        explore: impl FnOnce(&mut Self, Instant) -> Outcome<M::State>,
    ) -> Outcome<M::State> {
        self.core.one_shot = true;
        self.isolated(|session, start| match session.start_fresh(start) {
            Some(outcome) => outcome,
            None => explore(session, start),
        })
    }

    /// Runs one check body with panic isolation: a panic becomes an
    /// [`Outcome::panicked`] and resets the session.
    fn isolated(
        &mut self,
        body: impl FnOnce(&mut Self, Instant) -> Outcome<M::State>,
    ) -> Outcome<M::State> {
        let start = Instant::now();
        // AssertUnwindSafe: on panic every structure the interrupted check
        // could have left inconsistent (store, visited index, checkpoint
        // logs, engine claim table) is wiped by `reset` below before the
        // session can be observed again.
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut *self, start)));
        match caught {
            Ok(outcome) => outcome,
            Err(payload) => {
                self.reset();
                Outcome::panicked(
                    self.core.model.name(),
                    start.elapsed(),
                    crate::error::panic_message(&*payload),
                )
            }
        }
    }

    /// The panic-unsafe body of [`CheckSession::check`].
    fn check_inner(&mut self, start: Instant, resolver: &dyn SessionResolver) -> Outcome<M::State> {
        self.stats.checks += 1;
        self.last_resume = self.resume_point(resolver);
        match self.last_resume {
            Resume::Fresh => {
                // First check (or the initial phase never completed): start
                // from scratch, from the cached canonical initial states.
                if let Some(outcome) = self.start_fresh(start) {
                    self.stats.states_expanded += self.core.states.len() as u64;
                    return outcome;
                }
            }
            Resume::At(depth) => {
                self.rollback(depth);
                let reused = self.checkpoints[depth].committed;
                self.stats.states_reused += reused as u64;
                self.stats.layers_reused += depth as u64;
                let outcome = self.explore(start, resolver, Some(resolver));
                self.engine.records.end_check();
                self.stats.states_expanded += (self.core.states.len() - reused) as u64;
                self.stats.expansions_reused += self.engine.records.take_reused();
                return outcome;
            }
            Resume::Replay => {
                self.stats.checks_replayed += 1;
                self.stats.states_reused += self.core.states.len() as u64;
                self.stats.layers_reused += self.layer_touches.len() as u64;
                // The store, statistics and reachability flags are exactly
                // what the previous check left, which is what a re-run
                // would leave.
                let ending = self.ending.as_ref().expect("replay without an ending");
                return self.core.finish(
                    start,
                    ending.verdict,
                    ending.failure.clone(),
                    ending.incomplete.clone(),
                );
            }
        }
        // A fresh start forgets every record, and a check expands each
        // state once: nothing is reused.
        let outcome = self.explore(start, resolver, Some(resolver));
        self.stats.states_expanded += self.core.states.len() as u64;
        outcome
    }

    /// Where the new resolver's check starts, found in one walk over the
    /// logs in exploration order: the first sealed layer whose recorded
    /// consultations it answers differently invalidates everything at and
    /// beyond it; past the last sealed layer the walk continues into the
    /// previous check's stop log, and if that repeats too the check
    /// replays.
    fn resume_point(&self, resolver: &dyn SessionResolver) -> Resume {
        if self.checkpoints.is_empty() {
            return Resume::Fresh;
        }
        debug_assert_eq!(self.checkpoints.len(), self.layer_touches.len() + 1);
        let repeats = |log: &[LayerTouch]| {
            log.iter()
                .all(|&(hole, answer)| resolver.assignment(hole) == answer)
        };
        match self.layer_touches.iter().position(|log| !repeats(log)) {
            Some(depth) => Resume::At(depth),
            None => match &self.ending {
                Some(ending) if repeats(&ending.stop_log) => Resume::Replay,
                _ => Resume::At(self.layer_touches.len()),
            },
        }
    }

    /// Forgets everything: empty store, empty visited set, no checkpoints.
    fn reset(&mut self) {
        self.core.states.clear();
        self.core.depth.clear();
        self.core.pred.clear();
        self.core.edge_touches.clear();
        if let Some(edges) = &mut self.core.edges {
            edges.clear();
        }
        self.core.reach_found.fill(false);
        self.core.stats = Stats::default();
        self.engine.reset();
        self.checkpoints.clear();
        self.layer_touches.clear();
        self.ending = None;
        // Stale resume depths index into the (now empty) touch log;
        // `reused_touches` right after a reset must see an empty reuse set.
        self.last_resume = Resume::Fresh;
    }

    /// Rolls the search back to `checkpoints[depth]`: truncates the
    /// committed store, evicting truncated ids from the visited set and
    /// moving the truncated states aside with their expansion records until
    /// the check ends, clears the frontier layer's (stale) edge lists,
    /// restores the checkpoint's statistics and reachability flags, and
    /// drops the previous ending, which described the store being
    /// truncated.
    fn rollback(&mut self, depth: usize) {
        let keep = self.checkpoints[depth].committed;
        let frontier_start = self.checkpoints[depth].frontier_start;
        // Free what the tail does not keep before the tail is built.
        self.ending = None;
        self.core.depth.truncate(keep);
        self.core.pred.truncate(keep);
        self.core.edge_touches.truncate(keep);
        if let Some(edges) = &mut self.core.edges {
            edges.truncate(keep);
            // The frontier layer was (at least partly) expanded by the
            // previous check; its outgoing edges will be re-recorded live.
            for list in &mut edges[frontier_start..] {
                list.clear();
            }
        }
        let tail = self.core.states.split_off(keep);
        self.engine.truncate_committed(keep, frontier_start, tail);
        self.core.stats = self.checkpoints[depth].stats.clone();
        self.core
            .reach_found
            .clone_from(&self.checkpoints[depth].reach_found);
        self.checkpoints.truncate(depth + 1);
        self.layer_touches.truncate(depth);
    }

    /// Seals the current committed prefix as a checkpoint whose frontier
    /// starts at `frontier_start`.
    fn push_checkpoint(&mut self, frontier_start: usize) {
        self.checkpoints.push(Checkpoint {
            committed: self.core.states.len(),
            frontier_start,
            stats: self.core.stats.clone(),
            reach_found: self.core.reach_found.clone(),
        });
    }

    /// Starts a check from scratch: forgets everything, commits the cached
    /// canonical initial states (admission clamp and initial invariant
    /// checks included), and seals them as checkpoint 0. `Some(outcome)`
    /// ends the check here.
    fn start_fresh(&mut self, start: Instant) -> Option<Outcome<M::State>> {
        if self.initial.is_empty() {
            return Some(self.core.finish(
                start,
                Verdict::Unknown,
                None,
                Some(MckError::NoInitialStates),
            ));
        }
        self.reset();
        for i in 0..self.initial.len() {
            let state = self.initial[i].clone();
            let hash = fingerprint(&state);
            if self
                .engine
                .find_committed(hash, &state, &self.core.states)
                .is_some()
            {
                continue;
            }
            if let Err(outcome) = self.core.admit(start) {
                return Some(*outcome);
            }
            let id = self.core.commit(state, None, &[]);
            self.engine
                .insert_committed(hash, id, &self.core.states[id as usize]);
            if let Some(name) = self.core.violated_invariant(id) {
                let property = name.to_owned();
                return Some(self.core.invariant_failure(start, id, property));
            }
        }
        self.push_checkpoint(0);
        None
    }

    /// Drives layers from the current frontier to an outcome — serially or
    /// through the parallel engine, by the effective thread count. A held
    /// session's check passes its resolver again as `answers`, which logs
    /// the layers and records and reuses expansions; a one-shot check
    /// passes `None`.
    fn explore<R: SharedResolver + ?Sized>(
        &mut self,
        start: Instant,
        resolver: &R,
        answers: Option<&dyn SessionResolver>,
    ) -> Outcome<M::State> {
        if self.threads > 1 {
            return self.drive(start, |s, f0, f1| {
                s.run_layer_parallel(start, f0, f1, resolver, answers)
            });
        }
        // One worker resolver for the whole check, seeded with the previous
        // check's name cache and drained back when the check ends.
        let mut worker = resolver.worker_seeded(self.engine.pop_name_cache());
        let outcome = self.drive(start, |s, f0, f1| {
            s.run_layer_serial(start, f0, f1, &mut *worker, answers)
        });
        self.engine.push_name_cache(worker.take_name_cache());
        outcome
    }

    /// Expands frontier layers `[f0, f1)` with `layer` until one ends the
    /// check (an empty frontier ends it in the post-pass), sealing a
    /// checkpoint after every fully-expanded layer, and (for a held
    /// session) keeps the ending and its stop log for the next check to
    /// replay.
    fn drive(
        &mut self,
        start: Instant,
        mut layer: impl FnMut(&mut Self, usize, usize) -> Layer<M::State>,
    ) -> Outcome<M::State> {
        loop {
            let checkpoint = self.checkpoints.last().expect("explore without checkpoint");
            let (f0, f1) = (checkpoint.frontier_start, checkpoint.committed);
            let (walked, log) = if f0 == f1 {
                (Err(Box::new(self.core.analyze(start, None))), Vec::new())
            } else {
                layer(self, f0, f1)
            };
            let Err(outcome) = walked else {
                self.layer_touches.push(log);
                self.push_checkpoint(f1);
                continue;
            };
            if !self.core.one_shot {
                self.ending = Some(Ending {
                    stop_log: log,
                    verdict: outcome.verdict,
                    failure: outcome.failure.clone(),
                    incomplete: outcome.incomplete.clone(),
                });
            }
            return *outcome;
        }
    }

    /// Expands frontier layer `[f0, f1)` in place, in BFS order: each rule
    /// application is committed through the walk's step as soon as it is
    /// applied, so the check stops (including mid-layer fail-fast) with no
    /// rule applied past the application that stops it. A state whose
    /// expansion record is valid under `session` (a held session's check)
    /// is walked from the record instead.
    ///
    /// The single worker numbers its deferred discoveries in its
    /// consultation order, which *is* the serial order; a held session's
    /// check registers them at the layer end (or at the stop) through
    /// `session`, so the log names them by id. A one-shot check leaves them
    /// with the worker, logs nothing and records nothing.
    fn run_layer_serial(
        &mut self,
        start: Instant,
        f0: usize,
        f1: usize,
        worker: &mut dyn HoleResolver,
        session: Option<&dyn SessionResolver>,
    ) -> Layer<M::State> {
        let mut walk = Walk::new(session.is_some());
        let mut draft: Vec<u32> = Vec::new();
        let mut walked = Ok(());
        for sid in f0..f1 {
            walk.begin_state(&mut self.core, sid);
            walked = if session.is_some_and(|answers| self.engine.records.valid(sid, answers)) {
                self.engine
                    .walk_record(&mut self.core, &mut walk, start, sid)
            } else {
                self.expand_in_place(start, sid, worker, &mut walk, &mut draft)
            };
            if walked.is_err() {
                break;
            }
        }
        if session.is_some() {
            walk.end_scope(worker.take_pending_discoveries());
        }
        (walked, walk.end_layer(session))
    }

    /// Applies every rule to frontier state `sid` on the calling thread,
    /// writing each application into `draft` and walking it at once.
    fn expand_in_place(
        &mut self,
        start: Instant,
        sid: usize,
        worker: &mut dyn HoleResolver,
        walk: &mut Walk,
        draft: &mut Vec<u32>,
    ) -> Result<(), Box<Outcome<M::State>>> {
        let model = self.core.model;
        let state = self.core.states[sid].clone();
        let mut refs = Refs::none();
        draft.clear();
        for (ri, rule) in model.rules().iter().enumerate() {
            worker.begin_application();
            let word = match rule.apply(&state, worker) {
                RuleOutcome::Disabled => DISABLED,
                RuleOutcome::Blocked => BLOCKED,
                RuleOutcome::Next(next) => {
                    let next = model.canonicalize(next);
                    let hash = fingerprint(&next);
                    match self.engine.find_committed(hash, &next, &self.core.states) {
                        Some(id) => id,
                        None => {
                            refs.held = Some((next, hash));
                            HELD
                        }
                    }
                }
            };
            // Only a held session's check logs wildcards and discoveries.
            let (wildcards, fresh) = if walk.session {
                (
                    worker.application_wildcards(),
                    worker.application_fresh_touches(),
                )
            } else {
                (&[][..], &[][..])
            };
            let at = draft.len();
            if push_app(
                draft,
                ri,
                worker.application_touches(),
                wildcards,
                fresh,
                word,
            ) {
                let app = &mut draft[at..];
                self.engine
                    .step(&mut self.core, walk, start, sid, app, &mut refs)?;
            }
        }
        self.engine
            .end_state(&mut self.core, walk, start, sid, draft, true)
    }

    /// Expands frontier layer `[f0, f1)` through the parallel engine, whose
    /// workers draft it, then walks the drafts in the serial order; the
    /// layer's hole-touch log (or stop log) comes from the walk, so
    /// consultations the walk never reaches (past a stop) never reach a
    /// checkpoint log. A held session's check (`answers` present) takes the
    /// expansions of states with valid records from the records and records
    /// the rest.
    fn run_layer_parallel<R: SharedResolver + ?Sized>(
        &mut self,
        start: Instant,
        f0: usize,
        f1: usize,
        resolver: &R,
        answers: Option<&dyn SessionResolver>,
    ) -> Layer<M::State> {
        let chunks = self
            .engine
            .expand_layer(&self.core, resolver, answers, f0, f1);
        let mut walk = Walk::new(answers.is_some());
        let walked = self
            .engine
            .walk_layer(&mut self.core, &mut walk, start, f0, chunks);
        (walked, walk.end_layer(Some(resolver)))
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests_support::assert_same_outcome;
    use super::super::{Checker, CheckerOptions};
    use super::*;
    use crate::eval::{Choice, HoleSpec, NameCache, NoHoles, SharedResolver, WildcardTouch};
    use crate::model::ModelBuilder;
    use parking_lot::Mutex;
    use std::collections::BTreeSet;

    /// A minimal session resolver over pre-registered holes named "h0",
    /// "h1", …: hole id = the numeric suffix, answers from a fixed table.
    /// Tracks touches and wildcards the way the synthesis resolvers do,
    /// including the run's touched set: workers publish their concrete
    /// consultations, expansion workers leave that to the walk.
    #[derive(Debug)]
    struct TableResolver {
        answers: Vec<Option<u16>>,
        touched: Mutex<BTreeSet<(usize, u16)>>,
    }

    impl TableResolver {
        fn new(answers: Vec<Option<u16>>) -> Self {
            TableResolver {
                answers,
                touched: Mutex::default(),
            }
        }

        fn table_worker(&self, publish: bool) -> Box<dyn HoleResolver + '_> {
            Box::new(TableWorker {
                shared: self,
                publish,
                touches: Vec::new(),
                wildcards: Vec::new(),
            })
        }
    }

    struct TableWorker<'a> {
        shared: &'a TableResolver,
        publish: bool,
        touches: Vec<(usize, u16)>,
        wildcards: Vec<WildcardTouch>,
    }

    impl SharedResolver for TableResolver {
        fn worker(&self) -> Box<dyn HoleResolver + '_> {
            self.table_worker(true)
        }

        fn expansion_worker(&self, _seed: NameCache) -> Box<dyn HoleResolver + '_> {
            self.table_worker(false)
        }

        fn note_replayed_touches(&self, touches: &[(usize, u16)]) {
            self.touched.lock().extend(touches.iter().copied());
        }
    }

    impl SessionResolver for TableResolver {
        fn assignment(&self, hole: usize) -> Option<u16> {
            self.answers.get(hole).copied().flatten()
        }
    }

    impl HoleResolver for TableWorker<'_> {
        fn choose(&mut self, spec: &HoleSpec) -> Choice {
            let id: usize = spec
                .name()
                .strip_prefix('h')
                .and_then(|s| s.parse().ok())
                .expect("test holes are named hN");
            match self.shared.assignment(id) {
                Some(action) => {
                    if !self.touches.iter().any(|&(h, _)| h == id) {
                        self.touches.push((id, action));
                    }
                    if self.publish {
                        self.shared.touched.lock().insert((id, action));
                    }
                    Choice::Action(action as usize)
                }
                None => {
                    self.wildcards.push(WildcardTouch::Known(id));
                    Choice::Wildcard
                }
            }
        }

        fn begin_application(&mut self) {
            self.touches.clear();
            self.wildcards.clear();
        }

        fn application_touches(&self) -> &[(usize, u16)] {
            &self.touches
        }

        fn application_wildcards(&self) -> &[WildcardTouch] {
            &self.wildcards
        }
    }

    /// A hole chain: hole 0 decides at depth 1, hole 1 at depth 4, and
    /// hole 2 only in state 43 (reached by h1 = "w"), whose "stay" action
    /// deadlocks it. State space: 0 -> 1..=3 -> ... linear walk whose
    /// branches depend on the holes at different depths.
    fn layered_model() -> crate::model::BuiltModel<u8> {
        let mut b = ModelBuilder::new("layered");
        b.initial(0u8);
        b.rule("step", |&s: &u8, ctx| {
            match s {
                0 => {
                    let spec = HoleSpec::new("h0", ["a", "b"]);
                    match ctx.choose(&spec) {
                        Choice::Action(i) => RuleOutcome::Next(1 + i as u8),
                        Choice::Wildcard => RuleOutcome::Blocked,
                    }
                }
                1..=9 => RuleOutcome::Next(s + 10),
                11..=19 => RuleOutcome::Next(s + 10),
                21..=29 => {
                    let spec = HoleSpec::new("h1", ["x", "y", "z", "w"]);
                    match ctx.choose(&spec) {
                        Choice::Action(i) => RuleOutcome::Next(40 + i as u8),
                        Choice::Wildcard => RuleOutcome::Blocked,
                    }
                }
                40..=42 => RuleOutcome::Next(40), // quiescent cycle
                43 => {
                    let spec = HoleSpec::new("h2", ["stay", "leave"]);
                    match ctx.choose(&spec) {
                        Choice::Action(0) => RuleOutcome::Disabled,
                        Choice::Action(_) => RuleOutcome::Next(40),
                        Choice::Wildcard => RuleOutcome::Blocked,
                    }
                }
                _ => RuleOutcome::Disabled,
            }
        });
        b.invariant("no forbidden", |&s: &u8| s != 42);
        b.finish()
    }

    #[test]
    fn repeated_identical_checks_reuse_everything() {
        let model = layered_model();
        let checker = Checker::new(CheckerOptions::default().allow_deadlock());
        let mut session = checker.session(&model);
        let resolver = TableResolver::new(vec![Some(0), Some(1)]);
        let first = session.check(&resolver);
        let expanded_after_first = session.stats().states_expanded;
        let second = session.check(&resolver);
        assert_same_outcome(&second, &first, "identical re-check");
        assert_eq!(
            session.stats().states_expanded,
            expanded_after_first,
            "an identical candidate must expand nothing"
        );
        assert!(session.stats().states_reused > 0);
    }

    #[test]
    fn deep_hole_change_reuses_shallow_prefix() {
        let model = layered_model();
        let checker = Checker::new(CheckerOptions::default().allow_deadlock());
        let mut session = checker.session(&model);
        // h1 is first consulted at depth 4; changing it must preserve the
        // layers before that.
        let a = TableResolver::new(vec![Some(0), Some(0)]);
        let b = TableResolver::new(vec![Some(0), Some(1)]);
        let out_a = session.check(&a);
        let fresh_b = checker.session(&model).check(&b);
        let out_b = session.check(&b);
        assert_same_outcome(&out_b, &fresh_b, "deep-change re-check");
        assert!(out_a.is_success());
        assert!(
            session.stats().layers_reused >= 3,
            "layers before the deep hole must be reused, got {:?}",
            session.stats()
        );
    }

    #[test]
    fn shallow_hole_change_invalidates_deep_checkpoints() {
        let model = layered_model();
        let checker = Checker::new(CheckerOptions::default().allow_deadlock());
        let mut session = checker.session(&model);
        let a = TableResolver::new(vec![Some(0), Some(0)]);
        let b = TableResolver::new(vec![Some(1), Some(0)]);
        let out_a = session.check(&a);
        assert!(out_a.is_success());
        let fresh_b = checker.session(&model).check(&b);
        let out_b = session.check(&b);
        assert_same_outcome(&out_b, &fresh_b, "shallow-change re-check");
    }

    #[test]
    fn failure_outcomes_are_reproduced_after_reuse() {
        let model = layered_model();
        let checker = Checker::new(CheckerOptions::default().allow_deadlock());
        let mut session = checker.session(&model);
        let good = TableResolver::new(vec![Some(0), Some(0)]);
        // h1 = 2 reaches the forbidden state 42.
        let bad = TableResolver::new(vec![Some(0), Some(2)]);
        session.check(&good);
        let fresh_bad = checker.session(&model).check(&bad);
        let session_bad = session.check(&bad);
        assert_eq!(session_bad.verdict(), Verdict::Failure);
        assert_same_outcome(&session_bad, &fresh_bad, "failing candidate");
        // And flipping back still matches a fresh success.
        let fresh_good = checker.session(&model).check(&good);
        let session_good = session.check(&good);
        assert_same_outcome(&session_good, &fresh_good, "back to good");
    }

    #[test]
    fn wildcard_answers_are_tracked_for_invalidation() {
        let model = layered_model();
        let checker = Checker::new(CheckerOptions::default().allow_deadlock());
        let mut session = checker.session(&model);
        // h1 wildcard: exploration stops at depth 4 with Unknown.
        let wild = TableResolver::new(vec![Some(0), None]);
        let out = session.check(&wild);
        assert_eq!(out.verdict(), Verdict::Unknown);
        // Now assigning h1 must re-expand the blocked layer, not reuse the
        // Unknown exploration wholesale.
        let concrete = TableResolver::new(vec![Some(0), Some(0)]);
        let fresh = checker.session(&model).check(&concrete);
        let resumed = session.check(&concrete);
        assert_same_outcome(&resumed, &fresh, "wildcard-then-concrete");
        assert!(resumed.is_success());
    }

    #[test]
    fn session_matches_one_shot_across_thread_counts() {
        let model = layered_model();
        for threads in [1, 2, 4] {
            let options = CheckerOptions::default()
                .allow_deadlock()
                .threads(threads)
                .clamp_threads(false);
            let mut session = Checker::new(options.clone()).session(&model);
            for answers in [
                vec![Some(0), Some(0)],
                vec![Some(0), Some(1)],
                vec![Some(1), Some(1)],
                vec![Some(1), None],
                vec![Some(0), Some(2)],
                vec![Some(0), Some(0)],
            ] {
                let resolver = TableResolver::new(answers.clone());
                let fresh = Checker::new(options.clone())
                    .session(&model)
                    .check(&resolver);
                let reused = session.check(&resolver);
                assert_same_outcome(&reused, &fresh, &format!("{threads} threads {answers:?}"));
            }
        }
    }

    #[test]
    fn set_threads_retargets_between_checks() {
        let model = layered_model();
        let options = CheckerOptions::default()
            .allow_deadlock()
            .clamp_threads(false);
        let mut session = Checker::new(options.clone()).session(&model);
        assert_eq!(session.threads(), 1);
        let resolver = TableResolver::new(vec![Some(0), Some(1)]);
        let serial = session.check(&resolver);

        // Retarget to 4 threads: the pool must be (re)built to the new
        // size, not silently kept at the stale one, and the outcome must
        // stay bit-identical across the switch — in both directions.
        session.set_threads(4);
        assert_eq!(session.threads(), 4);
        let bumped = TableResolver::new(vec![Some(0), Some(2)]);
        let fresh = Checker::new(options.clone().threads(4))
            .session(&model)
            .check(&bumped);
        let parallel = session.check(&bumped);
        assert_same_outcome(&parallel, &fresh, "after set_threads(4)");

        session.set_threads(1);
        assert_eq!(session.threads(), 1);
        let back = session.check(&resolver);
        assert_same_outcome(&back, &serial, "back to serial");
    }

    #[test]
    fn set_threads_honors_the_availability_clamp() {
        let model = layered_model();
        // Default options clamp to available parallelism: the effective
        // count never exceeds the host's cores no matter what is requested.
        let mut session = Checker::new(CheckerOptions::default().allow_deadlock()).session(&model);
        session.set_threads(4096);
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert!(session.threads() <= cores);
        let out = session.check(&TableResolver::new(vec![Some(0), Some(0)]));
        assert!(out.is_success());
    }

    #[test]
    fn hole_free_session_reuses_after_first_check() {
        let mut b = ModelBuilder::new("wrap");
        b.initial(0u8);
        b.rule("step", |&s: &u8, _| RuleOutcome::Next((s + 1) % 64));
        b.invariant("bounded", |&s: &u8| s < 64);
        let m = b.finish();
        let checker = Checker::new(CheckerOptions::default());
        let mut session = checker.session(&m);
        let first = session.check(&NoHoles);
        let second = session.check(&NoHoles);
        assert_eq!(first.stats(), second.stats());
        assert_eq!(session.stats().checks, 2);
        assert_eq!(session.stats().states_expanded, 64);
        assert_eq!(session.stats().states_reused, 64);
    }

    #[test]
    fn state_cap_outcomes_repeat_identically() {
        let mut b = ModelBuilder::new("big");
        b.initial(0u64);
        b.rule("inc", |&s: &u64, _| RuleOutcome::Next(s + 1));
        let m = b.finish();
        let checker = Checker::new(CheckerOptions::default().max_states(50));
        let mut session = checker.session(&m);
        let first = session.check(&NoHoles);
        let second = session.check(&NoHoles);
        assert_eq!(first.verdict(), Verdict::Unknown);
        assert_eq!(first.stats(), second.stats());
        assert_eq!(first.stats().states_visited, 50);
    }

    #[test]
    fn kept_graph_is_identical_after_reuse() {
        let model = layered_model();
        let options = CheckerOptions::default().allow_deadlock().keep_graph(true);
        let checker = Checker::new(options.clone());
        let mut session = checker.session(&model);
        session.check(&TableResolver::new(vec![Some(0), Some(0)]));
        // A checkpoint resume, then replays of a complete run and of a run
        // stopped mid-layer by the violation at 42 (h2 is never consulted).
        for (answers, replays) in [
            (vec![Some(0), Some(1)], 0),
            (vec![Some(0), Some(1), Some(1)], 1),
            (vec![Some(0), Some(2)], 1),
            (vec![Some(0), Some(2), Some(1)], 2),
        ] {
            let resolver = TableResolver::new(answers.clone());
            let reused = session.check(&resolver);
            let fresh = Checker::new(options.clone())
                .session(&model)
                .check(&resolver);
            assert_eq!(session.stats().checks_replayed, replays, "{answers:?}");
            assert_eq!(
                reused.graph().unwrap().to_dot("m"),
                fresh.graph().unwrap().to_dot("m"),
                "identical graphs after checkpoint resume or replay, {answers:?}"
            );
        }
    }

    /// Checks `answers` on `session` and on a fresh session of the same
    /// options, asserting equal outcomes and equal touched sets (live
    /// consultations plus the session's reused ones against the fresh
    /// run's), and returns whether the session replayed.
    fn check_against_fresh(
        session: &mut CheckSession<'_, crate::model::BuiltModel<u8>>,
        options: &CheckerOptions,
        answers: &[Option<u16>],
        what: &str,
    ) -> bool {
        let replays_before = session.stats().checks_replayed;
        let resolver = TableResolver::new(answers.to_vec());
        let got = session.check(&resolver);
        let mut got_touched = resolver.touched.into_inner();
        got_touched.extend(session.reused_touches());

        let fresh_resolver = TableResolver::new(answers.to_vec());
        let mut fresh_session =
            Checker::new(options.clone().threads(session.threads())).session(session.model());
        let want = fresh_session.check(&fresh_resolver);
        assert_same_outcome(&got, &want, what);
        assert_eq!(
            got_touched,
            fresh_resolver.touched.into_inner(),
            "{what}: touched set"
        );
        session.stats().checks_replayed > replays_before
    }

    /// Every kind of stop — invariant failure, deadlock, state cap, and a
    /// complete success — replays when the next candidate differs only in
    /// holes the previous check never consulted.
    #[test]
    fn unconsulted_hole_changes_replay_every_kind_of_stop() {
        let model = layered_model();
        let base = CheckerOptions::default().clamp_threads(false);
        let cases = [
            // h1 = "z" reaches the forbidden state 42; h2 and h3 unread.
            ("invariant", base.clone(), [0, 2, 0, 0], [0, 2, 1, 1]),
            // h1 = "w", h2 = "stay": state 43 deadlocks; h3 unread.
            ("deadlock", base.clone(), [0, 3, 0, 0], [0, 3, 0, 1]),
            // The cap refuses state 21 before h1 is ever consulted.
            (
                "state cap",
                base.clone().max_states(3),
                [0, 0, 0, 0],
                [0, 2, 1, 1],
            ),
            // Complete success; h2 and h3 unread.
            ("success", base.clone(), [0, 0, 0, 0], [0, 0, 1, 1]),
        ];
        for threads in [1, 4] {
            for (kind, options, first, second) in &cases {
                let options = options.clone().threads(threads);
                let mut session = Checker::new(options.clone()).session(&model);
                let first: Vec<Option<u16>> = first.iter().map(|&a| Some(a)).collect();
                let second: Vec<Option<u16>> = second.iter().map(|&a| Some(a)).collect();
                let what = format!("{kind} at {threads} threads");
                assert!(!check_against_fresh(&mut session, &options, &first, &what));
                assert!(
                    check_against_fresh(&mut session, &options, &second, &what),
                    "{what}: an unconsulted-hole change must replay"
                );
                assert_eq!(
                    session.stats().layers_reused as usize,
                    session.layer_touches.len()
                );
                // Back to the first candidate: still nothing consulted
                // changed, so it replays too.
                assert!(check_against_fresh(&mut session, &options, &first, &what));
            }
        }
    }

    /// A candidate that changes only an answer the previous check consulted
    /// in its stop layer must explore that layer again, not replay.
    #[test]
    fn changed_stop_layer_answers_do_not_replay() {
        let model = layered_model();
        let options = CheckerOptions::default().clamp_threads(false);
        let cases = [
            // The violation at 42 is found while expanding layer 3, which
            // consults h1; "x" leads to success instead.
            ("invariant", [0, 2, 0], [0, 0, 0]),
            // The deadlock of 43 is decided in layer 4 by h2 = "stay";
            // "leave" escapes to the quiescent cycle.
            ("deadlock", [0, 3, 0], [0, 3, 1]),
        ];
        for threads in [1, 4] {
            for (kind, first, second) in &cases {
                let options = options.clone().threads(threads);
                let mut session = Checker::new(options.clone()).session(&model);
                let first: Vec<Option<u16>> = first.iter().map(|&a| Some(a)).collect();
                let second: Vec<Option<u16>> = second.iter().map(|&a| Some(a)).collect();
                let what = format!("{kind} at {threads} threads");
                check_against_fresh(&mut session, &options, &first, &what);
                let reused_before = session.stats().layers_reused;
                assert!(
                    !check_against_fresh(&mut session, &options, &second, &what),
                    "{what}: a changed stop-layer answer must not replay"
                );
                assert!(
                    session.stats().layers_reused > reused_before,
                    "{what}: the sealed layers before the stop are still reused"
                );
            }
        }
    }

    /// The stored ending does not depend on the thread count, so a replay
    /// works across `set_threads` in both directions.
    #[test]
    fn replay_survives_set_threads() {
        let model = layered_model();
        let options = CheckerOptions::default().clamp_threads(false);
        let mut session = Checker::new(options.clone()).session(&model);
        let what = "set_threads";
        assert!(!check_against_fresh(
            &mut session,
            &options,
            &[Some(0), Some(2), Some(0)],
            what
        ));
        session.set_threads(4);
        assert!(check_against_fresh(
            &mut session,
            &options,
            &[Some(0), Some(2), Some(1)],
            what
        ));
        session.set_threads(1);
        assert!(check_against_fresh(
            &mut session,
            &options,
            &[Some(0), Some(2), None],
            what
        ));
        assert_eq!(session.stats().checks_replayed, 2);
    }

    /// Three branches whose expansions consult different holes, so a check
    /// that changes one hole re-expands some states of a layer and takes
    /// the others from their expansion records:
    ///
    /// * `0 -> 1, 2, 3`;
    /// * `1 -> 10 + h0`, and also `-> 13` when h0 = "b";
    /// * `2 -> 20 + h1`; `3 -> 30, 31`;
    /// * `10..=13 -> 40` by h3 = "a", or the forbidden 99 by h3 = "b";
    /// * `20..=22 -> 41`; `30 -> 44` by h2 = "leave", deadlocked by "stay";
    /// * `31, 40..=44 -> 45 -> 45`.
    ///
    /// Layer 1 is ids 1–3 and, under h0 = "a", layer 2 is `10, 20, 30, 31`.
    fn branching_model() -> crate::model::BuiltModel<u8> {
        fn pick(ctx: &mut dyn HoleResolver, hole: &str, actions: &[&str]) -> Choice {
            ctx.choose(&HoleSpec::new(hole, actions.iter().copied()))
        }
        let mut b = ModelBuilder::new("branching");
        b.initial(0u8);
        for (i, target) in [1u8, 2, 3].into_iter().enumerate() {
            b.rule(format!("fan{i}"), move |&s: &u8, _| {
                if s == 0 {
                    RuleOutcome::Next(target)
                } else {
                    RuleOutcome::Disabled
                }
            });
        }
        b.rule("step", |&s: &u8, ctx| {
            let next = |choice: Choice, base: u8| match choice {
                Choice::Action(i) => RuleOutcome::Next(base + i as u8),
                Choice::Wildcard => RuleOutcome::Blocked,
            };
            match s {
                1 => next(pick(ctx, "h0", &["a", "b", "c"]), 10),
                2 => next(pick(ctx, "h1", &["a", "b", "c"]), 20),
                3 => RuleOutcome::Next(30),
                10..=13 => match pick(ctx, "h3", &["a", "b"]) {
                    Choice::Action(0) => RuleOutcome::Next(40),
                    Choice::Action(_) => RuleOutcome::Next(99),
                    Choice::Wildcard => RuleOutcome::Blocked,
                },
                20..=22 => RuleOutcome::Next(41),
                30 => match pick(ctx, "h2", &["stay", "leave"]) {
                    Choice::Action(0) => RuleOutcome::Disabled,
                    Choice::Action(_) => RuleOutcome::Next(44),
                    Choice::Wildcard => RuleOutcome::Blocked,
                },
                31 | 40..=45 => RuleOutcome::Next(45),
                _ => RuleOutcome::Disabled,
            }
        });
        b.rule("twin", |&s: &u8, ctx| match s {
            1 => match pick(ctx, "h0", &["a", "b", "c"]) {
                Choice::Action(1) => RuleOutcome::Next(13),
                Choice::Action(_) => RuleOutcome::Disabled,
                Choice::Wildcard => RuleOutcome::Blocked,
            },
            3 => RuleOutcome::Next(31),
            _ => RuleOutcome::Disabled,
        });
        b.invariant("not forbidden", |&s: &u8| s != 99);
        b.finish()
    }

    const A: Option<u16> = Some(0);
    const B: Option<u16> = Some(1);
    const C: Option<u16> = Some(2);
    /// Deadlocks state 30 as h2, reaches 40 as h3.
    const STAY: Option<u16> = Some(0);
    /// Leaves state 30 as h2, reaches 99 as h3.
    const LEAVE: Option<u16> = Some(1);

    /// Runs `checks` on one session of [`branching_model`] at 1 and 4
    /// threads, each against a fresh session ([`check_against_fresh`]), and
    /// returns, per thread count, how many expansions each check took from
    /// records.
    fn reuse_per_check(options: &CheckerOptions, checks: &[Vec<Option<u16>>]) -> Vec<Vec<u64>> {
        let model = branching_model();
        [1, 4]
            .iter()
            .map(|&threads| {
                let options = options.clone().threads(threads).clamp_threads(false);
                let mut session = Checker::new(options.clone()).session(&model);
                checks
                    .iter()
                    .enumerate()
                    .map(|(i, answers)| {
                        let before = session.stats().expansions_reused;
                        let what = format!("check {i} {answers:?} at {threads} threads");
                        check_against_fresh(&mut session, &options, answers, &what);
                        session.stats().expansions_reused - before
                    })
                    .collect()
            })
            .collect()
    }

    /// Asserts the same per-check reuse at every thread count and returns
    /// it.
    fn thread_invariant_reuse(options: &CheckerOptions, checks: &[Vec<Option<u16>>]) -> Vec<u64> {
        let per_threads = reuse_per_check(options, checks);
        assert_eq!(per_threads[0], per_threads[1], "reuse depends on threads");
        per_threads[0].clone()
    }

    /// A record never names a violating successor: committing one stops
    /// the check before the expansion completes. So the violation sits one
    /// step below a state a reused record committed, and its trace and
    /// touched set run through that record's edge (1 -> 10 under h0).
    #[test]
    fn invariant_violation_below_a_state_a_record_committed() {
        let options = CheckerOptions::default();
        let reuse = thread_invariant_reuse(
            &options,
            &[
                vec![A, A, LEAVE, STAY],
                // h1 reopens layer 1: state 1's record commits 10 from the
                // tail, and 10 itself, re-expanded under h3 = "b", reaches 99.
                vec![A, B, LEAVE, LEAVE],
            ],
        );
        assert_eq!(reuse, [0, 2], "states 1 and 3 reuse their records");
    }

    #[test]
    fn deadlock_decided_from_a_record() {
        let options = CheckerOptions::default();
        let reuse = thread_invariant_reuse(
            &options,
            &[
                // State 30 deadlocks after 10 and 20 expand.
                vec![A, A, STAY, STAY],
                // h3 turns wildcard: 10 blocks, 20 and the deadlocked 30
                // come from their records.
                vec![A, A, STAY, None],
            ],
        );
        assert_eq!(reuse, [0, 2]);
    }

    #[test]
    fn state_cap_hit_while_committing_a_reused_successor() {
        // Layers 0 and 1 fill the cap of 8 exactly under h0 = "a"; under
        // h0 = "b" state 1 commits two successors, so state 3's record
        // meets the cap at its second successor.
        let options = CheckerOptions::default().max_states(8);
        let reuse = thread_invariant_reuse(
            &options,
            &[vec![A, A, LEAVE, STAY], vec![B, A, LEAVE, STAY]],
        );
        assert_eq!(reuse, [0, 2], "states 2 and 3 reuse their records");
    }

    #[test]
    fn records_replay_blocked_applications() {
        let options = CheckerOptions::default();
        let reuse = thread_invariant_reuse(
            &options,
            &[
                // h1 wildcard: state 2's record holds a blocked application.
                vec![A, None, LEAVE, STAY],
                // Changing h0 reopens layer 1; state 2 still blocks.
                vec![C, None, LEAVE, STAY],
            ],
        );
        assert!(
            reuse[1] >= 2,
            "states 2 and 3 reuse their records: {reuse:?}"
        );
    }

    #[test]
    fn a_known_wildcard_that_turns_concrete_invalidates_its_record() {
        let model = branching_model();
        let blocked = TableResolver::new(vec![A, None, LEAVE, STAY]);
        let concrete = TableResolver::new(vec![A, A, LEAVE, STAY]);
        for threads in [1, 4] {
            let options = CheckerOptions::default()
                .threads(threads)
                .clamp_threads(false);
            let mut session = Checker::new(options.clone()).session(&model);
            check_against_fresh(&mut session, &options, &blocked.answers, "wildcard h1");
            assert!(session.engine.records.valid(2, &blocked));
            assert!(
                !session.engine.records.valid(2, &concrete),
                "state 2 consulted h1 as a wildcard"
            );
            assert!(session.engine.records.valid(3, &concrete));
            let before = session.stats().expansions_reused;
            check_against_fresh(&mut session, &options, &concrete.answers, "concrete h1");
            // Layer 1 reuses states 1 and 3, layer 2 reuses 10, 30 and 31
            // around the new 20, and layer 3 reuses 40, 44 and 45 around
            // the new 41.
            assert_eq!(session.stats().expansions_reused - before, 8);
        }
    }

    #[test]
    fn a_check_after_a_stop_mid_frontier_rebuilds_the_dropped_tail() {
        let options = CheckerOptions::default();
        let reuse = thread_invariant_reuse(
            &options,
            &[
                vec![A, A, LEAVE, STAY],
                // Reopens layer 2: 10 and 20 come from their records, 30
                // deadlocks live before 31 is reached. The tail states 44
                // and 45 are dropped with the records naming them.
                vec![A, A, STAY, STAY],
                // Reopens layer 2 again: 10 and 20 come from their records,
                // 30 and 31 expand, and so do 40 and 41, whose records
                // named the dropped 45; 44 and 45 are committed anew.
                vec![A, A, LEAVE, STAY],
            ],
        );
        assert_eq!(reuse, [0, 2, 2]);
    }

    #[test]
    fn kept_graph_is_identical_after_record_reuse() {
        let model = branching_model();
        for threads in [1, 4] {
            let options = CheckerOptions::default()
                .keep_graph(true)
                .threads(threads)
                .clamp_threads(false);
            let mut session = Checker::new(options.clone()).session(&model);
            for h in [
                [A, A, LEAVE, STAY],
                [A, B, LEAVE, STAY],
                [C, B, LEAVE, STAY],
                [C, B, STAY, STAY],
                [A, A, LEAVE, STAY],
            ] {
                let resolver = TableResolver::new(h.to_vec());
                let reused = session.check(&resolver);
                let fresh = Checker::new(options.clone())
                    .session(&model)
                    .check(&resolver);
                assert_same_outcome(&reused, &fresh, &format!("{h:?}"));
                assert_eq!(
                    reused.graph().unwrap().to_dot("m"),
                    fresh.graph().unwrap().to_dot("m"),
                    "identical graphs after record reuse, {h:?} at {threads} threads"
                );
            }
            assert!(session.stats().expansions_reused > 0);
        }
    }
}
