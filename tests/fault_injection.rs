//! Deterministic fault-injection suites (`--features failpoints`): crashes
//! torn into the journal writer, panics injected into the worker pool and
//! the parallel checker's chunk expansion — the crash-safety contracts must
//! hold at every injection point.
//!
//! The failpoint registry is process-global, so every test takes
//! [`faults::exclusive`] and disarms around its armed sections.

#![cfg(feature = "failpoints")]

use proptest::prelude::*;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use verc3::mck::faults::{self, arm, disarm_all, hit_count, site};
use verc3::mck::{
    BuiltModel, Checker, CheckerOptions, Choice, FixedResolver, HoleResolver, HoleSpec, MckError,
    ModelBuilder, Outcome, RuleOutcome, SessionResolver, SharedResolver, Verdict, WildcardTouch,
};
use verc3::protocols::msi::{MsiConfig, MsiModel};
use verc3::synth::journal::record_boundaries;
use verc3::synth::{PatternMode, StopReason, SynthOptions, SynthReport, Synthesizer};

fn scratch(name: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("verc3-faults-{}-{name}.vc3j", std::process::id()));
    let _ = fs::remove_file(&path);
    path
}

/// What a resumed run must reproduce. Of the per-generation stats, the
/// claim and active-chunk counts are left out: a resumed run counts only
/// its own dispenser work. So are the probes: the guided walk's propagator
/// memo stays warm across chunks, and a resumed run re-measures them from
/// a cold one (a cost measurement, like wall time).
fn fingerprint(report: &SynthReport) -> impl PartialEq + std::fmt::Debug {
    (
        report.solutions().to_vec(),
        report.quarantined().to_vec(),
        report.stats().evaluated,
        report.stats().patterns,
        report
            .stats()
            .generations
            .iter()
            .map(|g| (g.k, g.space, g.evaluated, g.skipped_by_pruning, g.deduped))
            .collect::<Vec<_>>(),
        report.stats().check_states_expanded + report.stats().check_states_reused,
    )
}

// ---------------------------------------------------------------------------
// A session-checkable model wide enough to exercise the parallel checker on
// every layer: six-way branching to depth 4, with the hole `h0` (consulted
// from depth 1 on) selecting the branches whose index parity matches its
// action. Two candidates with different `h0` answers share only the first
// layer, so alternating them forces a deep rollback and a large parallel
// re-expansion on every check.

fn wide_model() -> BuiltModel<(u8, u32)> {
    let mut b = ModelBuilder::new("wide");
    b.initial((0u8, 0u32));
    b.ruleset("branch", 0u32..6, |i| {
        let h0 = HoleSpec::new("h0", ["even", "odd"]);
        move |&(depth, v): &(u8, u32), ctx: &mut dyn HoleResolver| {
            if depth >= 4 {
                return RuleOutcome::Disabled;
            }
            if depth >= 1 {
                match ctx.choose(&h0) {
                    Choice::Action(a) if (i as usize) % 2 == a => {}
                    Choice::Action(_) => return RuleOutcome::Disabled,
                    Choice::Wildcard => return RuleOutcome::Blocked,
                }
            }
            RuleOutcome::Next((depth + 1, v * 6 + i + 1))
        }
    });
    b.invariant("in range", |&(d, _)| d <= 4);
    b.finish()
}

/// A [`SessionResolver`] answering hole `h0` from a one-entry table — the
/// session-facing shape the synthesis resolvers have, minimally.
#[derive(Debug, Clone)]
struct OneHole {
    answer: u16,
}

struct OneHoleWorker<'a> {
    shared: &'a OneHole,
    touches: Vec<(usize, u16)>,
}

impl SharedResolver for OneHole {
    fn worker(&self) -> Box<dyn HoleResolver + '_> {
        Box::new(OneHoleWorker {
            shared: self,
            touches: Vec::new(),
        })
    }
}

impl SessionResolver for OneHole {
    fn assignment(&self, hole: usize) -> Option<u16> {
        (hole == 0).then_some(self.answer)
    }
}

impl HoleResolver for OneHoleWorker<'_> {
    fn choose(&mut self, _spec: &HoleSpec) -> Choice {
        if self.touches.is_empty() {
            self.touches.push((0, self.shared.answer));
        }
        Choice::Action(self.shared.answer as usize)
    }

    fn begin_application(&mut self) {
        self.touches.clear();
    }

    fn application_touches(&self) -> &[(usize, u16)] {
        &self.touches
    }

    fn application_wildcards(&self) -> &[WildcardTouch] {
        &[]
    }
}

fn assert_checks_match<S>(got: &Outcome<S>, want: &Outcome<S>, context: &str)
where
    S: Clone + Eq + std::hash::Hash + std::fmt::Debug + Send + Sync,
{
    assert_eq!(got.verdict(), want.verdict(), "{context}: verdict");
    assert_eq!(
        got.stats().states_visited,
        want.stats().states_visited,
        "{context}: visited states"
    );
    assert_eq!(
        got.stats().transitions,
        want.stats().transitions,
        "{context}: transitions"
    );
}

/// The tentpole panic-isolation contract, at the session level: a panic
/// injected into *any* parallel-checker chunk (or pool job, or claim probe)
/// becomes a structured `CandidatePanicked` outcome, and the next check on
/// the same session — same pool, same claim table — is bit-identical to the
/// pre-panic check of the same candidate.
#[test]
fn a_panic_at_any_chunk_leaves_session_verdicts_unchanged() {
    let _guard = faults::exclusive();
    disarm_all();
    let model = wide_model();
    let (even, odd) = (OneHole { answer: 0 }, OneHole { answer: 1 });
    let options = CheckerOptions::default()
        .threads(4)
        .clamp_threads(false)
        .chunk_states(8)
        .allow_deadlock();
    let mut session = Checker::new(options).session(&model);
    let clean_even = session.check(&even);
    let clean_odd = session.check(&odd);
    assert_eq!(clean_even.verdict(), Verdict::Success);
    assert_eq!(clean_odd.verdict(), Verdict::Success);

    // Hits of one alternation check (odd -> even): the armed checks below
    // alternate the same way, so per-site positions are deterministic.
    disarm_all();
    let clean_even = session.check(&even);
    let probes = [site::POOL_JOB, site::EXPAND_CHUNK, site::CLAIM_PROBE].map(|p| (p, hit_count(p)));

    // `session` has `even` checkpointed now; each round faults a check of
    // `odd`, recovers it cleanly, then restores the `even` checkpoint.
    for (probe, hits) in probes {
        assert!(hits > 0, "{probe}: an alternation check must hit the probe");
        for k in [0, hits / 2, hits - 1] {
            disarm_all();
            arm(probe, k);
            let faulted = session.check(&odd);
            assert_eq!(faulted.verdict(), Verdict::Unknown, "{probe}@{k}");
            match faulted.incomplete() {
                Some(MckError::CandidatePanicked { message }) => assert!(
                    message.contains(probe),
                    "{probe}@{k}: panic payload must name the site, got: {message}"
                ),
                other => panic!("{probe}@{k}: expected CandidatePanicked, got {other:?}"),
            }
            disarm_all();
            let recovered = session.check(&odd);
            assert_checks_match(
                &recovered,
                &clean_odd,
                &format!("recovery after {probe}@{k}"),
            );
            let restored = session.check(&even);
            assert_checks_match(
                &restored,
                &clean_even,
                &format!("alternation after {probe}@{k}"),
            );
        }
    }
    disarm_all();
}

/// Satellite regression: a panicking chunk mid-layer must leave the
/// `WorkerPool` barrier un-poisoned — check alternation keeps working and
/// the pool never wedges (this test hanging IS the failure mode).
#[test]
fn the_worker_pool_survives_repeated_injected_panics() {
    let _guard = faults::exclusive();
    disarm_all();
    let model = wide_model();
    let (even, odd) = (OneHole { answer: 0 }, OneHole { answer: 1 });
    let options = CheckerOptions::default()
        .threads(4)
        .clamp_threads(false)
        .chunk_states(8)
        .allow_deadlock();
    let mut session = Checker::new(options).session(&model);
    let clean_even = session.check(&even);
    let clean_odd = session.check(&odd);

    for round in 0u64..3 {
        arm(site::POOL_JOB, round);
        let faulted = session.check(&even);
        assert_eq!(faulted.verdict(), Verdict::Unknown, "round {round}");
        disarm_all();
        let a = session.check(&even);
        assert_checks_match(&a, &clean_even, &format!("round {round}, even"));
        let b = session.check(&odd);
        assert_checks_match(&b, &clean_odd, &format!("round {round}, odd"));
    }
    disarm_all();
}

/// A panic injected into a parallel check *during synthesis* quarantines
/// exactly one candidate; the run completes and every solution it still
/// reports verifies independently of the synthesis engine.
#[test]
fn an_injected_chunk_panic_mid_synthesis_quarantines_one_candidate() {
    let _guard = faults::exclusive();
    disarm_all();
    let model = MsiModel::new(MsiConfig::msi_tiny());
    // This host may have a single core; the probe lives in the parallel
    // engine, so keep the checker from clamping back to the serial path.
    let options = SynthOptions::default()
        .pattern_mode(PatternMode::Refined)
        .checker(CheckerOptions::default().threads(2).clamp_threads(false));
    let clean = Synthesizer::new(options.clone()).run(&model);
    let hits = hit_count(site::EXPAND_CHUNK);
    assert!(hits > 0, "parallel checks must hit the chunk probe");

    disarm_all();
    arm(site::EXPAND_CHUNK, hits / 2);
    let faulted = Synthesizer::new(options.clone()).run(&model);
    disarm_all();

    assert_eq!(faulted.stats().quarantined, 1);
    assert_eq!(faulted.quarantined().len(), 1);
    assert_eq!(faulted.stats().stop, StopReason::Completed);
    assert!(faulted.solutions().len() + 1 >= clean.solutions().len());
    for solution in faulted.solutions() {
        let mut resolver = FixedResolver::new();
        for &(hole, action) in &solution.assignment {
            resolver.assign(faulted.holes()[hole].name.clone(), action as usize);
        }
        let out = Checker::new(CheckerOptions::default()).run_with(&model, &mut resolver);
        assert_eq!(
            out.verdict(),
            Verdict::Success,
            "solution reported after an injected panic failed re-verification"
        );
    }
}

/// The tentpole crash contract at the journal layer: crash the process model
/// mid-append (half the frame reaches the disk, then the writer dies) at
/// *every* append position in turn — resume must always reproduce the
/// uninterrupted run.
#[test]
fn a_crash_tearing_any_journal_append_is_recovered_on_resume() {
    let _guard = faults::exclusive();
    disarm_all();
    let path = scratch("torn-append");
    let model = verc3::mck::GraphModel::worked_example();
    let options = SynthOptions::default().chunk_size(2).journal(&path);
    let baseline = Synthesizer::new(options.clone()).run(&model);
    let appends = hit_count(site::JOURNAL_APPEND);
    assert!(
        appends > 3,
        "expected several journal appends, got {appends}"
    );

    for k in 0..appends {
        disarm_all();
        arm(site::JOURNAL_APPEND, k);
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            Synthesizer::new(options.clone()).run(&model)
        }));
        assert!(crashed.is_err(), "append {k}: armed writer must crash");
        disarm_all();
        let resumed = Synthesizer::new(options.clone())
            .resume_from_journal(&model)
            .unwrap_or_else(|e| panic!("resume after torn append {k}: {e}"));
        assert_eq!(
            fingerprint(&resumed),
            fingerprint(&baseline),
            "resume after tearing append {k}/{appends} diverged"
        );
    }
    disarm_all();
    let _ = fs::remove_file(&path);
}

/// The same crash contract for a parallel run: a torn append panics the
/// run, and resuming from its journal reaches the uninterrupted solutions.
/// A parallel run's append count varies between runs, so an append index
/// counted on a clean run may never be reached by an armed one: this tears
/// only the first two appends, the header and the first generation start,
/// which every run makes. The serial sweep above tears every append.
#[test]
fn a_crash_tearing_the_first_appends_of_a_parallel_run_is_recovered_on_resume() {
    let _guard = faults::exclusive();
    disarm_all();
    let path = scratch("torn-parallel");
    let model = verc3::mck::GraphModel::worked_example();
    let options = SynthOptions::default()
        .threads(2)
        .chunk_size(2)
        .journal(&path);
    let named = |r: &SynthReport| {
        let mut sols: Vec<String> = r
            .solutions()
            .iter()
            .map(|s| s.display_named(r.holes()))
            .collect();
        sols.sort();
        (sols, r.holes().len())
    };
    let baseline = Synthesizer::new(options.clone()).run(&model);

    for k in 0..2 {
        disarm_all();
        let _ = fs::remove_file(&path);
        arm(site::JOURNAL_APPEND, k);
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            Synthesizer::new(options.clone()).run(&model)
        }));
        assert!(crashed.is_err(), "append {k}: armed writer must crash");
        disarm_all();
        let resumed = Synthesizer::new(options.clone())
            .resume_from_journal(&model)
            .unwrap_or_else(|e| panic!("resume after torn append {k}: {e}"));
        assert_eq!(resumed.stats().stop, StopReason::Completed);
        assert_eq!(
            named(&resumed),
            named(&baseline),
            "resume after tearing append {k} diverged"
        );
    }
    disarm_all();
    let _ = fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill-at-any-record-boundary, property-based: random chunk sizes give
    /// structurally different journals; a cut at any boundary of any of
    /// them must resume to the bit-identical run.
    #[test]
    fn resume_is_bit_identical_at_random_kill_points(chunk in 1u64..6, kill in 0usize..10_000) {
        let path = scratch("proptest-kill");
        let model = verc3::mck::GraphModel::worked_example();
        let options = SynthOptions::default().chunk_size(chunk).journal(&path);
        let baseline = Synthesizer::new(options.clone()).run(&model);
        let full = fs::read(&path).unwrap();
        let boundaries = record_boundaries(&path).unwrap();
        let cut = boundaries[kill % boundaries.len()] as usize;
        fs::write(&path, &full[..cut]).unwrap();
        let resumed = Synthesizer::new(options.clone())
            .resume_from_journal(&model)
            .expect("truncated journal must resume");
        prop_assert_eq!(resumed.solutions(), baseline.solutions());
        prop_assert_eq!(resumed.stats().evaluated, baseline.stats().evaluated);
        prop_assert_eq!(resumed.stats().patterns, baseline.stats().patterns);
        let _ = fs::remove_file(&path);
    }

    /// Panic-at-a-random-pool-job, property-based: whatever job the panic
    /// lands on, the session result after recovery is unchanged.
    #[test]
    fn session_recovers_from_a_panic_at_a_random_pool_job(raw in 0u64..10_000) {
        let _guard = faults::exclusive();
        disarm_all();
        let model = wide_model();
        let (even, odd) = (OneHole { answer: 0 }, OneHole { answer: 1 });
        let options = CheckerOptions::default()
            .threads(4)
            .clamp_threads(false)
            .chunk_states(8)
            .allow_deadlock();
        let mut session = Checker::new(options).session(&model);
        let clean_even = session.check(&even);
        let clean_odd = session.check(&odd);
        disarm_all();
        let _ = session.check(&even);
        let hits = hit_count(site::POOL_JOB);
        prop_assert!(hits > 0);

        disarm_all();
        arm(site::POOL_JOB, raw % hits);
        let faulted = session.check(&odd);
        prop_assert_eq!(faulted.verdict(), Verdict::Unknown);
        disarm_all();
        let recovered = session.check(&odd);
        prop_assert_eq!(recovered.verdict(), clean_odd.verdict());
        prop_assert_eq!(recovered.stats().states_visited, clean_odd.stats().states_visited);
        let restored = session.check(&even);
        prop_assert_eq!(restored.stats().states_visited, clean_even.stats().states_visited);
        disarm_all();
    }
}
