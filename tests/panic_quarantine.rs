//! Integration tests: a candidate whose rule code panics is quarantined as a
//! structured per-candidate failure — the synthesis run carries on, the
//! worker pool and sessions stay usable, and the rest of the search is
//! unaffected.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use verc3::mck::{BuiltModel, CheckerOptions, Choice, HoleSpec, ModelBuilder, RuleOutcome};
use verc3::synth::{StopReason, SynthOptions, SynthReport, Synthesizer};

/// A two-hole model whose first hole's action 0 (`boom`) panics inside the
/// rule body — modelling a bug in user protocol code.
///
/// Search structure (serial, exact pruning):
/// * gen 0: the wildcard run blocks on `first` and discovers it;
/// * gen 1: `first@boom` panics (quarantined), `first@a` discovers `second`,
///   `first@b` fails a reachability property (pattern);
/// * gen 2: `(boom, x)` and `(boom, y)` panic (quarantined), `(a, x)`
///   verifies, `(a, y)` violates the invariant, `(b, *)` is pruned.
fn panicky_model() -> BuiltModel<u8> {
    let mut b = ModelBuilder::new("panicky");
    b.initial(0u8);
    let first = HoleSpec::new("first", ["boom", "a", "b"]);
    b.rule("first", move |&s: &u8, ctx| {
        if s != 0 {
            return RuleOutcome::Disabled;
        }
        match ctx.choose(&first) {
            Choice::Action(0) => panic!("injected rule panic: first@boom"),
            Choice::Action(1) => RuleOutcome::Next(1),
            Choice::Action(_) => RuleOutcome::Next(2),
            Choice::Wildcard => RuleOutcome::Blocked,
        }
    });
    let second = HoleSpec::new("second", ["x", "y"]);
    b.rule("second", move |&s: &u8, ctx| {
        if s != 1 {
            return RuleOutcome::Disabled;
        }
        match ctx.choose(&second) {
            Choice::Action(0) => RuleOutcome::Next(3),
            Choice::Action(_) => RuleOutcome::Next(4),
            Choice::Wildcard => RuleOutcome::Blocked,
        }
    });
    // Terminal states idle so the checker's deadlock detection never fires;
    // verdicts come from the declared properties alone.
    b.rule("idle", |&s: &u8, _: &mut dyn verc3::mck::HoleResolver| {
        if s >= 2 {
            RuleOutcome::Next(s)
        } else {
            RuleOutcome::Disabled
        }
    });
    b.invariant("never reaches 4", |&s| s != 4);
    b.reachable("makes progress", |&s| s >= 3);
    b.finish()
}

fn named_quarantines(report: &SynthReport) -> Vec<Vec<u16>> {
    let mut digits: Vec<Vec<u16>> = report
        .quarantined()
        .iter()
        .map(|q| q.digits.clone())
        .collect();
    digits.sort();
    digits
}

#[test]
fn panicking_candidates_are_quarantined_and_the_search_completes() {
    let report = Synthesizer::new(SynthOptions::default()).run(&panicky_model());

    // The panics never escape: the run completes and finds the solution
    // that is dispatched *after* the panicking candidates on the same
    // worker (session and pool reuse after a panic).
    assert_eq!(report.stats().stop, StopReason::Completed);
    assert!(!report.is_resumable());
    assert_eq!(report.solutions().len(), 1);
    assert_eq!(report.solutions()[0].assignment, vec![(0, 1), (1, 0)]);

    // Each panic is a structured, per-candidate quarantine record.
    assert_eq!(report.stats().quarantined, 3);
    assert_eq!(
        named_quarantines(&report),
        vec![vec![0], vec![0, 0], vec![0, 1]]
    );
    for q in report.quarantined() {
        assert!(
            q.message.contains("injected rule panic: first@boom"),
            "quarantine must carry the panic payload, got: {}",
            q.message
        );
    }

    // Quarantined candidates count as evaluated (they were dispatched) but
    // record no pruning pattern.
    assert_eq!(report.stats().evaluated, 8);
    assert_eq!(report.stats().patterns, 2);
}

#[test]
fn quarantine_is_identical_across_thread_counts_and_dispatch_modes() {
    let baseline = Synthesizer::new(SynthOptions::default()).run(&panicky_model());
    for threads in [1, 4] {
        for check_threads in [1, 4] {
            for reuse in [true, false] {
                let report = Synthesizer::new(
                    SynthOptions::default()
                        .threads(threads)
                        .checker(CheckerOptions::default().threads(check_threads))
                        .reuse_sessions(reuse),
                )
                .run(&panicky_model());
                let cfg = format!(
                    "threads={threads} check_threads={check_threads} reuse_sessions={reuse}"
                );
                assert_eq!(report.solutions(), baseline.solutions(), "{cfg}");
                assert_eq!(
                    named_quarantines(&report),
                    named_quarantines(&baseline),
                    "{cfg}"
                );
                assert_eq!(
                    report.stats().quarantined,
                    baseline.stats().quarantined,
                    "{cfg}"
                );
                assert_eq!(report.stats().patterns, baseline.stats().patterns, "{cfg}");
                assert_eq!(
                    report.stats().evaluated,
                    baseline.stats().evaluated,
                    "{cfg}"
                );
            }
        }
    }
}

#[test]
fn a_session_survives_a_mid_search_panic_and_stays_bit_identical() {
    // One worker, one session, sessions reused: the quarantined candidates
    // and the verifying candidate all flow through the *same* session, so
    // the solution's reproducible state count proves the session was not
    // corrupted by the unwind.
    let report =
        Synthesizer::new(SynthOptions::default().reuse_sessions(true)).run(&panicky_model());
    let one_shot =
        Synthesizer::new(SynthOptions::default().reuse_sessions(false)).run(&panicky_model());
    assert_eq!(report.solutions(), one_shot.solutions());
    assert_eq!(
        report.solutions()[0].visited_states,
        one_shot.solutions()[0].visited_states
    );
    assert_eq!(report.stats().quarantined, one_shot.stats().quarantined);
}

#[test]
fn quarantine_only_skips_the_panicking_candidate() {
    // A model where *every* candidate of one hole panics except the last:
    // the survivors must still be found.
    let hits = Arc::new(AtomicU32::new(0));
    let hits2 = Arc::clone(&hits);
    let mut b = ModelBuilder::new("mostly-panicky");
    b.initial(0u8);
    let h = HoleSpec::new("h", ["p0", "p1", "ok"]);
    b.rule("step", move |&s: &u8, ctx| {
        if s != 0 {
            return RuleOutcome::Disabled;
        }
        match ctx.choose(&h) {
            Choice::Action(2) => RuleOutcome::Next(1),
            Choice::Action(_) => {
                hits2.fetch_add(1, Ordering::Relaxed);
                panic!("boom");
            }
            Choice::Wildcard => RuleOutcome::Blocked,
        }
    });
    b.rule("idle", |&s: &u8, _: &mut dyn verc3::mck::HoleResolver| {
        if s == 1 {
            RuleOutcome::Next(1)
        } else {
            RuleOutcome::Disabled
        }
    });
    b.reachable("done", |&s| s == 1);
    let model = b.finish();

    let report = Synthesizer::new(SynthOptions::default()).run(&model);
    assert_eq!(report.stats().quarantined, 2);
    assert!(hits.load(Ordering::Relaxed) >= 2);
    assert_eq!(report.solutions().len(), 1);
    assert_eq!(report.solutions()[0].assignment, vec![(0, 2)]);
}
