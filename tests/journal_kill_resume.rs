//! Integration tests for the crash-safe progress journal: a run killed at
//! any record boundary and resumed from its journal must reproduce the
//! uninterrupted run bit-for-bit (solutions, pattern counts, evaluation
//! totals), and budget-stopped runs must resume to the same final state.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;
use verc3::mck::{Choice, GraphModel, HoleSpec, ModelBuilder, RuleOutcome, TransitionSystem};
use verc3::protocols::msi::{MsiConfig, MsiModel};
use verc3::synth::journal::record_boundaries;
use verc3::synth::{Enumeration, PatternMode, StopReason, SynthOptions, SynthReport, Synthesizer};

/// A unique scratch path for one test's journal.
fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "verc3-kill-resume-{}-{name}.vc3j",
        std::process::id()
    ));
    let _ = fs::remove_file(&path);
    path
}

/// The identity we demand across kill/resume: everything the paper reports,
/// plus the quarantine ledger. (Wall time and probe counts are excluded —
/// both are cost *measurements*, not results: the guided propagator's
/// incremental walk stays warm across chunks, so a resumed run's first live
/// chunk re-measures from a cold memo. The split between expanded and
/// reused states is a scheduling artifact under sessions, so only their sum
/// is compared.)
fn fingerprint(report: &SynthReport) -> impl PartialEq + std::fmt::Debug {
    (
        report.solutions().to_vec(),
        report.quarantined().to_vec(),
        (
            report.stats().evaluated,
            report.stats().skipped_by_pruning,
            report.stats().patterns,
            report.stats().patterns_dense,
            report.stats().patterns_sparse,
            report.stats().quarantined,
        ),
        report
            .stats()
            .generations
            .iter()
            .map(|g| (g.k, g.space, g.evaluated, g.skipped_by_pruning, g.deduped))
            .collect::<Vec<_>>(),
        report.stats().check_states_expanded + report.stats().check_states_reused,
    )
}

/// Runs `options+journal` to completion, then for each requested boundary:
/// truncates a copy of the journal there (simulating SIGKILL mid-write) and
/// resumes, asserting the resumed report matches the uninterrupted one.
fn assert_resume_identity_at<M: TransitionSystem>(
    model: &M,
    options: &SynthOptions,
    name: &str,
    select: impl Fn(usize) -> Vec<usize>,
) {
    let path = scratch(name);
    let baseline = Synthesizer::new(options.clone().journal(&path)).run(model);
    assert_eq!(baseline.stats().stop, StopReason::Completed);

    let full = fs::read(&path).expect("journal must exist after the run");
    let boundaries = record_boundaries(&path).expect("journal must parse");
    assert!(boundaries.len() > 1, "expected multiple records");

    for idx in select(boundaries.len()) {
        let cut = boundaries[idx] as usize;
        fs::write(&path, &full[..cut]).unwrap();
        let resumed = Synthesizer::new(options.clone().journal(&path))
            .resume_from_journal(model)
            .unwrap_or_else(|e| panic!("resume at boundary {idx} (offset {cut}): {e}"));
        assert_eq!(
            fingerprint(&resumed),
            fingerprint(&baseline),
            "resume at boundary {idx}/{} (offset {cut}) diverged",
            boundaries.len()
        );
        assert_eq!(resumed.stats().stop, StopReason::Completed);
    }
    let _ = fs::remove_file(&path);
}

fn all(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// Evenly spaced sample of `k` boundaries including both ends.
fn sampled(k: usize) -> impl Fn(usize) -> Vec<usize> {
    move |n| {
        let mut out: Vec<usize> = (0..k).map(|i| i * (n - 1) / (k - 1)).collect();
        out.dedup();
        out
    }
}

#[test]
fn journaling_does_not_change_the_figure_2_run() {
    let path = scratch("fig2-identity");
    let model = GraphModel::worked_example();
    let plain = Synthesizer::new(SynthOptions::default()).run(&model);
    let journaled = Synthesizer::new(SynthOptions::default().journal(&path)).run(&model);
    assert_eq!(fingerprint(&journaled), fingerprint(&plain));
    assert_eq!(journaled.stats().evaluated, 10);
    assert_eq!(journaled.stats().patterns, 5);
    let _ = fs::remove_file(&path);
}

#[test]
fn fig2_resumes_identically_from_every_record_boundary() {
    // chunk_size 2 splits the small generations into several chunks so the
    // journal has interesting intermediate states.
    let model = GraphModel::worked_example();
    assert_resume_identity_at(
        &model,
        &SynthOptions::default().chunk_size(2),
        "fig2-every-boundary",
        all,
    );
}

/// Solution assignments keyed by hole *name*: hole ids follow discovery
/// order, which racing workers decide.
fn named_solutions(report: &SynthReport) -> BTreeSet<Vec<(String, u16)>> {
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

/// Runs `options` (a 4-thread run) journaled to completion, then cuts the
/// journal at every record boundary and resumes it at 1, 2 and 4 threads.
///
/// A parallel run's evaluated/skipped split is a race between workers
/// publishing patterns (two *uninterrupted* 4-thread runs already disagree
/// on it), so kill/resume bit-identity is a serial guarantee. What parallel
/// resume must preserve, at any thread count: the solution set, and the
/// per-generation accounting identity skipped + evaluated + deduped =
/// space — which fails if resume re-runs or drops a covered chunk. The
/// journal records coverage, not which worker's slot a chunk came from, so
/// the thread count may change across the cut.
fn assert_parallel_resume_at_every_boundary<M: TransitionSystem>(
    model: &M,
    options: &SynthOptions,
    name: &str,
) {
    let path = scratch(name);
    let baseline = Synthesizer::new(options.clone().journal(&path)).run(model);
    let full = fs::read(&path).unwrap();
    let boundaries = record_boundaries(&path).unwrap();

    for (idx, &cut) in boundaries.iter().enumerate() {
        for threads in [1usize, 2, 4] {
            fs::write(&path, &full[..cut as usize]).unwrap();
            let resumed = Synthesizer::new(options.clone().threads(threads).journal(&path))
                .resume_from_journal(model)
                .unwrap_or_else(|e| panic!("resume at boundary {idx}, {threads} threads: {e}"));
            let at = format!("boundary {idx}, {threads} threads");
            assert_eq!(
                named_solutions(&resumed),
                named_solutions(&baseline),
                "{at}"
            );
            assert_eq!(resumed.solutions().len(), baseline.solutions().len());
            assert_eq!(resumed.stats().stop, StopReason::Completed);
            for (g, gen) in resumed.stats().generations.iter().enumerate() {
                assert_eq!(
                    gen.skipped_by_pruning + gen.evaluated as u128 + gen.deduped as u128,
                    gen.space,
                    "{at}, generation {g}: chunk coverage must not drop or \
                     double-count candidates"
                );
            }
        }
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn parallel_journal_resumes_to_the_same_solutions_from_every_boundary() {
    let model = GraphModel::worked_example();
    let options = SynthOptions::default().threads(4).chunk_size(2);
    assert_parallel_resume_at_every_boundary(&model, &options, "fig2-parallel");
}

#[test]
fn parallel_guided_journal_resumes_to_the_same_solutions_from_every_boundary() {
    // The guided counterpart: four workers claim refuted chunk runs in one
    // step, racing each other across steal-pool slots. A resumed run must
    // step over every journal-covered range without banking it again and
    // must neither drop nor re-count a chunk of the runs it claims.
    let model = MsiModel::new(MsiConfig::msi_tiny());
    let options = SynthOptions::default()
        .enumeration(Enumeration::Guided)
        .pattern_mode(PatternMode::Refined)
        .threads(4)
        .chunk_size(8);
    assert_parallel_resume_at_every_boundary(&model, &options, "msi-tiny-guided-parallel");
}

#[test]
fn guided_runs_resume_identically_from_every_record_boundary() {
    // Guided enumeration journals the same chunk-coverage records as
    // lexicographic (the visit sequence is identical; only the probe cost
    // differs), so kill/resume identity — including the banked probe
    // counters — must hold for it too.
    let model = GraphModel::worked_example();
    assert_resume_identity_at(
        &model,
        &SynthOptions::default()
            .enumeration(Enumeration::Guided)
            .chunk_size(2),
        "fig2-guided-every-boundary",
        all,
    );

    let model = MsiModel::new(MsiConfig::msi_tiny());
    assert_resume_identity_at(
        &model,
        &SynthOptions::default()
            .enumeration(Enumeration::Guided)
            .pattern_mode(PatternMode::Refined)
            .chunk_size(8),
        "msi-tiny-guided-every-boundary",
        all,
    );
}

#[test]
fn resume_rejects_a_journal_from_a_different_enumeration_strategy() {
    // The journal's skipped/probe accounting is only meaningful under the
    // strategy that wrote it, so the fingerprint pins the enumeration
    // strategy — resuming a journal of the lexicographic reference walk
    // under the guided walk (or the reverse) must be rejected like any
    // other search mismatch.
    let path = scratch("enum-mismatch");
    let model = GraphModel::worked_example();
    let with = |strategy| SynthOptions::default().enumeration(strategy).journal(&path);
    for (written, resumed) in [
        (Enumeration::Lexicographic, Enumeration::Guided),
        (Enumeration::Guided, Enumeration::Lexicographic),
    ] {
        let _ = fs::remove_file(&path);
        Synthesizer::new(with(written)).run(&model);
        let err = Synthesizer::new(with(resumed))
            .resume_from_journal(&model)
            .expect_err("an enumeration-strategy change must be rejected");
        assert!(
            err.to_string().contains("journal"),
            "{written:?} resumed as {resumed:?}: unexpected error: {err}"
        );
    }
    // The default walk is the guided one: its journals resume under it.
    let _ = fs::remove_file(&path);
    Synthesizer::new(SynthOptions::default().journal(&path)).run(&model);
    Synthesizer::new(with(Enumeration::Guided))
        .resume_from_journal(&model)
        .expect("a journal of the default walk resumes under the guided walk");
    let _ = fs::remove_file(&path);
}

#[test]
fn msi_tiny_resumes_identically_from_every_record_boundary() {
    let model = MsiModel::new(MsiConfig::msi_tiny());
    assert_resume_identity_at(
        &model,
        &SynthOptions::default()
            .pattern_mode(PatternMode::Refined)
            .chunk_size(8),
        "msi-tiny-every-boundary",
        all,
    );
}

#[test]
fn msi_small_resumes_identically_from_sampled_boundaries() {
    // msi-small refined evaluates ~855 candidates; resuming from every
    // boundary would square that, so sample eight kill points across the
    // run (both endpoints included).
    let model = MsiModel::new(MsiConfig::msi_small());
    assert_resume_identity_at(
        &model,
        &SynthOptions::default().pattern_mode(PatternMode::Refined),
        "msi-small-sampled",
        sampled(8),
    );
}

#[test]
fn a_torn_final_record_is_discarded_on_resume() {
    let path = scratch("torn-tail");
    let model = GraphModel::worked_example();
    let options = SynthOptions::default().chunk_size(2);
    let baseline = Synthesizer::new(options.clone().journal(&path)).run(&model);

    let full = fs::read(&path).unwrap();
    let boundaries = record_boundaries(&path).unwrap();
    // Cut mid-record: a few bytes past a boundary, but short of the next.
    let cut = boundaries[boundaries.len() / 2] as usize;
    fs::write(&path, &full[..cut + 3]).unwrap();
    let resumed = Synthesizer::new(options.clone().journal(&path))
        .resume_from_journal(&model)
        .expect("a torn tail is recoverable, not corrupt");
    assert_eq!(fingerprint(&resumed), fingerprint(&baseline));

    // Garbage appended after a clean run parses as a torn record too.
    let mut garbage = full.clone();
    garbage.extend_from_slice(&[0xFF; 7]);
    fs::write(&path, &garbage).unwrap();
    let resumed = Synthesizer::new(options.clone().journal(&path))
        .resume_from_journal(&model)
        .expect("trailing garbage is recoverable");
    assert_eq!(fingerprint(&resumed), fingerprint(&baseline));
    let _ = fs::remove_file(&path);
}

#[test]
fn resume_from_a_missing_or_empty_journal_starts_fresh() {
    let path = scratch("fresh-start");
    let model = GraphModel::worked_example();
    let report = Synthesizer::new(SynthOptions::default().journal(&path))
        .resume_from_journal(&model)
        .expect("missing journal resumes as a fresh run");
    assert_eq!(report.stats().evaluated, 10);
    assert_eq!(report.solutions().len(), 1);

    fs::write(&path, b"").unwrap();
    let report = Synthesizer::new(SynthOptions::default().journal(&path))
        .resume_from_journal(&model)
        .expect("empty journal resumes as a fresh run");
    assert_eq!(report.stats().evaluated, 10);
    let _ = fs::remove_file(&path);
}

#[test]
fn resume_rejects_a_journal_from_a_different_search() {
    let path = scratch("mismatch");
    let model = GraphModel::worked_example();
    Synthesizer::new(SynthOptions::default().journal(&path)).run(&model);

    // Different chunk size: coverage is recorded in chunk-index space, so
    // the fingerprint must not match.
    let err = Synthesizer::new(SynthOptions::default().chunk_size(7).journal(&path))
        .resume_from_journal(&model)
        .expect_err("chunk-size change must be rejected");
    assert!(
        err.to_string().contains("journal"),
        "unexpected error: {err}"
    );

    // Different model entirely.
    let msi = MsiModel::new(MsiConfig::msi_tiny());
    let err = Synthesizer::new(SynthOptions::default().journal(&path))
        .resume_from_journal(&msi)
        .expect_err("model change must be rejected");
    assert!(
        err.to_string().contains("journal"),
        "unexpected error: {err}"
    );

    // Resume without a journal configured is a config error.
    let err = Synthesizer::new(SynthOptions::default())
        .resume_from_journal(&model)
        .expect_err("resume requires a journal path");
    assert!(
        err.to_string().contains("journal"),
        "unexpected error: {err}"
    );
    let _ = fs::remove_file(&path);
}

#[test]
fn quarantines_survive_kill_and_resume() {
    // A model with a panicking action: quarantine records must replay from
    // the journal exactly, never duplicating or dropping entries.
    let mut b = ModelBuilder::new("panicky-journal");
    b.initial(0u8);
    let h = HoleSpec::new("h", ["boom", "ok", "also-ok"]);
    b.rule("step", move |&s: &u8, ctx| {
        if s != 0 {
            return RuleOutcome::Disabled;
        }
        match ctx.choose(&h) {
            Choice::Action(0) => panic!("injected rule panic"),
            Choice::Action(_) => RuleOutcome::Next(1),
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
    assert_resume_identity_at(
        &model,
        &SynthOptions::default().chunk_size(1),
        "quarantine-replay",
        all,
    );
}

#[test]
fn state_budget_stop_is_resumable_and_completes_identically() {
    let path = scratch("state-budget");
    let model = MsiModel::new(MsiConfig::msi_tiny());
    // One-shot dispatch makes the expanded-state ledger deterministic, so
    // the capped + resumed pair must match the uncapped run field-for-field.
    let options = SynthOptions::default()
        .pattern_mode(PatternMode::Refined)
        .reuse_sessions(false);
    let uncapped = Synthesizer::new(options.clone()).run(&model);

    let capped = Synthesizer::new(
        options
            .clone()
            .journal(&path)
            .state_budget(uncapped.stats().check_states_expanded / 2),
    )
    .run(&model);
    assert_eq!(capped.stats().stop, StopReason::StateBudget);
    assert!(capped.is_resumable());
    assert!(capped.stats().evaluated < uncapped.stats().evaluated);

    let resumed = Synthesizer::new(options.clone().journal(&path))
        .resume_from_journal(&model)
        .expect("budget-stopped journal resumes");
    assert_eq!(fingerprint(&resumed), fingerprint(&uncapped));
    assert_eq!(resumed.stats().stop, StopReason::Completed);
    let _ = fs::remove_file(&path);
}

#[test]
fn max_evaluations_stop_is_resumable_and_completes_identically() {
    let path = scratch("eval-cap");
    let model = GraphModel::worked_example();
    let options = SynthOptions::default().chunk_size(2);
    let baseline = Synthesizer::new(options.clone()).run(&model);

    for cap in 1..10 {
        let capped =
            Synthesizer::new(options.clone().journal(&path).max_evaluations(cap)).run(&model);
        assert_eq!(capped.stats().stop, StopReason::MaxEvaluations, "cap {cap}");
        let resumed = Synthesizer::new(options.clone().journal(&path))
            .resume_from_journal(&model)
            .expect("capped journal resumes");
        assert_eq!(
            fingerprint(&resumed),
            fingerprint(&baseline),
            "resume after cap {cap} diverged"
        );
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn a_zero_deadline_stops_before_any_work_and_resumes_cleanly() {
    let path = scratch("deadline");
    let model = GraphModel::worked_example();
    let baseline = Synthesizer::new(SynthOptions::default()).run(&model);

    let stopped = Synthesizer::new(
        SynthOptions::default()
            .journal(&path)
            .deadline(Duration::ZERO),
    )
    .run(&model);
    assert_eq!(stopped.stats().stop, StopReason::Deadline);
    assert_eq!(stopped.stats().evaluated, 0, "deadline precedes dispatch");
    assert!(stopped.is_resumable());

    let resumed = Synthesizer::new(SynthOptions::default().journal(&path))
        .resume_from_journal(&model)
        .expect("deadline-stopped journal resumes");
    assert_eq!(fingerprint(&resumed), fingerprint(&baseline));
    let _ = fs::remove_file(&path);
}

#[test]
fn a_pre_raised_stop_flag_interrupts_before_any_work() {
    let path = scratch("stop-flag");
    let model = GraphModel::worked_example();
    let flag = Arc::new(AtomicBool::new(true));
    let stopped = Synthesizer::new(
        SynthOptions::default()
            .journal(&path)
            .stop_flag(Arc::clone(&flag)),
    )
    .run(&model);
    assert_eq!(stopped.stats().stop, StopReason::Interrupted);
    assert_eq!(stopped.stats().evaluated, 0);

    let resumed = Synthesizer::new(SynthOptions::default().journal(&path))
        .resume_from_journal(&model)
        .expect("interrupted journal resumes");
    assert_eq!(resumed.stats().stop, StopReason::Completed);
    assert_eq!(resumed.solutions().len(), 1);
    let _ = fs::remove_file(&path);
}
