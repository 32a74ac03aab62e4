//! Parallel-vs-serial synthesis equivalence on the MSI workloads.
//!
//! Every generation splits its chunk space into one steal-pool slot per
//! worker, and every worker shares the generation's hole registry and
//! pattern hub. The thread count, work stealing and journal-based recovery
//! change only *how much work* each worker does — never the result: the
//! solution set and the hole set must be identical to the serial run at
//! every thread count, also after a budget-interrupted run resumes from its
//! journal at another thread count. Budgets hold for the whole run at every
//! thread count.
//!
//! The msi-tiny and msi-small suites run everywhere; msi-large and msi-xl
//! are `#[ignore]`d and run in release CI
//! (`cargo test --release -q --workspace -- --ignored`).

use std::collections::BTreeSet;
use std::path::PathBuf;
use verc3::mck::TransitionSystem;
use verc3::protocols::msi::{MsiConfig, MsiModel};
use verc3::synth::{PatternMode, StopReason, SynthOptions, SynthReport, Synthesizer};

/// Solution assignments keyed by hole *name*, so reports whose holes were
/// discovered in different orders still compare.
fn named_solution_set(report: &SynthReport) -> BTreeSet<Vec<(String, u16)>> {
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

fn opts() -> SynthOptions {
    SynthOptions::default().pattern_mode(PatternMode::Refined)
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("verc3-thread-eq-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `model` on {1, 2, 4} workers and asserts every report matches the
/// serial `reference`.
fn assert_threads_match(model: &MsiModel, reference: &SynthReport) {
    let expect = named_solution_set(reference);
    for threads in [1usize, 2, 4] {
        let report = Synthesizer::new(opts().threads(threads)).run(model);
        assert_eq!(
            named_solution_set(&report),
            expect,
            "solution set diverged at {threads} threads"
        );
        assert_eq!(
            report.holes().len(),
            reference.holes().len(),
            "hole discovery diverged at {threads} threads"
        );
        assert_eq!(report.stats().stop, StopReason::Completed);
    }
}

#[test]
fn msi_tiny_threads_match_the_serial_run() {
    let model = MsiModel::new(MsiConfig::msi_tiny());
    let reference = Synthesizer::new(opts()).run(&model);
    assert!(!reference.solutions().is_empty());
    assert_threads_match(&model, &reference);
}

#[test]
fn msi_small_threads_match_the_serial_run() {
    let model = MsiModel::new(MsiConfig::msi_small());
    let reference = Synthesizer::new(opts()).run(&model);
    assert!(!reference.solutions().is_empty());
    assert_threads_match(&model, &reference);
}

/// Stops a 4-thread run of `model` after `budget` evaluations, then
/// resumes its journal at 2 threads: the resumed run must reach the serial
/// `reference` solution set.
fn assert_kill_and_resume_converges(model: &MsiModel, reference: &SynthReport, budget: u64) {
    let dir = scratch_dir(model.name());
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("run.vc3j");

    // "Kill": an evaluation budget stops the run mid-generation, after the
    // journal has recorded partial coverage. The budget holds for the
    // whole run, so keep it small enough to fire inside the first
    // generations.
    let interrupted =
        Synthesizer::new(opts().threads(4).max_evaluations(budget).journal(&journal)).run(model);
    assert_eq!(
        interrupted.stats().stop,
        StopReason::MaxEvaluations,
        "budget was meant to interrupt the run mid-flight"
    );

    // "Resume": the run without the budget, at another thread count,
    // replays the journal and finishes the remainder live.
    let resumed = Synthesizer::new(opts().threads(2).journal(&journal))
        .resume_from_journal(model)
        .unwrap();
    assert_eq!(resumed.stats().stop, StopReason::Completed);
    assert_eq!(named_solution_set(&resumed), named_solution_set(reference));
    assert_eq!(resumed.holes().len(), reference.holes().len());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn msi_tiny_parallel_kill_and_resume_converges() {
    let model = MsiModel::new(MsiConfig::msi_tiny());
    let reference = Synthesizer::new(opts()).run(&model);
    assert_kill_and_resume_converges(&model, &reference, 3);
}

/// `max_evaluations` and `state_budget` hold for the whole run at every
/// thread count: every worker checks the one run-wide count before it
/// dispatches, so `t` workers overshoot a cap by at most `t - 1`.
#[test]
fn budgets_hold_for_the_whole_run_at_every_thread_count() {
    let model = MsiModel::new(MsiConfig::msi_tiny());
    let full = Synthesizer::new(opts()).run(&model);
    for cap in [3u64, 10] {
        assert!(full.stats().evaluated > cap + 3, "cap {cap} must interrupt");
        for threads in [1usize, 2, 4] {
            let report = Synthesizer::new(opts().threads(threads).max_evaluations(cap)).run(&model);
            let evaluated = report.stats().evaluated;
            assert_eq!(report.stats().stop, StopReason::MaxEvaluations);
            assert!(
                (cap..cap + threads as u64).contains(&evaluated),
                "cap {cap} at {threads} threads: {evaluated} evaluations"
            );
            if threads == 1 {
                assert_eq!(evaluated, cap, "a serial run stops at exactly the cap");
            }
        }
    }

    // A state budget of half the full run's committed states stops every
    // thread count before the run completes.
    let committed =
        |r: &SynthReport| r.stats().check_states_expanded + r.stats().check_states_reused;
    let budget = committed(&full) / 2;
    for threads in [1usize, 2, 4] {
        let report = Synthesizer::new(opts().threads(threads).state_budget(budget)).run(&model);
        assert_eq!(
            report.stats().stop,
            StopReason::StateBudget,
            "{threads} threads"
        );
        assert!(committed(&report) >= budget);
        assert!(
            committed(&report) < committed(&full),
            "{threads} threads committed {} of {budget}",
            committed(&report)
        );
        assert!(report.stats().evaluated < full.stats().evaluated);
    }
}

#[test]
#[ignore = "minutes-scale in debug; release CI runs the ignored suite"]
fn msi_large_threads_match_the_serial_run() {
    let model = MsiModel::new(MsiConfig::msi_large());
    let reference = Synthesizer::new(opts()).run(&model);
    assert!(!reference.solutions().is_empty());
    assert_threads_match(&model, &reference);
}

#[test]
#[ignore = "minutes-scale in debug; release CI runs the ignored suite"]
fn msi_xl_threads_match_the_golden() {
    let model = MsiModel::new(MsiConfig::msi_xl());
    let reference = Synthesizer::new(opts()).run(&model);
    // The xl golden: 8 solutions over 14 holes (see tests/msi_xl_golden.rs).
    assert_eq!(reference.solutions().len(), 8);
    assert_eq!(reference.holes().len(), 14);
    assert_threads_match(&model, &reference);
}

#[test]
#[ignore = "minutes-scale in debug; release CI runs the ignored suite"]
fn msi_xl_parallel_kill_and_resume_matches_golden() {
    let model = MsiModel::new(MsiConfig::msi_xl());
    let reference = Synthesizer::new(opts()).run(&model);
    assert_eq!(reference.solutions().len(), 8);
    assert_kill_and_resume_converges(&model, &reference, 16);
}
