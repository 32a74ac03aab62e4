//! Sharded-vs-single-process equivalence on the MSI workloads.
//!
//! The shard coordinator's contract is that partitioning, pattern exchange,
//! work stealing, and journal-based recovery change only *how much work*
//! each shard does — never the merged result. These suites pin that contract
//! on the paper's protocol models: the merged solution set must be identical
//! to a single-process run for every shard count, with and without exchange,
//! and after a budget-interrupted run resumes from its journal. One shard
//! *is* the single-process run, report for report, and budgets hold for the
//! whole run at every shard count.
//!
//! The msi-tiny and msi-small suites run everywhere; msi-large and msi-xl
//! are `#[ignore]`d and run in release CI
//! (`cargo test --release -q --workspace -- --ignored`).

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;
use verc3::mck::{GraphModel, TransitionSystem};
use verc3::protocols::msi::{MsiConfig, MsiModel};
use verc3::synth::{
    run_sharded, PatternMode, ShardOptions, StopReason, SynthOptions, SynthReport, Synthesizer,
};

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
    let dir = std::env::temp_dir().join(format!("verc3-shard-eq-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `model` sharded across {1, 2, 4} workers, with exchange on and off,
/// and asserts every merged report matches the single-process `reference`.
fn assert_sharded_matches(model: &MsiModel, reference: &SynthReport) {
    let expect = named_solution_set(reference);
    for shards in [1usize, 2, 4] {
        for exchange in [true, false] {
            let sharding = ShardOptions::default().shards(shards).exchange(exchange);
            let report = run_sharded(model, &opts(), &sharding).unwrap();
            assert_eq!(
                named_solution_set(&report),
                expect,
                "solution set diverged at shards={shards} exchange={exchange}"
            );
            assert_eq!(
                report.holes().len(),
                reference.holes().len(),
                "hole discovery diverged at shards={shards} exchange={exchange}"
            );
            assert_eq!(report.stats().stop, StopReason::Completed);
        }
    }
}

#[test]
fn msi_tiny_sharded_matches_single_process() {
    let model = MsiModel::new(MsiConfig::msi_tiny());
    let reference = Synthesizer::new(opts()).run(&model);
    assert!(!reference.solutions().is_empty());
    assert_sharded_matches(&model, &reference);
}

#[test]
fn msi_small_sharded_matches_single_process() {
    let model = MsiModel::new(MsiConfig::msi_small());
    let reference = Synthesizer::new(opts()).run(&model);
    assert!(!reference.solutions().is_empty());
    assert_sharded_matches(&model, &reference);
}

/// A budget-interrupted sharded run leaves its journal behind; re-invoking
/// the identical run resumes from it and must converge to the uninterrupted
/// solution set (satellite: kill/resume for a sharded run).
#[test]
fn msi_tiny_sharded_kill_and_resume_converges() {
    let model = MsiModel::new(MsiConfig::msi_tiny());
    let reference = Synthesizer::new(opts()).run(&model);
    let dir = scratch_dir("tiny");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("run.vc3j");

    // "Kill": an evaluation budget stops the run mid-round, after the
    // journal has recorded partial coverage. The budget holds for the
    // whole run, so keep it small enough to fire inside the first rounds.
    let budget = 3;
    let sharding = ShardOptions::default().shards(4);
    let interrupted = run_sharded(
        &model,
        &opts().max_evaluations(budget).journal(&journal),
        &sharding,
    )
    .unwrap();
    assert_eq!(
        interrupted.stats().stop,
        StopReason::MaxEvaluations,
        "budget was meant to interrupt the run mid-flight"
    );

    // "Resume": the same run without the budget replays the journal and
    // finishes the remainder live.
    let resumed = run_sharded(&model, &opts().journal(&journal), &sharding).unwrap();
    assert_eq!(resumed.stats().stop, StopReason::Completed);
    assert_eq!(named_solution_set(&resumed), named_solution_set(&reference));
    assert_eq!(resumed.holes().len(), reference.holes().len());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Everything a report says except wall time, in comparable form.
fn report_view(report: &SynthReport) -> String {
    let mut stats = report.stats().clone();
    stats.wall = Duration::ZERO;
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
        report.holes(),
        report.solutions(),
        stats,
        report.run_log(),
        report.quarantined()
    )
}

/// One shard is the single-process run: the same holes, the same solutions
/// with the same ids, every statistic but wall time, and the same run log.
#[test]
fn one_shard_is_the_single_process() {
    fn check<M: TransitionSystem>(model: &M, options: SynthOptions) {
        let options = options.record_runs(true);
        let single = Synthesizer::new(options.clone()).run(model);
        let sharded = run_sharded(model, &options, &ShardOptions::default()).unwrap();
        assert!(!single.run_log().is_empty());
        assert_eq!(
            report_view(&sharded),
            report_view(&single),
            "{}",
            model.name()
        );
    }
    // The exact Figure-2 run log.
    let fig2 = GraphModel::worked_example();
    check(&fig2, SynthOptions::default());
    let single = Synthesizer::new(SynthOptions::default().record_runs(true)).run(&fig2);
    assert_eq!(single.run_log().len(), 10);
    check(&MsiModel::new(MsiConfig::msi_small()), opts());
}

/// `max_evaluations` and `state_budget` hold for the whole run at every
/// shard count: every worker checks the one run-wide count before it
/// dispatches, so `w` workers overshoot a cap by at most `w - 1`.
#[test]
fn budgets_hold_for_the_whole_sharded_run() {
    let model = MsiModel::new(MsiConfig::msi_tiny());
    let full = Synthesizer::new(opts()).run(&model);
    for cap in [3u64, 10] {
        assert!(full.stats().evaluated > cap + 3, "cap {cap} must interrupt");
        for shards in [1usize, 2, 4] {
            let sharding = ShardOptions::default().shards(shards);
            let report = run_sharded(&model, &opts().max_evaluations(cap), &sharding).unwrap();
            let evaluated = report.stats().evaluated;
            assert_eq!(report.stats().stop, StopReason::MaxEvaluations);
            assert!(
                (cap..cap + shards as u64).contains(&evaluated),
                "cap {cap} at {shards} shards: {evaluated} evaluations"
            );
            if shards == 1 {
                assert_eq!(evaluated, cap, "a serial run stops at exactly the cap");
            }
        }
    }

    // A state budget of half the full run's committed states stops every
    // shard count before the run completes.
    let committed =
        |r: &SynthReport| r.stats().check_states_expanded + r.stats().check_states_reused;
    let budget = committed(&full) / 2;
    for shards in [1usize, 2, 4] {
        let sharding = ShardOptions::default().shards(shards);
        let report = run_sharded(&model, &opts().state_budget(budget), &sharding).unwrap();
        assert_eq!(
            report.stats().stop,
            StopReason::StateBudget,
            "{shards} shards"
        );
        assert!(committed(&report) >= budget);
        assert!(
            committed(&report) < committed(&full),
            "{shards} shards committed {} of {budget}",
            committed(&report)
        );
        assert!(report.stats().evaluated < full.stats().evaluated);
    }
}

#[test]
#[ignore = "minutes-scale in debug; release CI runs the ignored suite"]
fn msi_large_sharded_matches_single_process() {
    let model = MsiModel::new(MsiConfig::msi_large());
    let reference = Synthesizer::new(opts()).run(&model);
    assert!(!reference.solutions().is_empty());
    assert_sharded_matches(&model, &reference);
}

#[test]
#[ignore = "minutes-scale in debug; release CI runs the ignored suite"]
fn msi_xl_sharded_matches_golden() {
    let model = MsiModel::new(MsiConfig::msi_xl());
    let reference = Synthesizer::new(opts()).run(&model);
    // The xl golden: 8 solutions over 14 holes (see tests/msi_xl_golden.rs).
    assert_eq!(reference.solutions().len(), 8);
    assert_eq!(reference.holes().len(), 14);
    assert_sharded_matches(&model, &reference);
}

#[test]
#[ignore = "minutes-scale in debug; release CI runs the ignored suite"]
fn msi_xl_sharded_kill_and_resume_matches_golden() {
    let model = MsiModel::new(MsiConfig::msi_xl());
    let reference = Synthesizer::new(opts()).run(&model);
    assert_eq!(reference.solutions().len(), 8);
    let dir = scratch_dir("xl");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("run.vc3j");

    // For the whole run; small enough to fire inside the first rounds.
    let budget = 16;
    let sharding = ShardOptions::default().shards(4);
    let interrupted = run_sharded(
        &model,
        &opts().max_evaluations(budget).journal(&journal),
        &sharding,
    )
    .unwrap();
    assert_eq!(interrupted.stats().stop, StopReason::MaxEvaluations);

    let resumed = run_sharded(&model, &opts().journal(&journal), &sharding).unwrap();
    assert_eq!(resumed.stats().stop, StopReason::Completed);
    assert_eq!(named_solution_set(&resumed), named_solution_set(&reference));

    let _ = std::fs::remove_dir_all(&dir);
}
