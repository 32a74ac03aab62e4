//! Golden tests for the **MSI-xl** synthesis workload (14 holes, the
//! stress configuration one step toward the paper's intractable "all 35
//! holes" problem).
//!
//! These are release-profile workloads (~20 s per synthesis run), gated
//! behind `#[ignore]`; CI runs them via
//! `cargo test --release -q --workspace -- --ignored`.
//!
//! What is pinned, and why:
//!
//! * the **serial run is fully deterministic** — evaluated dispatches,
//!   pattern count, run-log shape, and the exact solution displays are
//!   golden values;
//! * the checker's thread count parallelizes inside each dispatch and is
//!   equivalence-guaranteed, so the serial counts must be **bit-identical**
//!   at any checker thread count;
//! * cross-candidate `threads` make pattern-propagation timing racy, so
//!   evaluated/pattern counts legitimately drift (the paper's own Table I
//!   shows 855 vs 825 for 1 vs 4 threads) — but the **solution set and its
//!   behavioural classes are invariant across every combination**, which is
//!   the correctness golden.

use std::collections::BTreeSet;
use verc3::mck::CheckerOptions;
use verc3::protocols::msi::{MsiConfig, MsiModel};
use verc3::synth::{PatternMode, SynthOptions, SynthReport, Synthesizer};

/// Serial golden values (threads = 1): deterministic by construction.
const GOLDEN_HOLES: usize = 14;
const GOLDEN_EVALUATED: u64 = 3176;
const GOLDEN_PATTERNS: usize = 3165;
const GOLDEN_SOLUTIONS: usize = 8;
/// Behavioural solution classes by visited-state count.
const GOLDEN_CLASSES: [(usize, usize); 2] = [(332, 4), (464, 4)];

fn run_xl(threads: usize, check_threads: usize, record: bool) -> SynthReport {
    let model = MsiModel::new(MsiConfig::msi_xl());
    Synthesizer::new(
        SynthOptions::default()
            .pattern_mode(PatternMode::Refined)
            .threads(threads)
            .checker(CheckerOptions::default().threads(check_threads))
            .record_runs(record),
    )
    .run(&model)
}

/// Hole ids depend on discovery order (racy under cross-candidate threads);
/// compare solutions by hole *name*.
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

/// The eight golden solutions as serial `display_named` strings: the product
/// of the three action choices the protocol leaves free (two redundant
/// directory `track` positions and the upgrade-race writeback state).
fn golden_solution_displays() -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for isb_track in ["none", "add_sharer"] {
        for smad_next in ["IM_AD", "SM_AD"] {
            for smb_track in ["none", "set_owner"] {
                out.insert(format!(
                    "⟨ cache/IS_D+Data/resp@send_ack, cache/IS_D+Data/next@S, \
                     cache/IM_AD+Data[all-acks]/resp@send_ack, \
                     cache/IM_AD+Data[all-acks]/next@M, dir/IS_B+Ack/resp@none, \
                     dir/IS_B+Ack/next@S, dir/IS_B+Ack/track@{isb_track}, \
                     cache/SM_AD+Inv/resp@send_ack, cache/SM_AD+Inv/next@{smad_next}, \
                     cache/WM_A+Ack[last]/resp@send_ack, cache/WM_A+Ack[last]/next@M, \
                     dir/SM_B+Ack/resp@none, dir/SM_B+Ack/next@M, \
                     dir/SM_B+Ack/track@{smb_track} ⟩"
                ));
            }
        }
    }
    out
}

fn assert_solution_golden(report: &SynthReport, label: &str) {
    assert_eq!(report.holes().len(), GOLDEN_HOLES, "{label}: hole count");
    assert_eq!(
        report.solutions().len(),
        GOLDEN_SOLUTIONS,
        "{label}: solution count"
    );
    assert_eq!(
        report.solution_classes(),
        GOLDEN_CLASSES.to_vec(),
        "{label}: behavioural classes"
    );
}

#[test]
#[ignore = "release-profile workload: cargo test --release -q -- --ignored"]
fn msi_xl_serial_run_is_golden() {
    let report = run_xl(1, 1, true);

    assert_solution_golden(&report, "serial");
    assert_eq!(report.stats().evaluated, GOLDEN_EVALUATED);
    assert_eq!(report.stats().patterns, GOLDEN_PATTERNS);
    assert_eq!(report.stats().patterns_sparse, GOLDEN_PATTERNS);
    assert_eq!(report.stats().patterns_dense, 0, "refined mode");
    assert!(!report.stats().truncated);

    // The golden run log: one record per dispatch, starting from the empty
    // candidate that discovers all 14 holes at once.
    let log = report.run_log();
    assert_eq!(log.len(), GOLDEN_EVALUATED as usize);
    assert_eq!(log[0].candidate.display_named(report.holes()), "⟨ ⟩");
    assert!(
        !log[0].discovered.is_empty(),
        "the empty candidate discovers the first holes"
    );
    let discovered_total: usize = log.iter().map(|r| r.discovered.len()).sum();
    assert_eq!(
        discovered_total, GOLDEN_HOLES,
        "every hole discovered exactly once across the run"
    );
    let new_patterns = log.iter().filter(|r| r.pattern_added).count();
    assert_eq!(new_patterns, GOLDEN_PATTERNS, "every pattern logged once");
    let successes = log
        .iter()
        .filter(|r| r.verdict == verc3::mck::Verdict::Success)
        .count();
    assert_eq!(successes, GOLDEN_SOLUTIONS);

    // The exact solution displays (hole order = serial discovery order).
    let displays: BTreeSet<String> = report
        .solutions()
        .iter()
        .map(|s| s.display_named(report.holes()))
        .collect();
    assert_eq!(displays, golden_solution_displays());
}

#[test]
#[ignore = "release-profile workload: cargo test --release -q -- --ignored"]
fn msi_xl_golden_is_identical_across_thread_combinations() {
    let baseline = run_xl(1, 1, false);
    assert_solution_golden(&baseline, "threads=1 check_threads=1");
    assert_eq!(baseline.stats().evaluated, GOLDEN_EVALUATED);
    assert_eq!(baseline.stats().patterns, GOLDEN_PATTERNS);
    let golden_set = named_solution_set(&baseline);

    for (threads, check_threads) in [(1usize, 4usize), (4, 1), (4, 4)] {
        let report = run_xl(threads, check_threads, false);
        let label = format!("threads={threads} check_threads={check_threads}");
        assert_solution_golden(&report, &label);
        assert_eq!(
            named_solution_set(&report),
            golden_set,
            "{label}: solution set"
        );
        if threads == 1 {
            // The per-dispatch parallel checker is equivalence-guaranteed:
            // with a single synthesis worker the whole run stays exact.
            assert_eq!(
                report.stats().evaluated,
                GOLDEN_EVALUATED,
                "{label}: dispatch count"
            );
            assert_eq!(
                report.stats().patterns,
                GOLDEN_PATTERNS,
                "{label}: pattern count"
            );
        }
    }
}
