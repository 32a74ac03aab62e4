//! Differential tests: the spec-interpreted MSI-small protocol
//! (`specs/msi_small.toml`) is observationally *bit-identical* to the
//! hand-written `MsiModel` skeleton — verification statistics with the
//! golden candidate plugged in, and the full synthesis run (run log,
//! pruning patterns, evaluated counts, solution set) under serial and
//! parallel checking alike.
//!
//! Full msi_small synthesis is too slow without optimizations, so debug
//! builds cap evaluations on *both* models (still comparing every logged
//! row); release builds run synthesis to completion and pin the paper
//! table's 366 evaluations / 357 patterns.

use verc3::mck::{Checker, CheckerOptions, FixedResolver, Verdict};
use verc3::protocols::msi::{MsiConfig, MsiModel};
use verc3::spec::ProtocolSpec;
use verc3::synth::{PatternMode, SynthOptions, Synthesizer};

/// The synthesis configuration every committed msi_small golden was measured
/// under (the bench rows, the guided-enumeration baselines, and the spec's
/// `[golden.synth]` block): pruning with trace-refined patterns.
fn synth_opts() -> SynthOptions {
    SynthOptions::default().pattern_mode(PatternMode::Refined)
}

fn msi_spec() -> ProtocolSpec {
    ProtocolSpec::from_path(concat!(env!("CARGO_MANIFEST_DIR"), "/specs/msi_small.toml"))
        .expect("specs/msi_small.toml must load")
}

fn hand_model() -> MsiModel {
    MsiModel::new(MsiConfig::msi_small())
}

/// The golden-candidate hole assignment, as `(hole, action index)` pairs,
/// derived from the spec's own `[golden.assignment]` table.
fn golden_pairs(spec: &ProtocolSpec) -> Vec<(String, usize)> {
    let golden = spec.golden();
    assert!(!golden.assignment.is_empty(), "spec commits an assignment");
    golden
        .assignment
        .iter()
        .map(|(hole, action)| {
            let idx = spec
                .action_index(hole, action)
                .unwrap_or_else(|| panic!("golden assignment {hole}@{action} not in hole space"));
            (hole.clone(), idx)
        })
        .collect()
}

/// Hole names, arities, and declaration order match the hand-written
/// skeleton's hole space exactly (cache holes first, then directory holes).
#[test]
fn spec_msi_hole_space_matches_hand_written() {
    let expected: &[(&str, usize)] = &[
        ("cache/SM_AD+Inv/resp", 3),
        ("cache/SM_AD+Inv/next", 7),
        ("dir/IS_B+Ack/resp", 5),
        ("dir/IS_B+Ack/next", 7),
        ("dir/IS_B+Ack/track", 3),
        ("dir/SM_B+Ack/resp", 5),
        ("dir/SM_B+Ack/next", 7),
        ("dir/SM_B+Ack/track", 3),
    ];
    let space = msi_spec().hole_space();
    let got: Vec<(&str, usize)> = space.iter().map(|(n, a)| (n.as_str(), *a)).collect();
    assert_eq!(got, expected);
}

/// Plugging the golden candidate into both models yields identical
/// verification outcomes: verdict, state count, transition count, depth —
/// the whole `Stats` struct — under serial and 4-thread checking.
#[test]
fn spec_msi_golden_candidate_verifies_bit_identically() {
    let spec = msi_spec();
    let pairs = golden_pairs(&spec);
    let spec_model = spec.model();
    let hand = hand_model();

    for threads in [1usize, 4] {
        let opts = CheckerOptions::default().threads(threads);
        let mut ra = FixedResolver::from_pairs(pairs.clone());
        let mut rb = FixedResolver::from_pairs(pairs.clone());
        let a = Checker::new(opts.clone()).run_with(&spec_model, &mut ra);
        let b = Checker::new(opts).run_with(&hand, &mut rb);

        assert_eq!(
            a.verdict(),
            Verdict::Success,
            "threads {threads}: spec model failed: {:?}",
            a.failure().map(|f| f.to_string())
        );
        assert_eq!(b.verdict(), Verdict::Success, "threads {threads}");
        assert_eq!(a.stats(), b.stats(), "threads {threads}: checker stats");
    }
}

/// A *wrong* candidate (dropping the invalidation ack) fails identically in
/// both models: same verdict, same violated property, same trace length.
#[test]
fn spec_msi_wrong_candidate_fails_identically() {
    let spec = msi_spec();
    let mut pairs = golden_pairs(&spec);
    for (hole, idx) in pairs.iter_mut() {
        if hole == "cache/SM_AD+Inv/resp" {
            *idx = spec.action_index(hole, "none").unwrap();
        }
    }
    let spec_model = spec.model();
    let hand = hand_model();

    let mut ra = FixedResolver::from_pairs(pairs.clone());
    let mut rb = FixedResolver::from_pairs(pairs);
    let a = Checker::new(CheckerOptions::default()).run_with(&spec_model, &mut ra);
    let b = Checker::new(CheckerOptions::default()).run_with(&hand, &mut rb);

    assert_eq!(a.verdict(), Verdict::Failure);
    assert_eq!(b.verdict(), Verdict::Failure);
    let fa = a.failure().expect("spec failure");
    let fb = b.failure().expect("hand failure");
    assert_eq!(fa.kind, fb.kind);
    assert_eq!(fa.property, fb.property);
    assert_eq!(
        fa.trace.as_ref().map(|t| t.len()),
        fb.trace.as_ref().map(|t| t.len()),
        "witness trace lengths"
    );
    assert_eq!(a.stats(), b.stats());
}

fn assert_reports_identical(opts: SynthOptions, label: &str) {
    let spec_model = msi_spec().model();
    let hand = hand_model();
    let a = Synthesizer::new(opts.clone()).run(&spec_model);
    let b = Synthesizer::new(opts).run(&hand);

    assert_eq!(
        a.stats().evaluated,
        b.stats().evaluated,
        "{label}: evaluated"
    );
    assert_eq!(a.stats().patterns, b.stats().patterns, "{label}: patterns");
    assert_eq!(
        a.naive_candidate_space(),
        b.naive_candidate_space(),
        "{label}: naive space"
    );
    assert_eq!(
        a.solutions().len(),
        b.solutions().len(),
        "{label}: solutions"
    );
    for (sa, sb) in a.solutions().iter().zip(b.solutions().iter()) {
        assert_eq!(
            sa.display_named(a.holes()),
            sb.display_named(b.holes()),
            "{label}: solution"
        );
    }
    let rows = |r: &verc3::synth::SynthReport| -> Vec<(String, Verdict, bool, Vec<String>)> {
        r.run_log()
            .iter()
            .map(|rec| {
                (
                    rec.candidate.display_named(r.holes()),
                    rec.verdict,
                    rec.pattern_added,
                    rec.discovered.clone(),
                )
            })
            .collect()
    };
    assert_eq!(rows(&a), rows(&b), "{label}: run log");
}

/// The synthesis run logs coincide row for row. Debug builds compare a
/// 40-evaluation prefix (both models capped identically); release builds
/// compare the complete run.
#[test]
fn spec_msi_synthesis_run_log_is_bit_identical() {
    let mut opts = synth_opts().record_runs(true);
    if cfg!(debug_assertions) {
        opts = opts.max_evaluations(40);
    }
    assert_reports_identical(opts, "serial");
}

/// Parallel checking preserves the equivalence: 4 checker threads under a
/// single synthesis worker keeps the run log deterministic, and it must
/// still match the hand-written model's.
#[test]
fn spec_msi_synthesis_is_bit_identical_under_parallel_checks() {
    let checker = CheckerOptions::default().threads(4);
    let mut opts = synth_opts().record_runs(true).checker(checker);
    if cfg!(debug_assertions) {
        opts = opts.max_evaluations(40);
    }
    assert_reports_identical(opts, "4 checker threads");
}

/// Release-only: the complete synthesis run reproduces the paper's Table 1
/// MSI-small row — 366 evaluations, 357 pruning patterns — and the golden
/// block committed in the spec agrees with what synthesis finds.
#[cfg(not(debug_assertions))]
#[test]
fn spec_msi_full_synthesis_matches_paper_counts_and_golden_block() {
    let spec = msi_spec();
    let report = Synthesizer::new(synth_opts()).run(&spec.model());

    assert_eq!(report.stats().evaluated, 366);
    assert_eq!(report.stats().patterns, 357);
    assert_eq!(report.naive_candidate_space(), 231_525);

    let golden = spec.golden();
    assert_eq!(
        golden.synth_evaluated,
        Some(report.stats().evaluated as u64)
    );
    assert_eq!(golden.synth_patterns, Some(report.stats().patterns as u64));
    if let Some(n) = golden.synth_solutions {
        assert_eq!(report.solutions().len(), n);
    }

    // The golden assignment appears among the synthesized solutions.
    let assignment = golden_pairs(&spec);
    let found = report.solutions().iter().any(|sol| {
        assignment.iter().all(|(hole, idx)| {
            report
                .holes()
                .iter()
                .position(|h| h.name == *hole)
                .map(|slot| sol.action_for(slot) == Some(*idx as u16))
                .unwrap_or(false)
        })
    });
    assert!(found, "golden assignment must be a synthesized solution");
}
