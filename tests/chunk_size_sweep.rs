//! Guided enumeration claims every run of chunks its patterns refute in one
//! dispenser step, so the chunk size no longer decides how much work the
//! loop does per refuted candidate — and must not decide any result. A
//! serial guided run at chunk sizes 32, 1 024 and 32 768 gives the same
//! report: evaluated and skipped counts, patterns, solutions, per-generation
//! accounting and the full run log. Only the cost measurements (probes,
//! claims, active chunks) may differ. Figure 2, at the default options, is
//! swept over chunk sizes small enough to split its generations: 1, 2, 7,
//! 32 and 1 000.
//!
//! `SynthOptions::chunk_size` is a test hook (tests and the `reference`
//! feature only): this suite is why no production caller needs it.
//!
//! Figure 2 and msi_small run in the default suite; msi_large and msi_xl
//! are release-profile workloads behind `#[ignore]`
//! (`cargo test --release -q --test chunk_size_sweep -- --ignored`).

use verc3::mck::{GraphModel, TransitionSystem};
use verc3::protocols::msi::{MsiConfig, MsiModel};
use verc3::synth::{Enumeration, PatternMode, SynthOptions, SynthReport, Synthesizer};

const CHUNK_SIZES: [u64; 3] = [32, 1_024, 32_768];

/// Everything a run reports except its cost measurements and wall time.
#[derive(Debug, PartialEq)]
struct Observable {
    evaluated: u64,
    skipped: u128,
    patterns: (usize, usize),
    solutions: Vec<Vec<(usize, u16)>>,
    /// `(k, space, evaluated, skipped, deduped)` per generation.
    generations: Vec<(usize, u128, u64, u128, u64)>,
    run_log: Vec<String>,
}

fn observable(report: &SynthReport) -> Observable {
    let stats = report.stats();
    Observable {
        evaluated: stats.evaluated,
        skipped: stats.skipped_by_pruning,
        patterns: (stats.patterns_dense, stats.patterns_sparse),
        solutions: report
            .solutions()
            .iter()
            .map(|s| s.assignment.clone())
            .collect(),
        generations: stats
            .generations
            .iter()
            .map(|g| (g.k, g.space, g.evaluated, g.skipped_by_pruning, g.deduped))
            .collect(),
        run_log: report
            .run_log()
            .iter()
            .map(|r| {
                format!(
                    "{} {} {:?} {} {:?}",
                    r.run, r.candidate, r.verdict, r.pattern_added, r.discovered
                )
            })
            .collect(),
    }
}

/// Runs `model` serially at every chunk size and returns the reports,
/// asserting identical observables and the golden `(evaluated, patterns,
/// solutions)`.
fn sweep<M: TransitionSystem>(
    model: &M,
    options: SynthOptions,
    chunk_sizes: &[u64],
    golden: (u64, usize, usize),
) -> Vec<SynthReport> {
    let reports: Vec<SynthReport> = chunk_sizes
        .iter()
        .map(|&c| Synthesizer::new(options.clone().chunk_size(c).record_runs(true)).run(model))
        .collect();
    let base = observable(&reports[0]);
    assert_eq!(
        (
            base.evaluated,
            base.patterns.0 + base.patterns.1,
            base.solutions.len()
        ),
        golden
    );
    for (chunk, report) in chunk_sizes.iter().zip(&reports).skip(1) {
        assert_eq!(observable(report), base, "chunk size {chunk}");
    }
    reports
}

/// The MSI sweep: refined patterns, guided enumeration, [`CHUNK_SIZES`].
fn sweep_msi(config: MsiConfig, golden: (u64, usize, usize)) -> Vec<SynthReport> {
    let options = SynthOptions::default()
        .pattern_mode(PatternMode::Refined)
        .enumeration(Enumeration::Guided);
    sweep(&MsiModel::new(config), options, &CHUNK_SIZES, golden)
}

/// The bound the refuted-run claim guarantees a serial run: each chunk
/// that evaluates is claimed once and followed by at most one refuted-run
/// claim, plus the first chunk of each generation and its run.
fn assert_claims_follow_active_chunks(report: &SynthReport) {
    for g in &report.stats().generations {
        assert!(
            g.claims <= 2 * (g.active_chunks + 1),
            "k={}: {} claims for {} active chunks",
            g.k,
            g.claims,
            g.active_chunks
        );
    }
}

#[test]
fn figure_2_reports_are_chunk_size_invariant() {
    let model = GraphModel::worked_example();
    let chunk_sizes = [32, 1, 2, 7, 1_000];
    for report in sweep(&model, SynthOptions::default(), &chunk_sizes, (10, 5, 1)) {
        assert_claims_follow_active_chunks(&report);
    }
}

#[test]
fn msi_small_reports_are_chunk_size_invariant() {
    for report in sweep_msi(MsiConfig::msi_small(), (366, 357, 8)) {
        assert_claims_follow_active_chunks(&report);
    }
}

#[test]
#[ignore = "release-profile workload; run with --ignored"]
fn msi_large_reports_are_chunk_size_invariant() {
    for report in sweep_msi(MsiConfig::msi_large(), (1_057, 1_046, 8)) {
        assert_claims_follow_active_chunks(&report);
    }
}

#[test]
#[ignore = "release-profile workload; run with --ignored"]
fn msi_xl_reports_are_chunk_size_invariant() {
    for report in sweep_msi(MsiConfig::msi_xl(), (3_176, 3_165, 8)) {
        assert_claims_follow_active_chunks(&report);
    }
}
