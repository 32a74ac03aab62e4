//! Differential tests for guided enumeration at the synthesis level: the
//! guided walk, the one every production run takes, visits the exact
//! candidate sequence the lexicographic reference walk visits (probe → skip
//! → advance at identical pattern-table states), so everything the paper
//! reports — run logs, pattern tables, solution sets, per-generation
//! accounting — must be bit-identical between the two strategies, in the
//! naïve baseline too. Only the probe cost may differ, and only downward.
//! The reference walk is compiled through the core crate's `reference`
//! feature.

use proptest::prelude::*;
use std::collections::BTreeSet;
use verc3::mck::GraphModel;
use verc3::protocols::msi::{MsiConfig, MsiModel};
use verc3::synth::{Enumeration, PatternMode, SynthOptions, SynthReport, Synthesizer};

fn solution_set(report: &SynthReport) -> BTreeSet<Vec<(String, u16)>> {
    report
        .solutions()
        .iter()
        .map(|s| {
            let mut v: Vec<(String, u16)> = s
                .assignment
                .iter()
                .map(|&(h, a)| (report.holes()[h].name.clone(), a))
                .collect();
            v.sort();
            v
        })
        .collect()
}

/// Per-generation `(evaluated, skipped_by_pruning, deduped)` counters.
type GenCounters = Vec<(u64, u128, u64)>;

/// Everything observable about a run except wall time and probe counts:
/// the full Figure-2-style log (candidates, verdicts, pattern additions,
/// discovery order) plus solution and pattern-table accounting.
fn observable(report: &SynthReport) -> (Vec<String>, GenCounters, usize, usize, usize) {
    let log = report
        .run_log()
        .iter()
        .map(|rec| {
            format!(
                "{} {:?} {} {:?}",
                rec.candidate.display_named(report.holes()),
                rec.verdict,
                rec.pattern_added,
                rec.discovered
            )
        })
        .collect();
    let gens = report
        .stats()
        .generations
        .iter()
        .map(|g| (g.evaluated, g.skipped_by_pruning, g.deduped))
        .collect();
    (
        log,
        gens,
        report.stats().patterns,
        report.stats().patterns_dense,
        report.stats().patterns_sparse,
    )
}

/// The searches the walks are compared under: paper-exact patterns (0),
/// refined patterns (1) and the naïve baseline, pruning off (2).
fn search(kind: u8) -> SynthOptions {
    let options = SynthOptions::default().record_runs(true);
    match kind {
        0 => options.pattern_mode(PatternMode::Exact),
        1 => options.pattern_mode(PatternMode::Refined),
        _ => options.pruning(false),
    }
}

fn run(model: &GraphModel, options: SynthOptions, strategy: Enumeration) -> SynthReport {
    Synthesizer::new(options.enumeration(strategy)).run(model)
}

#[test]
fn figure_2_run_is_identical_under_guided_enumeration() {
    let model = GraphModel::worked_example();
    let lex = run(&model, search(0), Enumeration::Lexicographic);
    let guided = run(&model, search(0), Enumeration::Guided);

    // The paper's numbers, under both strategies.
    assert_eq!(guided.stats().evaluated, 10);
    assert_eq!(guided.stats().patterns, 5);
    assert_eq!(guided.naive_candidate_space(), 24);
    assert_eq!(guided.solutions().len(), 1);

    assert_eq!(observable(&guided), observable(&lex));
    assert_eq!(guided.run_table(), lex.run_table(), "Figure-2 table exact");
    assert!(
        guided.stats().probes <= lex.stats().probes,
        "guided probes ({}) must not exceed lexicographic probes ({})",
        guided.stats().probes,
        lex.stats().probes
    );
}

#[test]
fn naive_figure_2_runs_the_guided_walk() {
    // The naïve baseline takes the production walk as well: over an empty
    // pattern table it refutes nothing, consults no pattern, and evaluates
    // the full product.
    let model = GraphModel::worked_example();
    let naive = Synthesizer::new(SynthOptions::default().pruning(false)).run(&model);
    assert_eq!(naive.stats().evaluated, 24, "naïve: the full product");
    assert_eq!(naive.solutions().len(), 1);
    assert_eq!(naive.stats().probes, 0);
    let lex = run(&model, search(2), Enumeration::Lexicographic);
    let guided = run(&model, search(2), Enumeration::Guided);
    assert_eq!(observable(&guided), observable(&lex));
    assert_eq!(guided.run_table(), lex.run_table());
    assert_eq!(solution_set(&naive), solution_set(&lex));
}

#[test]
fn msi_workloads_are_identical_under_guided_enumeration() {
    for (name, config) in [
        ("msi-tiny", MsiConfig::msi_tiny()),
        ("msi-small", MsiConfig::msi_small()),
    ] {
        let model = MsiModel::new(config);
        let opts = SynthOptions::default().pattern_mode(PatternMode::Refined);
        let lex =
            Synthesizer::new(opts.clone().enumeration(Enumeration::Lexicographic)).run(&model);
        let guided = Synthesizer::new(opts.clone().enumeration(Enumeration::Guided)).run(&model);

        assert_eq!(
            guided.stats().evaluated,
            lex.stats().evaluated,
            "{name}: evaluated"
        );
        assert_eq!(
            guided.stats().skipped_by_pruning,
            lex.stats().skipped_by_pruning,
            "{name}: skipped"
        );
        assert_eq!(
            guided.stats().patterns_dense,
            lex.stats().patterns_dense,
            "{name}: dense patterns"
        );
        assert_eq!(
            guided.stats().patterns_sparse,
            lex.stats().patterns_sparse,
            "{name}: sparse patterns"
        );
        assert_eq!(
            solution_set(&guided),
            solution_set(&lex),
            "{name}: solutions"
        );
        assert!(
            guided.stats().probes <= lex.stats().probes,
            "{name}: guided probes ({}) exceed lexicographic ({})",
            guided.stats().probes,
            lex.stats().probes
        );
    }
}

#[test]
fn parallel_guided_synthesis_matches_serial_solutions() {
    for seed in [900, 901, 902] {
        let model = GraphModel::random(seed, 6, 3);
        let serial =
            Synthesizer::new(SynthOptions::default().enumeration(Enumeration::Lexicographic))
                .run(&model);
        let guided_par = Synthesizer::new(
            SynthOptions::default()
                .enumeration(Enumeration::Guided)
                .threads(4),
        )
        .run(&model);
        let serial_set: BTreeSet<_> = solution_set(&serial);
        assert_eq!(
            solution_set(&guided_par),
            serial_set,
            "seed {seed}: parallel guided solutions"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On random models, guided enumeration reproduces the lexicographic
    /// run bit-for-bit — run log, generation accounting (deduped naïve
    /// candidates included), pattern counts — in both pattern modes and
    /// with pruning off, while probing no more than it: not at all in the
    /// naïve baseline, which never consults the pattern table.
    #[test]
    fn guided_reproduces_lexicographic_runs_exactly(
        seed in 0u64..10_000,
        holes in 3usize..8,
        kind in 0u8..3,
    ) {
        let model = GraphModel::random(seed, holes, 3);
        let lex = run(&model, search(kind), Enumeration::Lexicographic);
        let guided = run(&model, search(kind), Enumeration::Guided);
        prop_assert_eq!(observable(&guided), observable(&lex));
        prop_assert_eq!(solution_set(&guided), solution_set(&lex));
        prop_assert!(guided.stats().probes <= lex.stats().probes);
        if kind == 2 {
            prop_assert_eq!(lex.stats().probes, 0);
            prop_assert_eq!(guided.stats().probes, 0);
        }
    }
}
