//! Property-based equivalence tests: on randomized models, every synthesis
//! strategy (naïve, exact pruning, refined pruning, parallel) must report
//! the same solution set — pruning is an optimization, never an answer
//! changer.

use proptest::prelude::*;
use std::collections::BTreeSet;
use verc3::mck::GraphModel;
use verc3::synth::{PatternMode, SynthOptions, SynthReport, Synthesizer};

/// Solutions compared by hole *name* (ids depend on discovery order, which
/// legitimately differs between strategies).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pruning_never_changes_the_solution_set(seed in 0u64..10_000, holes in 3usize..8) {
        let model = GraphModel::random(seed, holes, 3);
        let naive = Synthesizer::new(SynthOptions::default().pruning(false)).run(&model);
        let exact = Synthesizer::new(
            SynthOptions::default().pattern_mode(PatternMode::Exact),
        ).run(&model);
        let refined = Synthesizer::new(
            SynthOptions::default().pattern_mode(PatternMode::Refined),
        ).run(&model);

        prop_assert_eq!(solution_set(&exact), solution_set(&naive));
        prop_assert_eq!(solution_set(&refined), solution_set(&naive));
        // Refined patterns subsume exact ones, so they can only prune more.
        prop_assert!(refined.stats().evaluated <= exact.stats().evaluated);
    }

    #[test]
    fn parallel_never_changes_the_solution_set(seed in 0u64..10_000, threads in 2usize..6) {
        let model = GraphModel::random(seed, 6, 3);
        let seq = Synthesizer::new(SynthOptions::default()).run(&model);
        let par = Synthesizer::new(SynthOptions::default().threads(threads)).run(&model);
        prop_assert_eq!(solution_set(&par), solution_set(&seq));
    }

    #[test]
    fn naive_evaluates_exactly_the_discovered_product(seed in 0u64..10_000) {
        let model = GraphModel::random(seed, 5, 3);
        let naive = Synthesizer::new(SynthOptions::default().pruning(false)).run(&model);
        // Lazy discovery: the evaluated count equals the product over the
        // holes that were actually discovered (unreachable holes excluded).
        let product: u128 = naive.holes().iter().map(|h| h.arity() as u128).product();
        prop_assert_eq!(naive.stats().evaluated as u128, product);
    }

    #[test]
    fn every_reported_solution_reverifies(seed in 0u64..10_000) {
        use verc3::mck::{Checker, CheckerOptions, FixedResolver, Verdict};
        let model = GraphModel::random(seed, 5, 3);
        let report = Synthesizer::new(SynthOptions::default()).run(&model);
        for solution in report.solutions() {
            let mut r = FixedResolver::new();
            for &(h, a) in &solution.assignment {
                r.assign(report.holes()[h].name.clone(), a as usize);
            }
            let out = Checker::new(CheckerOptions::default()).run_with(&model, &r);
            prop_assert_eq!(out.verdict(), Verdict::Success);
        }
    }
}
