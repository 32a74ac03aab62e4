//! Edge-case integration tests for the synthesis engine: hole-free models,
//! inherently faulty skeletons, unsolvable problems, and report invariants.

use verc3_core::{PatternMode, SynthOptions, Synthesizer};
use verc3_mck::{GraphModel, GraphModelBuilder};

/// A model without holes: synthesis degenerates to a single verification.
#[test]
fn hole_free_model_is_plain_verification() {
    let mut b = GraphModelBuilder::new("no-holes");
    b.edge(0, 1);
    b.terminal_node(1);
    let model = b.finish();
    let report = Synthesizer::new(SynthOptions::default()).run(&model);
    assert_eq!(report.holes().len(), 0);
    assert_eq!(report.stats().evaluated, 1);
    assert_eq!(report.naive_candidate_space(), 1, "empty product");
    assert_eq!(report.solutions().len(), 1, "the empty assignment verifies");
    assert!(report.solutions()[0].assignment.is_empty());
}

/// A model that fails without touching any hole: the empty pattern dooms
/// everything and no solutions exist.
#[test]
fn inherently_faulty_skeleton_fails_immediately() {
    let mut b = GraphModelBuilder::new("doomed");
    let h = b.hole("h", ["a", "b"]);
    b.edge(0, 9); // unconditional route to the error
    b.edge_hole(0, 1, h, 0);
    b.edge_hole(0, 2, h, 1);
    b.error_node(9);
    let model = b.finish();
    for mode in [PatternMode::Exact, PatternMode::Refined] {
        let report = Synthesizer::new(SynthOptions::default().pattern_mode(mode)).run(&model);
        assert!(report.solutions().is_empty());
        assert_eq!(report.stats().evaluated, 1, "one run dooms the whole space");
    }
}

/// Every action of every hole leads to failure: zero solutions, full search.
#[test]
fn unsolvable_problem_reports_no_solutions() {
    let mut b = GraphModelBuilder::new("unsolvable");
    let h = b.hole("h", ["a", "b", "c"]);
    for action in 0..3 {
        b.edge_hole(0, 9, h, action);
    }
    b.error_node(9);
    let model = b.finish();
    let pruned = Synthesizer::new(SynthOptions::default()).run(&model);
    let naive = Synthesizer::new(SynthOptions::default().pruning(false)).run(&model);
    assert!(pruned.solutions().is_empty());
    assert!(naive.solutions().is_empty());
    assert_eq!(naive.stats().evaluated, 3);
}

/// Unreachable holes never enter the candidate space (lazy discovery).
#[test]
fn unreachable_holes_are_never_discovered() {
    let mut b = GraphModelBuilder::new("gated");
    let h1 = b.hole("gate", ["open", "shut"]);
    let h2 = b.hole("behind-the-gate", ["x", "y"]);
    b.edge_hole(0, 1, h1, 0);
    b.edge_hole(0, 2, h1, 1);
    b.terminal_node(2);
    // Hole 2 only exists beyond node 1, which "shut" never reaches.
    b.edge_hole(1, 9, h2, 0);
    b.edge_hole(1, 2, h2, 1);
    b.error_node(9);
    let model = b.finish();
    let report = Synthesizer::new(SynthOptions::default()).run(&model);
    // Both holes are reachable here (gate can open), so both discovered...
    assert_eq!(report.holes().len(), 2);

    // ...but with the gate's "open" action removed from the graph, the
    // second hole must never be registered.
    let mut b = GraphModelBuilder::new("gated-shut");
    let h1 = b.hole("gate", ["shut"]);
    let h2 = b.hole("behind-the-gate", ["x", "y"]);
    b.edge_hole(0, 2, h1, 0);
    b.terminal_node(2);
    b.edge_hole(1, 9, h2, 0); // node 1 is unreachable
    b.error_node(9);
    let model = b.finish();
    let report = Synthesizer::new(SynthOptions::default()).run(&model);
    assert_eq!(
        report.holes().len(),
        1,
        "unreachable holes stay undiscovered"
    );
    assert_eq!(report.naive_candidate_space(), 1);
}

/// Generation accounting: space = evaluated + pruned + deduped, always.
#[test]
fn generation_accounting_balances() {
    for seed in [3u64, 17, 99] {
        let model = GraphModel::random(seed, 6, 3);
        for (pruning, mode) in [
            (true, PatternMode::Exact),
            (true, PatternMode::Refined),
            (false, PatternMode::Exact),
        ] {
            let report =
                Synthesizer::new(SynthOptions::default().pruning(pruning).pattern_mode(mode))
                    .run(&model);
            for g in &report.stats().generations {
                assert_eq!(
                    g.evaluated as u128 + g.skipped_by_pruning + g.deduped as u128,
                    g.space,
                    "seed {seed} pruning {pruning} k={}",
                    g.k
                );
            }
        }
    }
}

/// The report's Display output names every section.
#[test]
fn report_display_is_complete() {
    let model = GraphModel::worked_example();
    let report = Synthesizer::new(SynthOptions::default()).run(&model);
    let text = report.to_string();
    for needle in [
        "holes discovered",
        "candidate space",
        "evaluated",
        "pruning patterns",
        "solutions",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}
