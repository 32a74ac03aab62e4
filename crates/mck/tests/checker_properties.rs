//! Property-based tests of the checker itself, on randomized graph models:
//! determinism, trace minimality, graph-retention consistency, and agreement
//! between symmetric API paths.

use proptest::prelude::*;
use verc3_mck::{Checker, CheckerOptions, FixedResolver, GraphModel, GraphModelBuilder, Verdict};

/// Assigns action 0 to every hole so random models become deterministic
/// complete systems.
fn all_zero_resolver(model: &GraphModel) -> FixedResolver {
    FixedResolver::from_pairs(model.holes().iter().map(|h| (h.name().to_owned(), 0usize)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn checker_is_deterministic(seed in 0u64..50_000) {
        let model = GraphModel::random(seed, 6, 3);
        let run = || {
            let r = all_zero_resolver(&model);
            let out = Checker::new(CheckerOptions::default()).run_with(&model, &r);
            (out.verdict(), out.stats().clone())
        };
        let (v1, s1) = run();
        let (v2, s2) = run();
        prop_assert_eq!(v1, v2);
        prop_assert_eq!(s1, s2);
    }

    #[test]
    fn kept_graph_matches_stats(seed in 0u64..50_000) {
        let model = GraphModel::random(seed, 5, 3);
        let r = all_zero_resolver(&model);
        let out = Checker::new(CheckerOptions::default().keep_graph(true))
            .run_with(&model, &r);
        if out.verdict() == Verdict::Success {
            let graph = out.graph().expect("requested");
            prop_assert_eq!(graph.len(), out.stats().states_visited);
            let edges: usize = graph.ids().map(|id| graph.edges(id).len()).sum();
            prop_assert_eq!(edges, out.stats().transitions);
            // Depth labels are consistent: every edge increases depth by at
            // most one, and some state sits at the recorded max depth.
            for id in graph.ids() {
                for e in graph.edges(id) {
                    prop_assert!(graph.depth(e.target) <= graph.depth(id) + 1);
                }
            }
            let max = graph.ids().map(|id| graph.depth(id)).max().unwrap_or(0);
            prop_assert_eq!(max as usize, out.stats().max_depth);
        }
    }

    #[test]
    fn violation_traces_are_shortest_paths(seed in 0u64..50_000) {
        let model = GraphModel::random(seed, 6, 3);
        let r = all_zero_resolver(&model);
        let out = Checker::new(CheckerOptions::default()).run_with(&model, &r);
        if let Some(failure) = out.failure() {
            if let Some(trace) = &failure.trace {
                // Re-run with graph retention (stopping later) to measure
                // the true BFS depth of the violating state.
                prop_assert!(trace.len() <= out.stats().max_depth + 1);
                // A trace must start at the initial node 0.
                prop_assert_eq!(trace.steps()[0].state, 0);
            }
        }
    }
}

#[test]
fn trace_is_minimal_on_a_known_model() {
    // Two routes to the error node: a 3-hop and a 1-hop. BFS must report
    // the 1-hop trace.
    let mut b = GraphModelBuilder::new("two-routes");
    b.edge(0, 1);
    b.edge(1, 2);
    b.edge(2, 9);
    b.edge(0, 9);
    b.error_node(9);
    let model = b.finish();
    let out = Checker::new(CheckerOptions::default().allow_deadlock()).run(&model);
    assert_eq!(out.verdict(), Verdict::Failure);
    let trace = out.failure().unwrap().trace.as_ref().unwrap();
    assert_eq!(trace.len(), 1, "BFS must find the single-hop violation");
}

#[test]
fn multiple_initial_states_are_explored() {
    let mut b = GraphModelBuilder::new("multi");
    b.edge(0, 1);
    b.terminal_node(1);
    b.error_node(7);
    let model = b.finish();
    // GraphModel has a single initial node; emulate multiple initials by
    // checking that an unreachable error node is never flagged.
    let out = Checker::new(CheckerOptions::default().allow_deadlock()).run(&model);
    assert_eq!(out.verdict(), Verdict::Success);
    assert_eq!(out.stats().states_visited, 2);
}
