//! Checker unit tests: deadlock handling, state-limit truncation, and
//! BFS counterexample minimality on hand-built graph models.

use verc3_mck::{
    Checker, CheckerOptions, FailureKind, GraphModelBuilder, MckError, ModelBuilder, RuleOutcome,
    Verdict,
};

/// A three-node chain ending in a successor-less sink.
fn chain_to_sink() -> verc3_mck::GraphModel {
    let mut b = GraphModelBuilder::new("chain");
    b.edge(0, 1);
    b.edge(1, 2);
    b.finish()
}

#[test]
fn deadlocks_are_reported_by_default() {
    let model = chain_to_sink();
    let out = Checker::new(CheckerOptions::default()).run(&model);
    assert_eq!(out.verdict(), Verdict::Failure);
    let failure = out.failure().expect("deadlock must be reported");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    assert_eq!(failure.property, "deadlock freedom");
    // The minimal witness is the two-hop path 0 -> 1 -> 2 to the sink.
    let trace = failure.trace.as_ref().expect("deadlocks carry a trace");
    assert_eq!(trace.len(), 2);
    assert_eq!(*trace.last_state(), 2);
}

#[test]
fn allow_deadlock_accepts_terminal_states() {
    let model = chain_to_sink();
    let out = Checker::new(CheckerOptions::default().allow_deadlock()).run(&model);
    assert_eq!(out.verdict(), Verdict::Success);
    assert!(out.failure().is_none());
    assert_eq!(out.stats().states_visited, 3);
}

#[test]
fn max_states_truncation_yields_unknown_with_incomplete_reason() {
    // An unbounded counter: exploration can never finish.
    let mut b = ModelBuilder::new("unbounded");
    b.initial(0u64);
    b.rule("inc", |&s: &u64, _| RuleOutcome::Next(s + 1));
    let model = b.finish();

    let out = Checker::new(CheckerOptions::default().max_states(250)).run(&model);
    assert_eq!(
        out.verdict(),
        Verdict::Unknown,
        "a truncated run proves nothing"
    );
    assert!(
        out.failure().is_none(),
        "truncation is not a property violation"
    );
    match out.incomplete() {
        Some(MckError::StateLimitExceeded { limit }) => assert_eq!(*limit, 250),
        other => panic!("expected StateLimitExceeded, got {other:?}"),
    }
    // The limit is a hard admission cap: the first state that would exceed
    // it is refused, so the committed count lands exactly on the cap.
    assert_eq!(out.stats().states_visited, 250);
}

#[test]
fn max_states_admission_is_clamped_at_the_boundary() {
    // A 10-state chain (0..=9, deadlocking at 9) straddling the cap: one
    // below, exactly at, and comfortably above. `Stats.states ≤ max_states`
    // must hold in every case, serial and parallel alike.
    let model = || {
        let mut b = ModelBuilder::new("ten");
        b.initial(0u8);
        b.rule("inc", |&s: &u8, _| {
            if s < 9 {
                RuleOutcome::Next(s + 1)
            } else {
                RuleOutcome::Disabled
            }
        });
        b.finish()
    };

    for threads in [1usize, 4] {
        let run = |cap: usize| {
            Checker::new(
                CheckerOptions::default()
                    .max_states(cap)
                    .allow_deadlock()
                    .threads(threads),
            )
            .run(&model())
        };

        let below = run(9);
        assert_eq!(below.verdict(), Verdict::Unknown, "{threads} threads");
        assert_eq!(below.stats().states_visited, 9, "{threads} threads");
        assert!(matches!(
            below.incomplete(),
            Some(MckError::StateLimitExceeded { limit: 9 })
        ));

        let exact = run(10);
        assert_eq!(exact.verdict(), Verdict::Success, "{threads} threads");
        assert_eq!(exact.stats().states_visited, 10, "{threads} threads");
        assert!(exact.incomplete().is_none(), "cap never needed");

        let above = run(11);
        assert_eq!(above.verdict(), Verdict::Success, "{threads} threads");
        assert_eq!(above.stats().states_visited, 10, "{threads} threads");
    }
}

#[test]
fn max_states_zero_refuses_even_the_initial_state() {
    let mut b = ModelBuilder::new("zero-cap");
    b.initial(0u8);
    b.rule("spin", |&s: &u8, _| RuleOutcome::Next(s));
    let model = b.finish();
    for threads in [1usize, 4] {
        let out =
            Checker::new(CheckerOptions::default().max_states(0).threads(threads)).run(&model);
        assert_eq!(out.verdict(), Verdict::Unknown);
        assert_eq!(out.stats().states_visited, 0);
        assert!(matches!(
            out.incomplete(),
            Some(MckError::StateLimitExceeded { limit: 0 })
        ));
    }
}

#[test]
fn max_states_large_enough_does_not_truncate() {
    let mut b = ModelBuilder::new("bounded");
    b.initial(0u8);
    b.rule("inc", |&s: &u8, _| {
        if s < 9 {
            RuleOutcome::Next(s + 1)
        } else {
            RuleOutcome::Disabled
        }
    });
    let model = b.finish();
    let out =
        Checker::new(CheckerOptions::default().max_states(1_000).allow_deadlock()).run(&model);
    assert_eq!(out.verdict(), Verdict::Success);
    assert!(out.incomplete().is_none());
    assert_eq!(out.stats().states_visited, 10);
}

#[test]
fn bfs_reports_the_shortest_of_competing_counterexample_paths() {
    // Three routes to the error node 9: a 4-hop, a 2-hop, and a 3-hop. The
    // declaration order deliberately puts the longest first — BFS must still
    // report the 2-hop trace.
    let mut b = GraphModelBuilder::new("routes");
    b.edge(0, 1);
    b.edge(1, 2);
    b.edge(2, 3);
    b.edge(3, 9); // 4 hops
    b.edge(0, 4);
    b.edge(4, 9); // 2 hops (minimal)
    b.edge(0, 5);
    b.edge(5, 6);
    b.edge(6, 9); // 3 hops
    b.error_node(9);
    let model = b.finish();

    let out = Checker::new(CheckerOptions::default().allow_deadlock()).run(&model);
    assert_eq!(out.verdict(), Verdict::Failure);
    let failure = out.failure().unwrap();
    assert_eq!(failure.kind, FailureKind::InvariantViolation);
    let trace = failure.trace.as_ref().unwrap();
    assert_eq!(trace.len(), 2, "BFS must find the 2-hop route");
    assert_eq!(
        trace.steps()[0].state,
        0,
        "traces start at the initial state"
    );
    assert_eq!(*trace.last_state(), 9);
    // The minimal route goes through node 4.
    assert_eq!(trace.steps()[1].state, 4);
}

#[test]
fn bfs_minimality_holds_at_depth_zero_ties() {
    // The error node is one hop away via two distinct edges; the trace must
    // have exactly one transition whichever edge wins.
    let mut b = GraphModelBuilder::new("tie");
    b.edge(0, 9);
    b.edge(0, 9);
    b.error_node(9);
    let model = b.finish();
    let out = Checker::new(CheckerOptions::default().allow_deadlock()).run(&model);
    let trace = out.failure().unwrap().trace.as_ref().unwrap().clone();
    assert_eq!(trace.len(), 1);
}
