//! Property-based equivalence tests for the checker: for every model,
//! resolver, and thread count, a check — the session's serial layer loop at
//! one thread, the layer-synchronized parallel engine above — must be
//! indistinguishable from the reference serial BFS
//! (`verc3::mck::checker::reference`), an independent queue-driven
//! implementation: same verdict, same full `Stats` (states, transitions,
//! wildcard hits, depth, and even the peak-queue counter, which both layer
//! loops reconstruct exactly), and the same minimal counterexample. Mirrors
//! `tests/synthesis_equivalence.rs` one layer down.

use proptest::prelude::*;
use verc3::mck::checker::reference::Bfs;
use verc3::mck::{
    Checker, CheckerOptions, FixedResolver, GraphModel, Outcome, SharedResolver, TransitionSystem,
    Verdict,
};
use verc3::protocols::mesi::{MesiConfig, MesiModel};
use verc3::protocols::msi::{MsiConfig, MsiModel};
use verc3::protocols::vi::{ViConfig, ViModel};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The reference BFS outcome of `model` under `options`, resolving holes
/// through one worker of `resolver`.
fn reference<M: TransitionSystem>(
    model: &M,
    resolver: &dyn SharedResolver,
    options: &CheckerOptions,
) -> Outcome<M::State> {
    Bfs::new(model, options, &mut *resolver.worker()).explore()
}

/// Runs `model` at every thread count and asserts all outcomes match the
/// reference BFS outcome, field by field.
fn assert_thread_invariant<M: TransitionSystem>(
    model: &M,
    resolver: &dyn SharedResolver,
    options: CheckerOptions,
) -> Verdict {
    let want = reference(model, resolver, &options);
    for threads in THREAD_COUNTS {
        // `clamp_threads(false)`: the suite must exercise real multi-threaded
        // interleavings even on single-core CI shards, where the availability
        // clamp would silently collapse every run to the serial loop.
        let got = Checker::new(options.clone().threads(threads).clamp_threads(false))
            .run_shared(model, resolver);
        assert_eq!(
            want.verdict(),
            got.verdict(),
            "verdict diverged at {threads} threads"
        );
        assert_eq!(
            want.stats(),
            got.stats(),
            "stats diverged at {threads} threads"
        );
        match (want.failure(), got.failure()) {
            (None, None) => {}
            (Some(s), Some(p)) => {
                assert_eq!(s.kind, p.kind, "failure kind at {threads} threads");
                assert_eq!(s.property, p.property, "property at {threads} threads");
                assert_eq!(s.touched, p.touched, "touched set at {threads} threads");
                assert_eq!(
                    s.trace.as_ref().map(|t| t.len()),
                    p.trace.as_ref().map(|t| t.len()),
                    "counterexample depth at {threads} threads"
                );
                assert_eq!(
                    format!("{:?}", s.trace),
                    format!("{:?}", p.trace),
                    "counterexample trace at {threads} threads"
                );
            }
            (s, p) => panic!("failure presence diverged: reference={s:?} t{threads}={p:?}"),
        }
    }
    want.verdict()
}

/// Deterministic candidate for a graph model: hole `i` gets action
/// `(assign_seed + i) % arity`, or wildcard when bit `i` of `mask` is set —
/// so the suite sweeps complete, partial, and failing candidates.
fn graph_resolver(model: &GraphModel, assign_seed: u64, mask: u64) -> FixedResolver {
    let mut r = FixedResolver::new();
    for (i, hole) in model.holes().iter().enumerate() {
        if mask & (1 << i) == 0 {
            let action = ((assign_seed >> i) as usize + i) % hole.arity();
            r.assign(hole.name().to_owned(), action);
        }
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn random_models_are_thread_invariant(
        seed in 0u64..10_000,
        holes in 3usize..8,
        assign_seed in 0u64..1_000,
        mask in 0u64..64,
    ) {
        let model = GraphModel::random(seed, holes, 3);
        let resolver = graph_resolver(&model, assign_seed, mask);
        assert_thread_invariant(
            &model,
            &resolver,
            CheckerOptions::default().allow_deadlock(),
        );
    }

    #[test]
    fn random_models_with_deadlock_checking(seed in 0u64..10_000, assign_seed in 0u64..1_000) {
        // Deadlock-disallowing runs hit the expansion-touches attribution
        // path; verdicts here are usually failures with touched sets.
        let model = GraphModel::random(seed, 5, 3);
        let resolver = graph_resolver(&model, assign_seed, 0);
        assert_thread_invariant(&model, &resolver, CheckerOptions::default());
    }

    #[test]
    fn state_caps_are_thread_invariant(seed in 0u64..10_000, cap in 1usize..30) {
        let model = GraphModel::random(seed, 6, 3);
        let resolver = graph_resolver(&model, seed, 0);
        assert_thread_invariant(
            &model,
            &resolver,
            CheckerOptions::default().allow_deadlock().max_states(cap),
        );
        // Admission clamping: the committed store may never outgrow the cap,
        // at any thread count (the stats equality above extends this from
        // the reference run to all of them).
        let out = Checker::new(CheckerOptions::default().allow_deadlock().max_states(cap))
            .run_shared(&model, &resolver);
        prop_assert!(out.stats().states_visited <= cap, "cap {cap} overshot");
    }
}

#[test]
fn golden_protocols_are_thread_invariant() {
    use verc3::mck::NoHoles;

    let msi = MsiModel::new(MsiConfig::golden());
    assert_eq!(
        assert_thread_invariant(&msi, &NoHoles, CheckerOptions::default()),
        Verdict::Success
    );

    let msi_nosym = MsiModel::new(MsiConfig {
        symmetry: false,
        ..MsiConfig::golden()
    });
    assert_eq!(
        assert_thread_invariant(&msi_nosym, &NoHoles, CheckerOptions::default()),
        Verdict::Success
    );

    let mesi = MesiModel::new(MesiConfig::golden());
    assert_eq!(
        assert_thread_invariant(&mesi, &NoHoles, CheckerOptions::default()),
        Verdict::Success
    );

    let vi = ViModel::new(ViConfig {
        n_caches: 3,
        ..ViConfig::golden()
    });
    assert_eq!(
        assert_thread_invariant(&vi, &NoHoles, CheckerOptions::default()),
        Verdict::Success
    );
}

#[test]
fn msi_data_values_is_thread_invariant() {
    use verc3::mck::NoHoles;
    let model = MsiModel::new(MsiConfig {
        data_values: true,
        ..MsiConfig::golden()
    });
    assert_eq!(
        assert_thread_invariant(&model, &NoHoles, CheckerOptions::default()),
        Verdict::Success
    );
}

/// Adversarial-interleaving stress mode: oversubscribed workers (far more
/// threads than cores), one-state chunks (maximal hand-off churn, every
/// frontier state crosses a chunk boundary), and the claim table's stripe
/// count forced to 1 (every parked claim contends on a single mutex). None
/// of it may show through: verdicts, full stats, traces, and touched sets
/// stay bit-identical to the reference on success, failure, deadlock, and
/// state-capped runs alike.
#[test]
fn adversarial_interleavings_are_thread_invariant() {
    let stress = |base: CheckerOptions| base.chunk_states(1).claim_stripes(1);

    for seed in [7u64, 77, 777, 7777] {
        let model = GraphModel::random(seed, 6, 3);
        let resolver = graph_resolver(&model, seed, seed % 16);
        let want = reference(&model, &resolver, &CheckerOptions::default());
        for threads in [3usize, 16] {
            let got = Checker::new(
                stress(CheckerOptions::default())
                    .threads(threads)
                    .clamp_threads(false),
            )
            .run_shared(&model, &resolver);
            assert_eq!(want.verdict(), got.verdict(), "seed {seed} t{threads}");
            assert_eq!(want.stats(), got.stats(), "seed {seed} t{threads}");
            assert_eq!(
                format!("{:?}", want.failure()),
                format!("{:?}", got.failure()),
                "seed {seed} t{threads}"
            );
        }
        // The shared harness sweeps the remaining thread counts and the
        // deadlock/cap variants under the same stress knobs.
        assert_thread_invariant(&model, &resolver, stress(CheckerOptions::default()));
        assert_thread_invariant(
            &model,
            &resolver,
            stress(CheckerOptions::default().allow_deadlock().max_states(17)),
        );
    }

    // A golden protocol under maximal churn: tens of thousands of states
    // all funneled through 1-state chunks and a single claim stripe.
    use verc3::mck::NoHoles;
    let msi = MsiModel::new(MsiConfig::golden());
    assert_eq!(
        assert_thread_invariant(&msi, &NoHoles, stress(CheckerOptions::default())),
        Verdict::Success
    );
}

#[test]
fn mutated_msi_candidates_are_thread_invariant() {
    // A known-bad candidate (stale data handed out by the directory) and a
    // partially-wildcarded one: failure traces and unknown verdicts must be
    // thread-count independent too.
    let mut cfg = MsiConfig::msi_small();
    cfg.data_values = true;
    let model = MsiModel::new(cfg);

    let stale = FixedResolver::from_pairs([
        ("cache/SM_AD+Inv/resp", 2usize),
        ("cache/SM_AD+Inv/next", 4),
        ("dir/IS_B+Ack/resp", 0),
        ("dir/IS_B+Ack/next", 1),
        ("dir/IS_B+Ack/track", 0),
        ("dir/SM_B+Ack/resp", 1), // send_data: stale memory to the requester
        ("dir/SM_B+Ack/next", 2),
        ("dir/SM_B+Ack/track", 0),
    ]);
    assert_eq!(
        assert_thread_invariant(&model, &stale, CheckerOptions::default()),
        Verdict::Failure
    );

    let partial = FixedResolver::from_pairs([
        ("cache/SM_AD+Inv/resp", 2usize),
        ("cache/SM_AD+Inv/next", 4),
    ]);
    assert_eq!(
        assert_thread_invariant(&model, &partial, CheckerOptions::default()),
        Verdict::Unknown
    );
}
