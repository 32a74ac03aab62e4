//! Property-based equivalence tests for [`verc3::mck::CheckSession`]: a
//! sequence of `session.check` calls must be observationally identical —
//! verdict, full `Stats`, failure attribution, counterexample trace — to a
//! fresh run per candidate, whatever order the candidates arrive in
//! (shared-prefix, disjoint, or random) and at any thread count.
//!
//! The fresh-run oracle is the reference serial BFS
//! (`verc3::mck::checker::reference`), the original queue-driven driver
//! every production check used to run on — so these tests compare two
//! *independent* implementations, not the session against itself. A second
//! group holds the session-based synthesis loop
//! ([`SynthOptions::reuse_sessions`]) bit-identical to the
//! per-candidate-restart loop, which checks each candidate on a fresh
//! session.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use verc3::mck::checker::reference::Bfs;
use verc3::mck::{Checker, CheckerOptions, GraphModel, Outcome, SharedResolver, Verdict};
use verc3::synth::{
    DiscoveryDefault, HoleRegistry, PatternMode, SharedCandidateResolver, SynthOptions,
    SynthReport, Synthesizer,
};

fn assert_outcomes_match<S: std::fmt::Debug>(session: &Outcome<S>, fresh: &Outcome<S>, what: &str) {
    assert_eq!(session.verdict(), fresh.verdict(), "{what}: verdict");
    assert_eq!(session.stats(), fresh.stats(), "{what}: stats");
    assert_eq!(
        session.model_name(),
        fresh.model_name(),
        "{what}: model name"
    );
    match (session.failure(), fresh.failure()) {
        (None, None) => {}
        (Some(s), Some(f)) => {
            assert_eq!(s.kind, f.kind, "{what}: failure kind");
            assert_eq!(s.property, f.property, "{what}: property");
            assert_eq!(s.touched, f.touched, "{what}: touched");
            assert_eq!(
                format!("{:?}", s.trace),
                format!("{:?}", f.trace),
                "{what}: trace"
            );
        }
        (s, f) => panic!("{what}: failure presence diverged: {s:?} vs {f:?}"),
    }
}

/// Registers all of the model's holes (in the model's declaration order,
/// matching lazy-discovery order for these graph models) so candidate digit
/// vectors can be generated over the registered arities — the shape the
/// synthesis loop's generations produce.
fn register_holes(model: &GraphModel, registry: &HoleRegistry) -> Vec<u32> {
    for spec in model.holes() {
        registry.resolve_or_register(spec);
    }
    registry.arities(registry.len())
}

/// A candidate sequence mixing the orders the synthesis loop produces:
/// last-digit mutations (deep shared prefixes), random-digit mutations,
/// fresh random vectors (disjoint), shortened prefixes (wildcard suffixes),
/// and exact repeats.
fn candidate_sequence(radices: &[u32], seq_seed: u64, len: usize) -> Vec<Vec<u16>> {
    let mut rng = StdRng::seed_from_u64(seq_seed);
    let mut current: Vec<u16> = radices
        .iter()
        .map(|&r| rng.gen_range(0..r as usize) as u16)
        .collect();
    let mut out = Vec::with_capacity(len);
    out.push(current.clone());
    while out.len() < len {
        match rng.gen_range(0..5usize) {
            // Mutate the least significant digit: the odometer's common step.
            0 => {
                let len = current.len();
                if let Some(last) = current.last_mut() {
                    let r = radices[len - 1];
                    *last = ((*last as u32 + 1) % r) as u16;
                }
            }
            // Mutate one random digit: a pruning skip landing elsewhere.
            1 if !current.is_empty() => {
                let i = rng.gen_range(0..current.len());
                current[i] = rng.gen_range(0..radices[i] as usize) as u16;
            }
            // Fresh random candidate: a disjoint jump.
            2 => {
                current = radices
                    .iter()
                    .map(|&r| rng.gen_range(0..r as usize) as u16)
                    .collect();
            }
            // Shorter prefix: earlier-generation shape (wildcard suffix).
            3 => {
                let keep = rng.gen_range(0..radices.len());
                current.truncate(keep);
            }
            // Exact repeat.
            _ => {}
        }
        // Re-grow truncated candidates with fresh digits half of the time,
        // so wildcard suffixes both persist and get re-assigned.
        if current.len() < radices.len() && rng.gen_range(0..2) == 0 {
            for &r in &radices[current.len()..] {
                current.push(rng.gen_range(0..r as usize) as u16);
            }
        }
        out.push(current.clone());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core tentpole property: random models × mutated candidates ×
    /// threads {1, 2, 4, 8} × shared-prefix/disjoint orders, session vs the
    /// reference BFS.
    #[test]
    fn session_check_sequences_match_fresh_runs(
        seed in 0u64..10_000,
        holes in 3usize..7,
        seq_seed in 0u64..10_000,
    ) {
        let model = GraphModel::random(seed, holes, 3);
        for default in [DiscoveryDefault::Wildcard, DiscoveryDefault::ActionZero] {
            let registry = HoleRegistry::new();
            let radices = register_holes(&model, &registry);
            let candidates = candidate_sequence(&radices, seq_seed, 8);
            for threads in [1usize, 2, 4, 8] {
                // Clamp off: the 4-thread leg must stay multi-threaded even
                // on single-core CI shards.
                let options = CheckerOptions::default().threads(threads).clamp_threads(false);
                let mut session = Checker::new(options.clone()).session(&model);
                for (i, digits) in candidates.iter().enumerate() {
                    let resolver = SharedCandidateResolver::new(&registry, digits, default);
                    let fresh = Bfs::new(&model, &options, &mut *resolver.worker()).explore();
                    let reused = session.check(&resolver);
                    assert_outcomes_match(
                        &reused,
                        &fresh,
                        &format!("seed {seed} seq {seq_seed} {default:?} t{threads} step {i}"),
                    );
                }
            }
        }
    }

    /// The serial session-based synthesis loop is *bit-identical* to the
    /// per-candidate-restart loop: same run log, same dispatch count, same
    /// patterns, same solutions.
    #[test]
    fn session_synthesis_loop_is_bit_identical(seed in 0u64..10_000) {
        let model = GraphModel::random(seed, 6, 3);
        for mode in [PatternMode::Exact, PatternMode::Refined] {
            let opts = || SynthOptions::default().pattern_mode(mode).record_runs(true);
            let one_shot = Synthesizer::new(opts().reuse_sessions(false)).run(&model);
            let sessions = Synthesizer::new(opts()).run(&model);
            assert_eq!(sessions.stats().evaluated, one_shot.stats().evaluated);
            assert_eq!(sessions.stats().patterns, one_shot.stats().patterns);
            assert_eq!(run_log_display(&sessions), run_log_display(&one_shot));
            assert_eq!(named_solutions(&sessions), named_solutions(&one_shot));
            assert_eq!(
                sessions.stats().check_states_expanded
                    + sessions.stats().check_states_reused,
                one_shot.stats().check_states_expanded,
                "reused + expanded must account for exactly the one-shot work"
            );
        }
    }

    /// Both parallelism axes, under sessions: the solution set never moves.
    #[test]
    fn session_loop_solution_set_is_thread_invariant(seed in 0u64..10_000) {
        let model = GraphModel::random(seed, 6, 3);
        let baseline = Synthesizer::new(SynthOptions::default().reuse_sessions(false)).run(&model);
        for (threads, check_threads) in [(1, 4), (4, 1), (2, 2)] {
            let par = Synthesizer::new(
                SynthOptions::default()
                    .threads(threads)
                    .checker(CheckerOptions::default().threads(check_threads).clamp_threads(false)),
            )
            .run(&model);
            assert_eq!(
                named_solutions(&par),
                named_solutions(&baseline),
                "threads {threads} × check_threads {check_threads}"
            );
        }
    }

    /// Deferred discovery keeps hole registration order deterministic under
    /// parallel checking: two identical runs agree on the full ordered hole
    /// table, not just the set.
    #[test]
    fn parallel_check_hole_order_is_deterministic(seed in 0u64..10_000) {
        let model = GraphModel::random(seed, 6, 3);
        let run = || {
            Synthesizer::new(
                SynthOptions::default()
                    .checker(CheckerOptions::default().threads(4).clamp_threads(false)),
            )
            .run(&model)
        };
        let (a, b) = (run(), run());
        let names = |r: &SynthReport| -> Vec<String> {
            r.holes().iter().map(|h| h.name.clone()).collect()
        };
        assert_eq!(names(&a), names(&b), "ordered hole table must be reproducible");
        // And with pruning-mode defaults it matches the serial order too.
        let serial = Synthesizer::new(SynthOptions::default()).run(&model);
        assert_eq!(names(&a), names(&serial), "parallel discovery order = serial order");
    }
}

fn run_log_display(report: &SynthReport) -> Vec<String> {
    report
        .run_log()
        .iter()
        .map(|r| {
            format!(
                "{} {} {} {:?}",
                r.candidate.display_named(report.holes()),
                r.verdict,
                r.pattern_added,
                r.discovered
            )
        })
        .collect()
}

fn named_solutions(report: &SynthReport) -> std::collections::BTreeSet<Vec<(String, u16)>> {
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

/// Non-proptest spot check: a session sequence over the worked example at 4
/// checker threads lands the paper's unique solution with identical stats
/// to reference runs.
#[test]
fn worked_example_session_matches_one_shot_at_4_threads() {
    let model = GraphModel::worked_example();
    let registry = HoleRegistry::new();
    let radices = register_holes(&model, &registry);
    assert_eq!(radices.len(), 4);
    let options = CheckerOptions::default().threads(4).clamp_threads(false);
    let mut session = Checker::new(options.clone()).session(&model);
    // Walk the full candidate space in odometer order — the worst case for
    // checkpoint bookkeeping (every candidate differs from its predecessor).
    let mut digits = vec![0u16; radices.len()];
    loop {
        let resolver =
            SharedCandidateResolver::new(&registry, &digits, DiscoveryDefault::ActionZero);
        let fresh = Bfs::new(&model, &options, &mut *resolver.worker()).explore();
        let reused = session.check(&resolver);
        assert_outcomes_match(&reused, &fresh, &format!("candidate {digits:?}"));
        // Advance the odometer (least significant digit fastest).
        let mut i = radices.len();
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            digits[i] += 1;
            if (digits[i] as u32) < radices[i] {
                break;
            }
            digits[i] = 0;
        }
    }
}

/// The acceptance-criteria workload: on MSI-small synthesis the session
/// loop reports bit-identical results to the one-shot loop while expanding
/// at least 30% fewer states.
#[test]
fn msi_small_session_loop_matches_one_shot_with_30_percent_fewer_expansions() {
    use verc3::protocols::msi::{MsiConfig, MsiModel};
    let model = MsiModel::new(MsiConfig::msi_small());
    let opts = || SynthOptions::default().pattern_mode(PatternMode::Refined);
    let one_shot = Synthesizer::new(opts().reuse_sessions(false)).run(&model);
    let sessions = Synthesizer::new(opts()).run(&model);

    assert_eq!(sessions.stats().evaluated, one_shot.stats().evaluated);
    assert_eq!(sessions.stats().patterns, one_shot.stats().patterns);
    assert_eq!(named_solutions(&sessions), named_solutions(&one_shot));
    assert_eq!(
        sessions.stats().check_states_expanded + sessions.stats().check_states_reused,
        one_shot.stats().check_states_expanded,
        "sessions must account for exactly the one-shot exploration work"
    );
    assert!(
        (sessions.stats().check_states_expanded as f64)
            <= 0.7 * one_shot.stats().check_states_expanded as f64,
        "expected >= 30% fewer expansions: sessions {} vs one-shot {}",
        sessions.stats().check_states_expanded,
        one_shot.stats().check_states_expanded,
    );
    assert_eq!(sessions.model_name(), "MSI-3c skeleton (8 holes)");

    // Solution-set invariance across both parallelism axes under sessions.
    let baseline = named_solutions(&sessions);
    for (threads, check_threads) in [(1, 4), (4, 1), (4, 4)] {
        let par = Synthesizer::new(
            opts().threads(threads).checker(
                CheckerOptions::default()
                    .threads(check_threads)
                    .clamp_threads(false),
            ),
        )
        .run(&model);
        assert_eq!(
            named_solutions(&par),
            baseline,
            "threads {threads} × check_threads {check_threads}"
        );
    }
}

/// Parallel checking under sessions preserves the serial loop's exact counts
/// (the checker equivalence guarantee composed with checkpoint reuse).
#[test]
fn msi_small_session_loop_counts_are_check_thread_invariant() {
    use verc3::protocols::msi::{MsiConfig, MsiModel};
    let model = MsiModel::new(MsiConfig::msi_small());
    let opts = || SynthOptions::default().pattern_mode(PatternMode::Refined);
    let serial = Synthesizer::new(opts()).run(&model);
    let par =
        Synthesizer::new(opts().checker(CheckerOptions::default().threads(4).clamp_threads(false)))
            .run(&model);
    assert_eq!(par.stats().evaluated, serial.stats().evaluated);
    assert_eq!(par.stats().patterns, serial.stats().patterns);
    assert_eq!(named_solutions(&par), named_solutions(&serial));
    assert_eq!(
        par.stats().check_states_expanded,
        serial.stats().check_states_expanded,
        "the parallel checker's replay keeps per-candidate exploration identical"
    );
}

/// Whole-check replay, on one fixed-seed sequence: under both discovery
/// defaults and at every thread count, each check matches the reference BFS
/// on outcome and on the run's touched set (live consultations plus the
/// session's reused ones), and some checks of a *changed* candidate really
/// replay — so the replay path is compared, not skipped.
#[test]
fn replayed_checks_match_fresh_runs() {
    let model = GraphModel::random(4242, 6, 3);
    for default in [DiscoveryDefault::Wildcard, DiscoveryDefault::ActionZero] {
        let registry = HoleRegistry::new();
        let radices = register_holes(&model, &registry);
        let candidates = candidate_sequence(&radices, 77, 40);
        for threads in [1usize, 2, 4, 8] {
            let options = CheckerOptions::default()
                .threads(threads)
                .clamp_threads(false);
            let mut session = Checker::new(options.clone()).session(&model);
            let mut changed_replays = 0;
            for (i, digits) in candidates.iter().enumerate() {
                let replays_before = session.stats().checks_replayed;
                let what = format!("{default:?} t{threads} step {i}");
                let fresh_resolver = SharedCandidateResolver::new(&registry, digits, default);
                let fresh = Bfs::new(&model, &options, &mut *fresh_resolver.worker()).explore();
                let resolver = SharedCandidateResolver::new(&registry, digits, default);
                let reused = session.check(&resolver);
                assert_outcomes_match(&reused, &fresh, &what);
                let mut touched = resolver.into_touched();
                touched.extend(session.reused_touches());
                touched.sort_unstable();
                touched.dedup();
                assert_eq!(
                    touched,
                    fresh_resolver.into_touched(),
                    "{what}: touched set"
                );
                let replayed = session.stats().checks_replayed > replays_before;
                if replayed && i > 0 && candidates[i - 1] != *digits {
                    changed_replays += 1;
                }
            }
            assert!(
                changed_replays > 0,
                "{default:?} t{threads}: the sequence must replay a changed candidate, got {:?}",
                session.stats()
            );
        }
    }
}

/// Holes first sighted in the layer where a check stops are registered at
/// the stop, so the stop log names them and a replay still reports their
/// naïve-mode `(hole, 0)` touches: on a fresh registry the first check of
/// the empty candidate discovers every hole it consults, and the second
/// replays it with the same touched set.
#[test]
fn replays_report_holes_first_sighted_in_the_stop_layer() {
    for seed in 0..32 {
        let model = GraphModel::random(seed, 6, 3);
        for threads in [1usize, 2] {
            let options = CheckerOptions::default()
                .threads(threads)
                .clamp_threads(false);
            let registry = HoleRegistry::new();
            let mut session = Checker::new(options).session(&model);
            let touched = |resolver: SharedCandidateResolver<'_>, reused: Vec<(usize, u16)>| {
                let mut touched = resolver.into_touched();
                touched.extend(reused);
                touched.sort_unstable();
                touched.dedup();
                touched
            };
            let first = SharedCandidateResolver::new(&registry, &[], DiscoveryDefault::ActionZero);
            let first_outcome = session.check(&first);
            let first_touched = touched(first, session.reused_touches());
            let second = SharedCandidateResolver::new(&registry, &[], DiscoveryDefault::ActionZero);
            let second_outcome = session.check(&second);
            let what = format!("seed {seed} t{threads}");
            assert_eq!(session.stats().checks_replayed, 1, "{what}: replays");
            assert_outcomes_match(&second_outcome, &first_outcome, &what);
            assert_eq!(
                touched(second, session.reused_touches()),
                first_touched,
                "{what}: touched set"
            );
        }
    }
}

/// Wildcard-heavy verification through a session: the three-valued verdict
/// survives checkpoint reuse.
#[test]
fn unknown_verdicts_survive_session_reuse() {
    let model = GraphModel::worked_example();
    let registry = HoleRegistry::new();
    register_holes(&model, &registry);
    let mut session = Checker::new(CheckerOptions::default()).session(&model);
    // Empty prefix in wildcard mode: every hole blocks.
    let wild = SharedCandidateResolver::new(&registry, &[], DiscoveryDefault::Wildcard);
    let first = session.check(&wild);
    assert_eq!(first.verdict(), Verdict::Unknown);
    let second = session.check(&wild);
    assert_eq!(second.verdict(), Verdict::Unknown);
    assert_eq!(first.stats(), second.stats());
}

/// Expansion records, on fixed-seed sequences of mutated candidates: under
/// both discovery defaults and at every thread count each check matches the
/// reference BFS on outcome and touched set, every thread count takes the
/// same expansions from records, and some live layers do take expansions
/// from records — so the record path is compared, not skipped. The random
/// graph models cover wildcard consultations and deferred discoveries; the
/// MSI skeleton has wide layers whose states consult different holes.
#[test]
fn reused_expansions_match_fresh_runs() {
    use verc3::protocols::msi::{MsiConfig, MsiModel};
    fn sweep<M: verc3::mck::TransitionSystem>(
        model: &M,
        registry: &HoleRegistry,
        candidates: &[Vec<u16>],
        default: DiscoveryDefault,
        what: &str,
    ) -> u64 {
        let mut reused_by_threads = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let options = CheckerOptions::default()
                .threads(threads)
                .clamp_threads(false);
            let mut session = Checker::new(options.clone()).session(model);
            for (i, digits) in candidates.iter().enumerate() {
                let what = format!("{what} {default:?} t{threads} step {i}");
                let fresh_resolver = SharedCandidateResolver::new(registry, digits, default);
                let fresh = Bfs::new(model, &options, &mut *fresh_resolver.worker()).explore();
                let resolver = SharedCandidateResolver::new(registry, digits, default);
                let reused = session.check(&resolver);
                assert_outcomes_match(&reused, &fresh, &what);
                let mut touched = resolver.into_touched();
                touched.extend(session.reused_touches());
                touched.sort_unstable();
                touched.dedup();
                assert_eq!(
                    touched,
                    fresh_resolver.into_touched(),
                    "{what}: touched set"
                );
            }
            reused_by_threads.push(session.stats().expansions_reused);
        }
        assert!(
            reused_by_threads.iter().all(|&n| n == reused_by_threads[0]),
            "{what} {default:?}: reused expansions depend on threads: {reused_by_threads:?}"
        );
        reused_by_threads[0]
    }

    // The random graphs are chains with one state per layer, so only their
    // deeper layers, committed again after a rollback, can reuse.
    let mut reused = 0;
    for (seed, seq_seed) in [(4242, 77), (7, 3)] {
        let model = GraphModel::random(seed, 6, 3);
        for default in [DiscoveryDefault::Wildcard, DiscoveryDefault::ActionZero] {
            let registry = HoleRegistry::new();
            let radices = register_holes(&model, &registry);
            let candidates = candidate_sequence(&radices, seq_seed, 40);
            let what = format!("random-{seed}");
            reused += sweep(&model, &registry, &candidates, default, &what);
        }
    }
    assert!(
        reused > 0,
        "no random-graph expansion was taken from a record"
    );

    // MSI-small's eight holes, registered by a first wildcard check; then
    // mutated candidates over them.
    let model = MsiModel::new(MsiConfig::msi_small());
    for default in [DiscoveryDefault::Wildcard, DiscoveryDefault::ActionZero] {
        let registry = HoleRegistry::new();
        let mut session = Checker::new(CheckerOptions::default()).session(&model);
        for k in 0..16 {
            let digits = vec![0u16; registry.len().min(k)];
            session.check(&SharedCandidateResolver::new(&registry, &digits, default));
        }
        let radices = registry.arities(registry.len());
        let candidates = candidate_sequence(&radices, 11, 12);
        let reused = sweep(&model, &registry, &candidates, default, "msi_small");
        assert!(
            reused > 0,
            "msi_small {default:?}: no expansion was taken from a record"
        );
    }
}
