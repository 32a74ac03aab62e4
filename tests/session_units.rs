//! Unit-level regressions for the session-based checker API: the
//! initial-states contract (computed once per session), model naming
//! through outcomes and reports, and the resolver delta query.

use std::sync::atomic::{AtomicUsize, Ordering};
use verc3::mck::{
    Checker, CheckerOptions, NoHoles, Property, Rule, RuleOutcome, TransitionSystem, Verdict,
};
use verc3::protocols::mesi::{MesiConfig, MesiModel};
use verc3::protocols::msi::{MsiConfig, MsiModel};
use verc3::protocols::vi::{ViConfig, ViModel};
use verc3::synth::{assignment_delta, DiscoveryDefault, SynthOptions, Synthesizer};

/// A hand-rolled `TransitionSystem` that counts how often the checker asks
/// for its initial states — and deliberately does *not* override `name`,
/// pinning the trait's default.
struct CountingModel {
    calls: AtomicUsize,
    rules: Vec<Rule<u8>>,
    properties: Vec<Property<u8>>,
}

impl CountingModel {
    fn new() -> Self {
        CountingModel {
            calls: AtomicUsize::new(0),
            rules: vec![Rule::new(
                "step",
                |&s: &u8, _: &mut dyn verc3::mck::HoleResolver| RuleOutcome::Next((s + 1) % 16),
            )],
            properties: vec![Property::invariant("bounded", |&s: &u8| s < 16)],
        }
    }
}

impl TransitionSystem for CountingModel {
    type State = u8;

    fn initial_states(&self) -> Vec<u8> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        vec![0]
    }

    fn rules(&self) -> &[Rule<u8>] {
        &self.rules
    }

    fn properties(&self) -> &[Property<u8>] {
        &self.properties
    }
}

#[test]
fn session_queries_initial_states_exactly_once() {
    let model = CountingModel::new();
    let checker = Checker::new(CheckerOptions::default());
    let mut session = checker.session(&model);
    assert_eq!(
        model.calls.load(Ordering::SeqCst),
        1,
        "canonical initial states are computed at session creation"
    );
    for _ in 0..5 {
        let out = session.check(&NoHoles);
        assert_eq!(out.verdict(), Verdict::Success);
    }
    assert_eq!(
        model.calls.load(Ordering::SeqCst),
        1,
        "repeated checks must not re-query initial_states"
    );
}

#[test]
fn one_shot_runs_query_initial_states_once_each() {
    let model = CountingModel::new();
    let checker = Checker::new(CheckerOptions::default());
    checker.run(&model);
    checker.run(&model);
    assert_eq!(model.calls.load(Ordering::SeqCst), 2);
}

#[test]
fn custom_models_fall_back_to_the_default_name() {
    let model = CountingModel::new();
    let out = Checker::new(CheckerOptions::default()).run(&model);
    assert_eq!(out.model_name(), "unnamed model");
}

#[test]
fn protocol_models_report_their_names() {
    let checker = Checker::new(CheckerOptions::default());
    let msi = MsiModel::new(MsiConfig::golden());
    assert_eq!(checker.run(&msi).model_name(), "MSI-3c");
    let msi_data = MsiModel::new(MsiConfig {
        data_values: true,
        ..MsiConfig::golden()
    });
    assert_eq!(checker.run(&msi_data).model_name(), "MSI-3c+data");
    let mesi = MesiModel::new(MesiConfig::golden());
    assert_eq!(checker.run(&mesi).model_name(), "MESI-3c");
    let vi = ViModel::new(ViConfig::golden());
    assert!(checker.run(&vi).model_name().starts_with("VI-"));
}

#[test]
fn built_models_and_reports_are_named() {
    use verc3::mck::ModelBuilder;
    let mut b = ModelBuilder::new("two-counter");
    b.initial(0u8);
    b.rule("inc", |&s: &u8, _| {
        if s < 2 {
            RuleOutcome::Next(s + 1)
        } else {
            RuleOutcome::Disabled
        }
    });
    b.invariant("small", |&s: &u8| s < 5);
    let m = b.finish();
    let out = Checker::new(CheckerOptions::default().allow_deadlock()).run(&m);
    assert_eq!(out.model_name(), "two-counter");

    let skeleton = MsiModel::new(MsiConfig::msi_small());
    let report = Synthesizer::new(SynthOptions::default().max_evaluations(3)).run(&skeleton);
    assert_eq!(report.model_name(), "MSI-3c skeleton (8 holes)");
    assert!(report.to_string().contains("MSI-3c skeleton (8 holes)"));
}

#[test]
fn assignment_delta_flags_exactly_the_changed_holes() {
    let w = DiscoveryDefault::Wildcard;
    // Identical candidates: empty delta.
    assert_eq!(
        assignment_delta(&[1, 2, 0], &[1, 2, 0], w, 3),
        Vec::<usize>::new()
    );
    // Last digit changed: only the deepest hole invalidates.
    assert_eq!(assignment_delta(&[1, 2, 1], &[1, 2, 0], w, 3), vec![2]);
    // Prefix grew: the newly concrete holes changed from their default.
    assert_eq!(assignment_delta(&[1, 2, 0], &[1], w, 3), vec![1, 2]);
    // Growing with the *default answer itself* is no change in naïve mode…
    let z = DiscoveryDefault::ActionZero;
    assert_eq!(assignment_delta(&[1, 0], &[1], z, 2), Vec::<usize>::new());
    // …but is a wildcard→concrete flip in pruning mode.
    assert_eq!(assignment_delta(&[1, 0], &[1], w, 2), vec![1]);
    // Registry knows more holes than either prefix: unchanged defaults.
    assert_eq!(assignment_delta(&[1], &[0], w, 5), vec![0]);
}

#[test]
fn shared_resolver_delta_matches_free_function() {
    use verc3::mck::HoleSpec;
    use verc3::synth::{HoleRegistry, SharedCandidateResolver};
    let registry = HoleRegistry::new();
    for i in 0..4 {
        registry.resolve_or_register(&HoleSpec::new(format!("h{i}"), ["a", "b", "c"]));
    }
    let digits = [2u16, 1, 0];
    let resolver = SharedCandidateResolver::new(&registry, &digits, DiscoveryDefault::Wildcard);
    assert_eq!(resolver.delta_from(&[2, 1, 1]), vec![2]);
    assert_eq!(resolver.delta_from(&[2, 1, 0]), Vec::<usize>::new());
    assert_eq!(resolver.delta_from(&[0, 1]), vec![0, 2]);
}

/// The session must drain a worker's hole name → id cache when a check ends
/// and seed the next check's worker with it (`SharedResolver::worker_seeded`
/// / `HoleResolver::take_name_cache`), so name resolution pays the registry
/// lock once per session, not once per check.
///
/// The second check answers the probe's hole differently: a check that
/// repeats every answer of the previous one replays its ending and builds
/// no worker at all, so only a check that explores can show the seed.
#[test]
fn session_reseeds_the_name_cache_across_checks() {
    use std::sync::Mutex;
    use verc3::mck::{Choice, HoleResolver, HoleSpec, NameCache, SessionResolver, SharedResolver};

    /// Answers one hole ("h0" = `answer`) and records the size of every
    /// seed cache it is handed.
    struct SeedProbe<'a> {
        answer: u16,
        seed_sizes: &'a Mutex<Vec<usize>>,
    }

    struct ProbeWorker {
        answer: u16,
        cache: NameCache,
        touches: Vec<(usize, u16)>,
    }

    impl SharedResolver for SeedProbe<'_> {
        fn worker(&self) -> Box<dyn HoleResolver + '_> {
            self.worker_seeded(NameCache::default())
        }

        fn worker_seeded(&self, seed: NameCache) -> Box<dyn HoleResolver + '_> {
            self.seed_sizes.lock().unwrap().push(seed.len());
            Box::new(ProbeWorker {
                answer: self.answer,
                cache: seed,
                touches: Vec::new(),
            })
        }
    }

    impl SessionResolver for SeedProbe<'_> {
        fn assignment(&self, hole: usize) -> Option<u16> {
            (hole == 0).then_some(self.answer)
        }
    }

    impl HoleResolver for ProbeWorker {
        fn choose(&mut self, spec: &HoleSpec) -> Choice {
            self.cache.entry(spec.name().to_owned()).or_insert(0);
            self.touches.push((0, self.answer));
            Choice::Action(self.answer as usize)
        }

        fn begin_application(&mut self) {
            self.touches.clear();
        }

        fn application_touches(&self) -> &[(usize, u16)] {
            &self.touches
        }

        fn take_name_cache(&mut self) -> NameCache {
            std::mem::take(&mut self.cache)
        }
    }

    let mut b = verc3::mck::ModelBuilder::new("seeded");
    b.initial(0u8);
    b.rule("step", |&s: &u8, ctx: &mut dyn HoleResolver| {
        if s < 4 {
            let spec = HoleSpec::new("h0", ["a", "b"]);
            match ctx.choose(&spec) {
                Choice::Action(_) => RuleOutcome::Next(s + 1),
                Choice::Wildcard => RuleOutcome::Blocked,
            }
        } else {
            RuleOutcome::Disabled
        }
    });
    b.invariant("bounded", |&s: &u8| s <= 4);
    let model = b.finish();

    for threads in [1usize, 2] {
        let seed_sizes = Mutex::new(Vec::new());
        let probe = |answer| SeedProbe {
            answer,
            seed_sizes: &seed_sizes,
        };
        let checker = Checker::new(CheckerOptions::default().allow_deadlock().threads(threads));
        let mut session = checker.session(&model);
        let first = session.check(&probe(0));
        let second = session.check(&probe(1));
        assert_eq!(first.verdict(), Verdict::Success);
        assert_eq!(first.stats(), second.stats());
        let sizes = seed_sizes.lock().unwrap();
        assert_eq!(
            sizes[0], 0,
            "threads={threads}: the first worker starts with an empty cache"
        );
        assert!(
            sizes.iter().skip(1).any(|&s| s > 0),
            "threads={threads}: a later worker must be seeded with the drained \
             cache, got seed sizes {sizes:?}"
        );
    }
}
