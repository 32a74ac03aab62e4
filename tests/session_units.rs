//! Unit-level regressions for the session-based checker API: the
//! initial-states contract (computed once per session) and model naming
//! through outcomes and reports.

use std::sync::atomic::{AtomicUsize, Ordering};
use verc3::mck::{
    Checker, CheckerOptions, HoleRegistry, NoHoles, Property, Rule, RuleOutcome, TransitionSystem,
    Verdict,
};
use verc3::protocols::mesi::{MesiConfig, MesiModel};
use verc3::protocols::msi::{MsiConfig, MsiModel};
use verc3::synth::{SynthOptions, Synthesizer};

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
    let registry = HoleRegistry::new();
    let mut session = checker.session(&model, &registry);
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
