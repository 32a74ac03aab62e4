//! The traced adapter is observationally identical to the bare model: the
//! same verdicts and `Stats` from the checker, and the same evaluated,
//! pattern and solution counts and solution set from the synthesizer — on
//! the hand-written MSI-tiny skeleton and on the interpreted `fig2` spec.

use perfbench::trace::{self, Traced};
use std::sync::Arc;
use verc3_core::{PatternMode, SynthOptions, SynthReport, Synthesizer};
use verc3_mck::{Checker, CheckerOptions, FixedResolver, Outcome, TransitionSystem};
use verc3_protocols::msi::{MsiConfig, MsiModel};
use verc3_spec::ProtocolSpec;

fn synthesize<M: TransitionSystem>(model: &M, options: &SynthOptions) -> SynthReport {
    Synthesizer::new(options.clone())
        .try_run(model)
        .expect("synthesis runs")
}

fn assert_same_synthesis(bare: &SynthReport, traced: &SynthReport) {
    let (b, t) = (bare.stats(), traced.stats());
    assert_eq!(b.evaluated, t.evaluated, "evaluated");
    assert_eq!(b.patterns, t.patterns, "patterns");
    assert_eq!(b.skipped_by_pruning, t.skipped_by_pruning, "skipped");
    assert_eq!(b.probes, t.probes, "probes");
    assert_eq!(b.generations, t.generations, "generations");
    assert_eq!(b.check_states_expanded, t.check_states_expanded);
    assert_eq!(b.check_states_reused, t.check_states_reused);
    let names = |r: &SynthReport| r.holes().iter().map(|h| h.name.clone()).collect::<Vec<_>>();
    assert_eq!(names(bare), names(traced), "hole discovery order");
    assert_eq!(bare.solutions(), traced.solutions(), "solution set");
    assert!(!bare.solutions().is_empty());
}

fn assert_same_outcome<S>(bare: &Outcome<S>, traced: &Outcome<S>) {
    assert_eq!(bare.verdict(), traced.verdict(), "verdict");
    assert_eq!(bare.stats(), traced.stats(), "stats");
    assert_eq!(
        bare.failure().map(|f| (f.kind, f.property.clone())),
        traced.failure().map(|f| (f.kind, f.property.clone())),
        "failure"
    );
}

/// Runs `f` and returns how many callbacks the traced models recorded
/// meanwhile (on any thread of the test process).
fn callbacks_during(f: impl FnOnce()) -> u64 {
    let before = trace::snapshot();
    f();
    trace::active_since(&before, &trace::snapshot())
        .iter()
        .map(|t| t.calls())
        .sum()
}

#[test]
fn msi_tiny_traced_matches_bare() {
    let bare = Arc::new(MsiModel::new(MsiConfig::msi_tiny()));
    let traced = Traced::new(Arc::clone(&bare));
    let options = SynthOptions::default().pattern_mode(PatternMode::Refined);

    let mut traced_report = None;
    let calls = callbacks_during(|| traced_report = Some(synthesize(&traced, &options)));
    assert!(calls > 0, "the traced model counted its callbacks");
    assert_same_synthesis(&synthesize(&*bare, &options), &traced_report.expect("ran"));

    // The skeleton with every hole a wildcard: an unknown verdict whose
    // statistics still pin the explored prefix.
    let checker = Checker::new(CheckerOptions::default());
    assert_same_outcome(
        &checker.run_with(&*bare, &mut FixedResolver::new()),
        &checker.run_with(&traced, &mut FixedResolver::new()),
    );

    let golden = Arc::new(MsiModel::new(MsiConfig::golden()));
    let golden_traced = Traced::new(Arc::clone(&golden));
    for threads in [1, 2] {
        let checker = Checker::new(CheckerOptions::default().threads(threads));
        assert_same_outcome(&checker.run(&*golden), &checker.run(&golden_traced));
    }
}

#[test]
fn fig2_spec_traced_matches_bare() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../specs/fig2.toml");
    let spec = ProtocolSpec::from_path(path).expect("fig2 spec loads");
    let bare = Arc::new(spec.model());
    let traced = Traced::new(Arc::clone(&bare));

    let mut resolver = FixedResolver::new();
    for (hole, action) in &spec.golden().assignment {
        let idx = spec.action_index(hole, action).expect("golden action");
        resolver.assign(hole.clone(), idx);
    }
    let checker = Checker::new(CheckerOptions::default());
    let mut traced_outcome = None;
    let calls = callbacks_during(|| {
        traced_outcome = Some(checker.run_with(&traced, &mut resolver.clone()));
    });
    assert!(calls > 0, "the traced model counted its callbacks");
    assert_same_outcome(
        &checker.run_with(&*bare, &mut resolver.clone()),
        &traced_outcome.expect("ran"),
    );

    let options = SynthOptions::default();
    assert_same_synthesis(
        &synthesize(&*bare, &options),
        &synthesize(&traced, &options),
    );
}
