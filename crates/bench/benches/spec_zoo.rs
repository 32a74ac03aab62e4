//! Protocol-zoo bench: every declarative spec under `specs/` is loaded,
//! verified under its committed golden assignment, and — when the spec
//! commits `[golden.synth]` counts — synthesized to completion. The bench
//! *asserts* that each measured row reproduces its golden block (the same
//! self-gating contract as `fig3_check --spec`), so a drifting interpreter
//! fails here before it fails in CI's protocol-zoo matrix.
//!
//! The interesting number is the **interpreter overhead**: the interpreted
//! MSI-small port runs the exact same state space as the hand-written
//! `MsiModel` (the differential suite proves bit-identity), so the wall
//! ratio between the two is pure interpretation cost. The two sides run
//! in alternation, so a change in host load hits both, and the ratio is
//! taken between their medians.
//!
//! Emits **BENCH_zoo.json** at the workspace root: one
//! `(spec, states, transitions, verify_wall_ms, synth_evaluated,
//! synth_patterns, synth_solutions, synth_wall_ms)` row per spec, plus an
//! `interp_overhead` ratio row against the hand-written MSI skeleton.
//!
//! ```text
//! cargo bench -p verc3-bench --bench spec_zoo
//! ```

use std::fmt::Write as _;
use std::time::Instant;
use verc3_bench::{
    run_spec_synthesis, spec_golden_resolver, spec_verification_deviations, verify_spec_golden,
};
use verc3_mck::{Checker, CheckerOptions, SharedResolver, TransitionSystem};
use verc3_protocols::msi::{MsiConfig, MsiModel};
use verc3_spec::ProtocolSpec;

/// Timed runs per side of the interpreter-overhead ratio.
const OVERHEAD_REPS: usize = 31;

/// Best-of-`reps` wall time, in milliseconds, of one thunk.
fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        last = Some(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    (last.expect("reps >= 1"), best)
}

fn main() {
    println!("group spec_zoo");

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("specs/ directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 5, "the zoo holds at least five specs");

    let mut json = String::from("[\n");
    let mut first = true;
    for path in &paths {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let spec =
            ProtocolSpec::from_path(path).unwrap_or_else(|e| panic!("{name}: failed to load: {e}"));

        let ((verdict, states, transitions), verify_ms) =
            best_ms(3, || verify_spec_golden(&spec, 1));
        let devs = spec_verification_deviations(&spec, verdict, states, transitions);
        assert!(devs.is_empty(), "{name}: {}", devs.join("; "));
        println!("  {name:<12} verify: {states:>6} states {transitions:>7} transitions  {verify_ms:>8.1} ms");

        let synth = if spec.golden().gates_synthesis() {
            let start = Instant::now();
            let (report, devs) = run_spec_synthesis(&spec);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(devs.is_empty(), "{name}: {}", devs.join("; "));
            println!(
                "  {name:<12} synth : {:>6} evaluated {:>6} patterns {:>3} solutions  {ms:>8.1} ms",
                report.stats().evaluated,
                report.stats().patterns,
                report.solutions().len()
            );
            Some((report, ms))
        } else {
            None
        };

        let (se, sp, ss, sw) = match &synth {
            Some((r, ms)) => (
                r.stats().evaluated.to_string(),
                r.stats().patterns.to_string(),
                r.solutions().len().to_string(),
                format!("{ms:.3}"),
            ),
            None => ("null".into(), "null".into(), "null".into(), "null".into()),
        };
        let _ = writeln!(
            json,
            "  {}{{\"spec\": \"{name}\", \"states\": {states}, \"transitions\": {transitions}, \
             \"verify_wall_ms\": {verify_ms:.3}, \"synth_evaluated\": {se}, \
             \"synth_patterns\": {sp}, \"synth_solutions\": {ss}, \"synth_wall_ms\": {sw}}}",
            if first { "" } else { ", " },
        );
        first = false;
    }

    // Interpreter overhead: the interpreted MSI-small golden-candidate
    // verification against the hand-written skeleton on the identical state
    // space (332 states / 977 transitions, proven bit-identical by the
    // differential suite). Both sides check an already built model through
    // the same call; which side goes first alternates.
    let msi_spec = ProtocolSpec::from_path(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/msi_small.toml"
    ))
    .expect("specs/msi_small.toml");
    let resolver = spec_golden_resolver(&msi_spec);
    let spec_model = msi_spec.model();
    let hand = MsiModel::new(MsiConfig::msi_small());
    let (mut spec_runs, mut hand_runs) = (Vec::new(), Vec::new());
    for rep in 0..OVERHEAD_REPS {
        for spec_side in [rep % 2 == 0, rep % 2 == 1] {
            if spec_side {
                spec_runs.push(check_ms(&spec_model, &resolver));
            } else {
                hand_runs.push(check_ms(&hand, &resolver));
            }
        }
    }
    let (spec_ms, hand_ms) = (median(spec_runs), median(hand_runs));
    let overhead = spec_ms / hand_ms.max(1e-6);
    println!("  interpreter overhead on msi_small: {spec_ms:.1} ms vs {hand_ms:.1} ms hand-written ({overhead:.1}x)");
    let _ = writeln!(
        json,
        "  , {{\"spec\": \"interp_overhead\", \"hand_wall_ms\": {hand_ms:.3}, \
         \"spec_wall_ms\": {spec_ms:.3}, \"overhead\": {overhead:.3}}}"
    );
    json.push_str("]\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_zoo.json");
    std::fs::write(path, &json).expect("write BENCH_zoo.json");
    println!("wrote BENCH_zoo.json ({} spec rows)", paths.len());
}

/// Wall time, in milliseconds, of one msi_small golden-candidate check.
fn check_ms<M: TransitionSystem>(model: &M, resolver: &dyn SharedResolver) -> f64 {
    let start = Instant::now();
    let out = Checker::new(CheckerOptions::default()).run_shared(model, resolver);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(out.stats().states_visited, 332);
    ms
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}
