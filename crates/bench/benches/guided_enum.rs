//! Guided-enumeration bench: pattern-constraint propagation driving the
//! odometer ([`Enumeration::Guided`]) against the lexicographic
//! skip-counting walk on the serial pruned MSI rows.
//!
//! Both strategies visit the exact same candidate sequence — this bench
//! *asserts* that the evaluated counts, pattern tables, and solution sets
//! are identical — so the interesting number is **probes**: pattern-index
//! consultations spent proposing candidates. Lexicographic enumeration
//! pays one consultation per depth per candidate from the root; the guided
//! propagator builds a per-hole refuted-action mask once per prefix
//! (watched-literal style), so refuted siblings and carry-returns are
//! cached bit tests. On msi_xl (14 holes, ~3.2k patterns) the bench
//! requires a ≥ 5× probe reduction — the acceptance bar the perf gate pins
//! against the committed baseline (measured: >1000×).
//!
//! Guided workers also claim every run of chunks their patterns refute in
//! one dispenser step, so a guided run's **claims** follow its active
//! chunks (chunks with an evaluation), not the size of its space. On
//! serial guided msi_xl the bench asserts claims ≤ 2 × (active chunks +
//! generations) — a deterministic bound (each active chunk costs its own
//! claim plus at most one refuted-run claim) that a regression to
//! per-chunk claiming (67M claims) fails.
//!
//! Emits **BENCH_guided.json** at the workspace root: one
//! `(workload, strategy, evaluated, patterns, solutions, probes, claims,
//! active_chunks, wall_ms)` row per (workload × strategy). Probes, claims
//! and active chunks are cost measurements, not results.
//!
//! ```text
//! cargo bench -p verc3-bench --bench guided_enum
//! ```

use std::fmt::Write as _;
use std::time::Instant;
use verc3_bench::{run_synthesis_row_controlled, RowControls};
use verc3_core::{Enumeration, SynthReport};
use verc3_protocols::msi::MsiConfig;

/// The probe-reduction floor asserted on msi_xl (and pinned by the perf
/// gate): guided must spend at most 1/5 of the lexicographic probes.
const XL_PROBE_REDUCTION_FLOOR: f64 = 5.0;

/// Runs one serial pruned row under the given strategy, returning the
/// report and the best-of-`reps` wall time in milliseconds.
fn measure(
    workload: &str,
    config: &MsiConfig,
    strategy: Enumeration,
    reps: usize,
) -> (SynthReport, f64) {
    let controls = RowControls {
        enumeration: strategy,
        ..RowControls::default()
    };
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let (_, report) =
            run_synthesis_row_controlled(workload, config.clone(), true, 1, 1, true, &controls)
                .expect("bench synthesis run");
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        last = Some(report);
    }
    (last.expect("reps >= 1"), best)
}

/// A run's chunk claims and active chunks, summed over its generations.
fn claims_and_active(report: &SynthReport) -> (u64, u64) {
    let gens = &report.stats().generations;
    (
        gens.iter().map(|g| g.claims).sum(),
        gens.iter().map(|g| g.active_chunks).sum(),
    )
}

fn main() {
    println!("group guided_enum");
    let workloads = [
        ("msi_small", MsiConfig::msi_small(), 3),
        ("msi_large", MsiConfig::msi_large(), 3),
        ("msi_xl", MsiConfig::msi_xl(), 1),
    ];

    let mut json = String::from("[\n");
    let mut first = true;
    for (workload, config, reps) in workloads {
        let (lex, lex_ms) = measure(workload, &config, Enumeration::Lexicographic, reps);
        let (guided, guided_ms) = measure(workload, &config, Enumeration::Guided, reps);

        // The correctness bar: guided proposes the identical candidate
        // sequence, so every paper-visible number matches bit-for-bit.
        assert_eq!(
            guided.stats().evaluated,
            lex.stats().evaluated,
            "{workload}"
        );
        assert_eq!(
            guided.stats().skipped_by_pruning,
            lex.stats().skipped_by_pruning,
            "{workload}"
        );
        assert_eq!(guided.stats().patterns, lex.stats().patterns, "{workload}");
        assert_eq!(guided.solutions(), lex.solutions(), "{workload}");

        let ratio = lex.stats().probes as f64 / (guided.stats().probes as f64).max(1.0);
        println!(
            "  {workload:<10} lexicographic: {:>12} probes  {lex_ms:>8.1} ms",
            lex.stats().probes
        );
        println!(
            "  {workload:<10} guided       : {:>12} probes  {guided_ms:>8.1} ms  ({ratio:.1}x fewer probes)",
            guided.stats().probes
        );
        let (claims, active) = claims_and_active(&guided);
        println!(
            "  {workload:<10} guided       : {claims:>12} claims  {active:>8} active chunks  \
             (lexicographic: {} claims)",
            claims_and_active(&lex).0
        );
        if workload == "msi_xl" {
            assert!(
                ratio >= XL_PROBE_REDUCTION_FLOOR,
                "guided probe reduction on msi_xl is {ratio:.2}x, \
                 below the {XL_PROBE_REDUCTION_FLOOR}x bench floor"
            );
            let generations = guided.stats().generations.len() as u64;
            assert!(
                claims <= 2 * (active + generations),
                "guided msi_xl made {claims} claims for {active} active chunks \
                 over {generations} generations: refuted runs are claimed per chunk again"
            );
        }

        for (strategy, report, ms) in [
            ("lexicographic", &lex, lex_ms),
            ("guided", &guided, guided_ms),
        ] {
            let (claims, active) = claims_and_active(report);
            let _ = writeln!(
                json,
                "  {}{{\"workload\": \"{}\", \"strategy\": \"{}\", \"evaluated\": {}, \
                 \"patterns\": {}, \"solutions\": {}, \"probes\": {}, \"claims\": {}, \
                 \"active_chunks\": {}, \"wall_ms\": {:.3}}}",
                if first { "" } else { ", " },
                workload,
                strategy,
                report.stats().evaluated,
                report.stats().patterns,
                report.solutions().len(),
                report.stats().probes,
                claims,
                active,
                ms,
            );
            first = false;
        }
    }
    json.push_str("]\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_guided.json");
    std::fs::write(path, &json).expect("write BENCH_guided.json");
    println!("wrote BENCH_guided.json (6 rows)");
}
