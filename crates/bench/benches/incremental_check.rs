//! Incremental re-verification bench: the session-based synthesis loop
//! (`SynthOptions::reuse_sessions`, the default) against the
//! per-candidate-restart baseline, on the MSI workloads.
//!
//! Beyond the printed table, this bench emits **BENCH_incremental.json** at
//! the workspace root — `(workload, mode, threads, check_threads,
//! evaluated, solutions, states_expanded, states_reused, reuse_rate,
//! expansions_reused, expansion_reuse_rate, wall_ms)` rows — so the reuse
//! trajectory can be tracked. `reuse_rate` is the share of the one-shot
//! work's states inherited from session checkpoints, and
//! `expansion_reuse_rate` the share (over the same total) of states whose
//! expansion a live layer took from its expansion record. It also
//! *asserts* the acceptance contract along the way: for every workload the
//! session loop must report identical dispatch counts, pattern counts, and
//! solution sets to the one-shot loop, while expanding **at least 30%
//! fewer** states on the serial rows.
//!
//! ```text
//! cargo bench -p verc3-bench --bench incremental_check
//! ```

use std::fmt::Write as _;
use std::time::Instant;
use verc3_bench::run_synthesis_row_with;
use verc3_core::SynthReport;
use verc3_protocols::msi::MsiConfig;

struct Row {
    workload: &'static str,
    mode: &'static str,
    threads: usize,
    check_threads: usize,
    evaluated: u64,
    solutions: usize,
    states_expanded: u64,
    states_reused: u64,
    reuse_rate: f64,
    expansions_reused: u64,
    expansion_reuse_rate: f64,
    wall_ms: f64,
}

fn measure(
    workload: &'static str,
    config: MsiConfig,
    threads: usize,
    check_threads: usize,
    sessions: bool,
) -> (Row, SynthReport) {
    let start = Instant::now();
    let (_, report) =
        run_synthesis_row_with(workload, config, true, threads, check_threads, sessions);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let stats = report.stats();
    let row = Row {
        workload,
        mode: if sessions { "sessions" } else { "one-shot" },
        threads,
        check_threads,
        evaluated: stats.evaluated,
        solutions: report.solutions().len(),
        states_expanded: stats.check_states_expanded,
        states_reused: stats.check_states_reused,
        reuse_rate: stats.check_reuse_rate(),
        expansions_reused: stats.check_expansions_reused,
        expansion_reuse_rate: stats.check_expansions_reused as f64
            / (stats.check_states_expanded + stats.check_states_reused).max(1) as f64,
        wall_ms,
    };
    (row, report)
}

fn solution_set(report: &SynthReport) -> std::collections::BTreeSet<Vec<(String, u16)>> {
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

fn main() {
    println!("group incremental_check");
    let mut rows: Vec<Row> = Vec::new();

    for (workload, config) in [
        ("msi_small", MsiConfig::msi_small()),
        ("msi_large", MsiConfig::msi_large()),
    ] {
        // Serial acceptance pair: bit-identical results, >= 30% fewer
        // expansions.
        let (base_row, base) = measure(workload, config.clone(), 1, 1, false);
        let (sess_row, sess) = measure(workload, config.clone(), 1, 1, true);
        assert_eq!(
            sess.stats().evaluated,
            base.stats().evaluated,
            "{workload}: dispatch counts must be identical"
        );
        assert_eq!(
            sess.stats().patterns,
            base.stats().patterns,
            "{workload}: pattern counts must be identical"
        );
        assert_eq!(
            solution_set(&sess),
            solution_set(&base),
            "{workload}: solution sets must be identical"
        );
        assert!(
            (sess_row.states_expanded as f64) <= 0.7 * base_row.states_expanded as f64,
            "{workload}: expected >= 30% fewer expansions, got {} vs {}",
            sess_row.states_expanded,
            base_row.states_expanded,
        );
        println!(
            "  {workload:<10} one-shot : {:>9} states expanded, {:>8.1} ms",
            base_row.states_expanded, base_row.wall_ms
        );
        println!(
            "  {workload:<10} sessions : {:>9} states expanded, {:>9} reused \
             ({:.1}% avoided), {:>9} expansions from records ({:.1}%), {:>8.1} ms ({:.2}x)",
            sess_row.states_expanded,
            sess_row.states_reused,
            sess_row.reuse_rate * 100.0,
            sess_row.expansions_reused,
            sess_row.expansion_reuse_rate * 100.0,
            sess_row.wall_ms,
            base_row.wall_ms / sess_row.wall_ms.max(1e-9),
        );
        rows.push(base_row);
        rows.push(sess_row);

        // Parallel-checker session row: counts stay bit-identical to the
        // serial session row (the replay guarantee composed with reuse).
        let (par_row, par) = measure(workload, config, 1, 4, true);
        assert_eq!(par.stats().evaluated, sess.stats().evaluated);
        assert_eq!(solution_set(&par), solution_set(&sess));
        println!(
            "  {workload:<10} sessions (check-threads 4): {:>9} expanded, {:.1}% reuse, {:>8.1} ms",
            par_row.states_expanded,
            par_row.reuse_rate * 100.0,
            par_row.wall_ms
        );
        rows.push(par_row);
    }

    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "  {{\"workload\": \"{}\", \"mode\": \"{}\", \"threads\": {}, \
             \"check_threads\": {}, \"evaluated\": {}, \"solutions\": {}, \
             \"states_expanded\": {}, \"states_reused\": {}, \
             \"reuse_rate\": {:.4}, \"expansions_reused\": {}, \
             \"expansion_reuse_rate\": {:.4}, \"wall_ms\": {:.3}}}{}",
            r.workload,
            r.mode,
            r.threads,
            r.check_threads,
            r.evaluated,
            r.solutions,
            r.states_expanded,
            r.states_reused,
            r.reuse_rate,
            r.expansions_reused,
            r.expansion_reuse_rate,
            r.wall_ms,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    json.push_str("]\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_incremental.json");
    std::fs::write(path, &json).expect("write BENCH_incremental.json");
    println!("wrote BENCH_incremental.json ({} rows)", rows.len());
}
