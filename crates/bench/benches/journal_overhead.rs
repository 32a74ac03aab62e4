//! Journal overhead bench: the crash-safe progress journal
//! (`SynthOptions::journal`) against the unjournaled baseline on the serial
//! pruned MSI-large row.
//!
//! Beyond the printed pair, this bench emits **BENCH_journal.json** at the
//! workspace root — `(workload, mode, evaluated, patterns, solutions,
//! wall_ms)` rows — and the perf gate pins the `none/journal` wall ratio so
//! a regression that makes journaling expensive (say, an fsync per record)
//! fails CI. It also *asserts* the crash-safety contract along the way:
//! journaling must not change evaluated counts, pattern counts, or the
//! solution set, and may cost at most 25% wall time even on a noisy runner.
//! The guided walk runs the row in well under half a second, so the
//! journal's ~10 `sync_data` calls dominate its cost and the ratio swings
//! with disk latency: seven runs on a shared 2-vCPU container read
//! −22% to +55% (EXPERIMENTS.md, "Journal overhead").
//!
//! ```text
//! cargo bench -p verc3-bench --bench journal_overhead
//! ```

use std::fmt::Write as _;
use std::time::Instant;
use verc3_bench::{run_synthesis_row_controlled, slug, RowControls};
use verc3_core::SynthReport;
use verc3_protocols::msi::MsiConfig;

/// Best-of-`reps` wall time (ms) for one journaling mode, plus the last
/// run's report for the identity asserts.
fn measure(
    workload: &str,
    config: &MsiConfig,
    controls: &RowControls,
    reps: usize,
) -> (f64, SynthReport) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let (_, report) =
            run_synthesis_row_controlled(workload, config.clone(), true, 1, 1, true, controls)
                .expect("bench synthesis run");
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        last = Some(report);
    }
    (best, last.expect("reps >= 1"))
}

fn main() {
    println!("group journal_overhead");
    let reps = 3;
    let workload = "msi_large";
    let config = MsiConfig::msi_large();

    let journal_dir =
        std::env::temp_dir().join(format!("verc3-journal-bench-{}", std::process::id()));
    std::fs::create_dir_all(&journal_dir).expect("create journal scratch dir");

    let (none_ms, none) = measure(workload, &config, &RowControls::default(), reps);
    let journaled = RowControls {
        journal_dir: Some(journal_dir.clone()),
        ..RowControls::default()
    };
    let (journal_ms, journal) = measure(workload, &config, &journaled, reps);

    // Crash safety is free in results-space: the journal must be a pure
    // observer of the search.
    assert_eq!(journal.stats().evaluated, none.stats().evaluated);
    assert_eq!(journal.stats().patterns, none.stats().patterns);
    assert_eq!(journal.solutions(), none.solutions());
    let journal_bytes = std::fs::metadata(journal_dir.join(format!("{}.vc3j", slug(workload))))
        .expect("journal written")
        .len();
    let ratio = journal_ms / none_ms.max(1e-9);
    assert!(
        ratio <= 1.25,
        "journal overhead {:.1}% exceeds the 25% bench ceiling",
        (ratio - 1.0) * 100.0
    );

    println!("  {workload:<10} none    : {none_ms:>8.1} ms");
    println!(
        "  {workload:<10} journal : {journal_ms:>8.1} ms ({:+.1}% wall, {journal_bytes} bytes)",
        (ratio - 1.0) * 100.0,
    );

    let mut json = String::from("[\n");
    for (i, (mode, ms, report)) in [("none", none_ms, &none), ("journal", journal_ms, &journal)]
        .iter()
        .enumerate()
    {
        let _ = writeln!(
            json,
            "  {{\"workload\": \"{}\", \"mode\": \"{}\", \"evaluated\": {}, \
             \"patterns\": {}, \"solutions\": {}, \"wall_ms\": {:.3}}}{}",
            workload,
            mode,
            report.stats().evaluated,
            report.stats().patterns,
            report.solutions().len(),
            ms,
            if i == 0 { "," } else { "" },
        );
    }
    json.push_str("]\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_journal.json");
    std::fs::write(path, &json).expect("write BENCH_journal.json");
    let _ = std::fs::remove_dir_all(&journal_dir);
    println!("wrote BENCH_journal.json (2 rows)");
}
