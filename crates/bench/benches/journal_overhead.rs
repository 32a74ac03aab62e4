//! Journal overhead bench: the crash-safe progress journal
//! (`SynthOptions::journal`) against the unjournaled baseline on the serial
//! pruned MSI-large row.
//!
//! Beyond the printed pairs, this bench emits **BENCH_journal.json** at the
//! workspace root — `(workload, mode, evaluated, patterns, solutions,
//! wall_ms)` rows, `wall_ms` the mode's median — and the perf gate pins the
//! `none/journal` wall ratio so a regression that makes journaling expensive
//! (say, an fsync per record) fails CI. It also *asserts* the crash-safety
//! contract along the way: journaling must not change evaluated counts,
//! pattern counts, or the solution set, and may cost at most 25% wall time.
//!
//! The guided walk runs the row in well under half a second, so the
//! journal's ~10 `sync_data` calls weigh on every journaled run and disk
//! latency drifts from run to run. The bench therefore runs interleaved
//! pairs, alternating which mode goes first, and gates the median of the
//! per-pair ratios: drift reaches both halves of a pair alike, and the
//! median discards the few pairs a latency spike lands in (EXPERIMENTS.md,
//! "Journal overhead").
//!
//! ```text
//! cargo bench -p verc3-bench --bench journal_overhead
//! ```

use std::fmt::Write as _;
use std::time::Instant;
use verc3_bench::{run_synthesis_row_controlled, slug, RowControls};
use verc3_core::SynthReport;
use verc3_protocols::msi::MsiConfig;

/// Interleaved `(none, journal)` pairs; odd, so every median is one run.
const PAIRS: usize = 7;

/// The most the journal may cost: the median per-pair wall ratio.
const CEILING: f64 = 1.25;

/// One timed run of the row (ms) and its report.
fn run(workload: &str, config: &MsiConfig, controls: &RowControls) -> (f64, SynthReport) {
    let start = Instant::now();
    let (_, report) =
        run_synthesis_row_controlled(workload, config.clone(), true, 1, 1, true, controls)
            .expect("bench synthesis run");
    (start.elapsed().as_secs_f64() * 1e3, report)
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn main() {
    println!("group journal_overhead");
    let workload = "msi_large";
    let config = MsiConfig::msi_large();

    let journal_dir =
        std::env::temp_dir().join(format!("verc3-journal-bench-{}", std::process::id()));
    std::fs::create_dir_all(&journal_dir).expect("create journal scratch dir");
    let plain = RowControls::default();
    let journaled = RowControls {
        journal_dir: Some(journal_dir.clone()),
        ..RowControls::default()
    };

    let (mut none_ms, mut journal_ms, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut reports = None;
    for pair in 0..PAIRS {
        let ((none, none_report), (journal, journal_report)) = if pair % 2 == 0 {
            let none = run(workload, &config, &plain);
            (none, run(workload, &config, &journaled))
        } else {
            let journal = run(workload, &config, &journaled);
            (run(workload, &config, &plain), journal)
        };
        // Crash safety is free in results-space: the journal must be a pure
        // observer of the search.
        assert_eq!(
            journal_report.stats().evaluated,
            none_report.stats().evaluated
        );
        assert_eq!(
            journal_report.stats().patterns,
            none_report.stats().patterns
        );
        assert_eq!(journal_report.solutions(), none_report.solutions());
        let ratio = journal / none.max(1e-9);
        println!(
            "  pair {pair} ({} first): none {none:>8.1} ms, journal {journal:>8.1} ms ({:+.1}%)",
            if pair % 2 == 0 { "none" } else { "journal" },
            (ratio - 1.0) * 100.0
        );
        none_ms.push(none);
        journal_ms.push(journal);
        ratios.push(ratio);
        reports = Some((none_report, journal_report));
    }
    let (none, journal) = reports.expect("at least one pair");
    let journal_bytes = std::fs::metadata(journal_dir.join(format!("{}.vc3j", slug(workload))))
        .expect("journal written")
        .len();
    let ratio = median(ratios);
    assert!(
        ratio <= CEILING,
        "median journal overhead {:.1}% exceeds the 25% bench ceiling",
        (ratio - 1.0) * 100.0
    );
    let (none_ms, journal_ms) = (median(none_ms), median(journal_ms));

    println!("  {workload:<10} none    : {none_ms:>8.1} ms (median of {PAIRS})");
    println!(
        "  {workload:<10} journal : {journal_ms:>8.1} ms (median of {PAIRS}; \
         median pair {:+.1}% wall, {journal_bytes} bytes)",
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
