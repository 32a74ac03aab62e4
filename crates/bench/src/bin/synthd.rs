//! `synthd` — runs a synthesis workload on parallel workers and prints its
//! solutions for diffing.
//!
//! ```text
//! cargo run --release -p verc3-bench --bin synthd -- \
//!     --workload msi_small [--threads N] [--journal FILE] [--check]
//! ```
//!
//! A flag outside that line, a missing or unparsable value, or an unknown
//! workload exits 2 with the usage line before any run.
//!
//! Runs a workload with refined patterns on `--threads` synthesis workers
//! (default 4): each generation's chunk space is split into one slot per
//! worker, a worker that drains its slot steals the tail half of the
//! largest remaining one, and every worker shares the generation's hole
//! registry and pattern hub. Every worker enumerates guided, claiming each
//! run of refuted chunks in one step, clamped to whatever range a thief
//! left its slot.
//!
//! Output is designed for diffing: every solution is printed as a sorted
//! `#sol` line (hole names with their chosen actions, in name order), so
//! two invocations at different thread counts must produce byte-identical
//! `#sol` blocks. CI pins exactly that. `--check` re-runs the workload
//! serially and fails (exit 1) if the solution set differs.
//!
//! `--journal FILE` writes the run's crash journal; a killed run re-invoked
//! with the same workload resumes from it, at any `--threads`.

use std::collections::BTreeSet;
use std::process::ExitCode;
use verc3_bench::{check_flags, flag_value, usage_error};
use verc3_core::{PatternMode, SynthOptions, SynthReport, Synthesizer};
use verc3_mck::{GraphModel, TransitionSystem};
use verc3_protocols::msi::{MsiConfig, MsiModel};

const USAGE: &str = "usage: synthd [--workload fig2|msi_tiny|msi_small|msi_large|msi_xl] \
     [--threads N] [--journal FILE] [--check]";

/// Sorted, name-keyed solution lines — the diffable output contract.
fn sol_lines(report: &SynthReport) -> BTreeSet<String> {
    report
        .solutions()
        .iter()
        .map(|s| {
            let mut named: Vec<String> = s
                .assignment
                .iter()
                .map(|&(h, a)| format!("{}={a}", report.holes()[h].name))
                .collect();
            named.sort();
            format!("#sol {}", named.join(","))
        })
        .collect()
}

/// Runs `model` on `threads` workers (resuming the journal at `journal`, if
/// given) and prints it; `check` compares against an unjournaled serial run.
fn run<M: TransitionSystem>(
    model: &M,
    options: &SynthOptions,
    threads: usize,
    journal: Option<&str>,
    check: bool,
) -> ExitCode {
    let parallel = options.clone().threads(threads);
    let result = match journal {
        Some(path) => Synthesizer::new(parallel.journal(path)).resume_from_journal(model),
        None => Synthesizer::new(parallel).try_run(model),
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("synthd: {e}");
            return ExitCode::FAILURE;
        }
    };

    let stats = report.stats();
    println!(
        "#run holes={} solutions={} evaluated={} skipped={} patterns={} generations={} stop={} wall_ms={}",
        report.holes().len(),
        report.solutions().len(),
        stats.evaluated,
        stats.skipped_by_pruning,
        stats.patterns,
        stats.generations.len(),
        stats.stop,
        stats.wall.as_millis(),
    );
    for line in sol_lines(&report) {
        println!("{line}");
    }

    if check {
        let reference = Synthesizer::new(options.clone()).run(model);
        if sol_lines(&reference) != sol_lines(&report) {
            eprintln!(
                "synthd: MISMATCH — solution set differs from the serial \
                 reference ({} vs {} solutions)",
                report.solutions().len(),
                reference.solutions().len()
            );
            return ExitCode::FAILURE;
        }
        println!("#check ok — matches the serial reference");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(&args, USAGE).unwrap_or_else(|e| usage_error(USAGE, e));
    let text = |f: &str| flag_value::<String>(&args, f).unwrap_or_else(|e| usage_error(USAGE, e));

    let workload = text("--workload").unwrap_or_else(|| "msi_small".into());
    let config = match workload.as_str() {
        "fig2" => None,
        "msi_tiny" => Some(MsiConfig::msi_tiny()),
        "msi_small" => Some(MsiConfig::msi_small()),
        "msi_large" => Some(MsiConfig::msi_large()),
        "msi_xl" => Some(MsiConfig::msi_xl()),
        _ => usage_error(USAGE, format!("unknown workload `{workload}`")),
    };
    let threads: usize = match flag_value(&args, "--threads") {
        Ok(None) => 4,
        Ok(Some(n)) if n > 0 => n,
        Ok(Some(_)) => usage_error(USAGE, "--threads requires a positive integer".into()),
        Err(e) => usage_error(USAGE, e),
    };
    let check = args.iter().any(|a| a == "--check");
    let journal = text("--journal");

    let options = SynthOptions::default().pattern_mode(PatternMode::Refined);
    let journal = journal.as_deref();
    match config {
        None => run(
            &GraphModel::worked_example(),
            &options,
            threads,
            journal,
            check,
        ),
        Some(config) => run(&MsiModel::new(config), &options, threads, journal, check),
    }
}
