//! `synthd` — the sharded-synthesis coordinator daemon.
//!
//! ```text
//! cargo run --release -p verc3-bench --bin synthd -- \
//!     --workload msi_small --shards 4 [--no-exchange] [--no-steal] \
//!     [--guided] [--fs DIR] [--journal FILE] [--json] [--check]
//! ```
//!
//! A flag outside that line, a missing or unparsable value, or an unknown
//! workload exits 2 with the usage line before any run.
//!
//! Runs a workload through the shard coordinator
//! ([`verc3_core::run_sharded_with`]): the candidate space of each
//! generation is partitioned into odometer ranges across `--shards`
//! workers, failure patterns are exchanged between shards as they are
//! published, finished shards steal from the largest remaining range, and
//! the per-shard reports are merged into one deterministic result.
//!
//! Output is designed for diffing: every solution is printed as a sorted
//! `#sol` line (hole names with their chosen actions, in name order), so
//! two invocations — different shard counts, exchange on or off — must
//! produce byte-identical `#sol` blocks. CI pins exactly that. `--json`
//! additionally prints one machine-readable [`verc3_core::ShardReport`]
//! line per shard
//! per round; `--check` re-runs the workload single-process and fails
//! (exit 1) if the merged solution set differs.
//!
//! `--guided` enumerates with [`verc3_core::Enumeration::Guided`] instead
//! of the lexicographic walk: the same solutions, with refuted chunk runs
//! claimed in one step across the shards' steal-pool slots.
//!
//! `--fs DIR` swaps the in-memory exchange transport for the filesystem
//! spool ([`verc3_core::FsExchange`]): pattern batches become `.vc3b`
//! files under `DIR`, observable (and importable) by other processes.
//! `--journal FILE` writes the run's crash journal (one file for every shard
//! and round); a killed run re-invoked with the same flags resumes from it.
//! The journal pins the shard count: resuming with a different `--shards`
//! fails.

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::Arc;
use verc3_bench::{check_flags, flag_value, usage_error};
use verc3_core::{
    run_sharded_with, Enumeration, FsExchange, PatternExchange, PatternMode, ShardOptions,
    ShardedRun, SynthOptions, SynthReport, Synthesizer,
};
use verc3_mck::{GraphModel, TransitionSystem};
use verc3_protocols::msi::{MsiConfig, MsiModel};

const USAGE: &str = "usage: synthd [--workload fig2|msi_tiny|msi_small|msi_large|msi_xl] \
     [--shards N] [--no-exchange] [--no-steal] [--guided] [--fs DIR] \
     [--journal FILE] [--json] [--check]";

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

/// Runs `model` sharded (journaled at `journal`, if given) and prints it;
/// `check` compares against an unjournaled single-process run.
fn run<M: TransitionSystem>(
    model: &M,
    options: &SynthOptions,
    journal: Option<&str>,
    sharding: &ShardOptions,
    endpoint: Option<Arc<dyn PatternExchange>>,
    json: bool,
    check: bool,
) -> ExitCode {
    let journaled = match journal {
        Some(path) => options.clone().journal(path),
        None => options.clone(),
    };
    let run: ShardedRun = match run_sharded_with(model, &journaled, sharding, endpoint) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("synthd: {e}");
            return ExitCode::FAILURE;
        }
    };

    if json {
        for shard in &run.shards {
            println!("{}", shard.to_json());
        }
    }
    let stats = run.report.stats();
    println!(
        "#run holes={} solutions={} evaluated={} skipped={} patterns={} rounds={} stop={} wall_ms={}",
        run.report.holes().len(),
        run.report.solutions().len(),
        stats.evaluated,
        stats.skipped_by_pruning,
        stats.patterns,
        stats.generations.len(),
        stats.stop,
        stats.wall.as_millis(),
    );
    for line in sol_lines(&run.report) {
        println!("{line}");
    }

    if check {
        let reference = Synthesizer::new(options.clone()).run(model);
        if sol_lines(&reference) != sol_lines(&run.report) {
            eprintln!(
                "synthd: MISMATCH — merged solution set differs from the \
                 single-process reference ({} vs {} solutions)",
                run.report.solutions().len(),
                reference.solutions().len()
            );
            return ExitCode::FAILURE;
        }
        println!("#check ok — matches single-process reference");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(&args, USAGE).unwrap_or_else(|e| usage_error(USAGE, e));
    let has = |f: &str| args.iter().any(|a| a == f);
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
    let shards: usize = match flag_value(&args, "--shards") {
        Ok(None) => 4,
        Ok(Some(n)) if n > 0 => n,
        Ok(Some(_)) => usage_error(USAGE, "--shards requires a positive integer".into()),
        Err(e) => usage_error(USAGE, e),
    };
    let (json, check) = (has("--json"), has("--check"));

    let sharding = ShardOptions::default()
        .shards(shards)
        .exchange(!has("--no-exchange"))
        .steal(!has("--no-steal"));
    let journal = text("--journal");
    let endpoint: Option<Arc<dyn PatternExchange>> = match text("--fs") {
        Some(dir) => match FsExchange::new(dir, shards) {
            Ok(fs) => Some(Arc::new(fs)),
            Err(e) => {
                eprintln!("synthd: cannot open exchange spool: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let options = SynthOptions::default()
        .pattern_mode(PatternMode::Refined)
        .enumeration(if has("--guided") {
            Enumeration::Guided
        } else {
            Enumeration::Lexicographic
        });
    let journal = journal.as_deref();
    match config {
        None => run(
            &GraphModel::worked_example(),
            &options,
            journal,
            &sharding,
            endpoint,
            json,
            check,
        ),
        Some(config) => run(
            &MsiModel::new(config),
            &options,
            journal,
            &sharding,
            endpoint,
            json,
            check,
        ),
    }
}
