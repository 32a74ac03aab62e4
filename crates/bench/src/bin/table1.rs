//! Regenerates the paper's **Table I**: the MSI coherence-protocol case
//! study under naïve enumeration, candidate pruning, and parallel synthesis.
//!
//! ```text
//! cargo run --release -p verc3-bench --bin table1 -- [--small] [--large] [--xl]
//!     [--n5] [--naive-large-full] [--classify] [--samples N] [--check-threads N]
//!     [--one-shot] [--pruned-only] [--journal DIR] [--resume]
//!     [--deadline-secs N] [--state-budget N] [--journal-fsync-every N]
//!     [--spec PATH]...
//! ```
//!
//! A flag outside that line, or an unparsable value, exits 2 before any run.
//!
//! By default every dispatch goes through per-worker check sessions
//! (incremental prefix re-verification); `--one-shot` restarts the checker
//! per candidate — the pre-session reference, which this harness compiles
//! through the core crate's `reference` feature. Dispatch counts, patterns,
//! and solutions are identical either way; only the expansion work and wall
//! time move (the per-row reuse summary quantifies it).
//!
//! `--check-threads N` parallelizes every model-checker dispatch inside
//! synthesis with `N` workers (orthogonal to the table's cross-candidate
//! "4 threads" rows); dispatch counts and solutions are unaffected.
//!
//! Every row enumerates guided: the learned pattern table drives the
//! odometer to the next consistent assignment instead of vetoing candidates
//! one by one, and each run of chunks the patterns refute is claimed in one
//! step. The golden rows below were set by the lexicographic walk, which
//! visits the same candidates; the "Chunk claims" section after the table
//! prints claims against active chunks per generation, and the two stay
//! close.
//!
//! By default both paper problem sizes run; the MSI-large naïve baseline —
//! which took the paper 31 573 s — is extrapolated from a uniform random
//! sample of candidates unless `--naive-large-full` forces the real thing.
//!
//! `--xl` additionally runs **MSI-xl** (14 holes, the harder-than-paper
//! stress configuration; naïve baseline always extrapolated): ~20 s per
//! pruned row, the workload whose goldens `tests/msi_xl_golden.rs` pins.
//!
//! `--n5` runs **MSI-5** (the MSI-small hole set over *five* caches; naïve
//! baseline extrapolated) — beyond the paper on the scalarset axis, made
//! CI-affordable by the orbit-pruning canonicalizer.
//!
//! **Crash safety.** `--journal DIR` writes one progress journal per row to
//! `DIR/<label-slug>.vc3j`; `--resume` continues every row from its journal
//! (a missing journal just starts fresh). `--deadline-secs N` and
//! `--state-budget N` stop each row gracefully at its budget, and SIGINT
//! (Ctrl-C) requests a graceful stop at the next dispatch — in all three
//! cases the journal is flushed, the row is reported with its stop reason,
//! and the exact `--resume` invocation is printed. `--pruned-only` restricts
//! the run to the serial pruned row of each selected size — the journaled,
//! resumable workload the kill-and-resume smoke test drives.

use std::cell::RefCell;
use std::time::{Duration, Instant};
use verc3_bench::{
    check_flags, estimate_naive_row, flag_value, machine_row_line, paper, parse_check_threads,
    resume_command, row_header, run_spec_synthesis, run_synthesis_row_controlled, sigint,
    usage_error, MeasuredRow, RowControls,
};
use verc3_protocols::msi::MsiConfig;
use verc3_spec::ProtocolSpec;

/// Golden `(evaluated, patterns, solutions)` for every *deterministic* row:
/// the serial pruned rows (set by the lexicographic reference walk, whose
/// candidate sequence the guided walk visits; `--check-threads`/sessions
/// leave the dispatch counts untouched) plus the full naïve MSI-small
/// sweep. The 4-thread rows race across candidates and the extrapolated
/// naïve rows are sampled, so neither is pinned.
const GOLDEN_ROWS: &[(&str, u64, Option<usize>, usize)] = &[
    ("MSI-small 1 thread, no pruning", 231_525, None, 8),
    ("MSI-small 1 thread, pruning", 366, Some(357), 8),
    ("MSI-large 1 thread, pruning", 1_057, Some(1_046), 8),
    ("MSI-xl 1 thread, pruning", 3_176, Some(3_165), 8),
    ("MSI-5 1 thread, pruning", 366, Some(357), 8),
];

const USAGE: &str = "usage: table1 [--small] [--large] [--xl] [--n5] [--naive-large-full] \
     [--classify] [--samples N] [--check-threads N] [--one-shot] [--pruned-only] \
     [--journal DIR] [--resume] [--deadline-secs N] [--state-budget N] \
     [--journal-fsync-every N] [--spec PATH]...";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(&args, USAGE).unwrap_or_else(|e| usage_error(USAGE, e));
    let has = |f: &str| args.iter().any(|a| a == f);
    let value = |f: &str| flag_value::<u64>(&args, f).unwrap_or_else(|e| usage_error(USAGE, e));
    let any_size = has("--small") || has("--large") || has("--xl") || has("--n5");
    let pruned_only = has("--pruned-only");
    let small = has("--small") || !any_size;
    let large = has("--large") || !any_size;
    let xl = has("--xl");
    let n5 = has("--n5");
    let classify = has("--classify");
    let samples = flag_value(&args, "--samples")
        .unwrap_or_else(|e| usage_error(USAGE, e))
        .unwrap_or(200);
    let check_threads = parse_check_threads(&args).unwrap_or_else(|e| usage_error(USAGE, e));
    let reuse_sessions = !has("--one-shot");

    let controls = RowControls {
        journal_dir: flag_value(&args, "--journal").unwrap_or_else(|e| usage_error(USAGE, e)),
        resume: has("--resume"),
        stop_flag: Some(sigint::install()),
        deadline: value("--deadline-secs").map(Duration::from_secs),
        state_budget: value("--state-budget"),
        journal_fsync_every: value("--journal-fsync-every"),
    };
    if let Some(dir) = &controls.journal_dir {
        std::fs::create_dir_all(dir).expect("create --journal directory");
    }
    let journaling = controls.journal_dir.is_some();

    // `check_flags` guarantees every `--spec` is followed by its path.
    let spec_paths: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--spec")
        .map(|(i, _)| &args[i + 1])
        .collect();
    if !spec_paths.is_empty() {
        run_spec_rows(&spec_paths);
    }

    let deviations: RefCell<Vec<String>> = RefCell::new(Vec::new());
    let run_synthesis_row =
        |label: &str, config: MsiConfig, pruning: bool, threads: usize, check_threads: usize| {
            let (row, report) = run_synthesis_row_controlled(
                label,
                config,
                pruning,
                threads,
                check_threads,
                reuse_sessions,
                &controls,
            )
            .unwrap_or_else(|e| {
                eprintln!("{label}: {e}");
                std::process::exit(2);
            });
            if journaling {
                println!("{}", machine_row_line(label, &report));
            }
            if report.is_resumable() {
                // A budget/SIGINT-shortened row is partial by design; only
                // completed rows are held to the golden table.
            } else if let Some((_, ge, gp, gs)) =
                GOLDEN_ROWS.iter().find(|(l, _, _, _)| *l == label)
            {
                let mut devs = deviations.borrow_mut();
                if row.evaluated != *ge {
                    devs.push(format!(
                        "{label}: evaluated {} (golden {ge})",
                        row.evaluated
                    ));
                }
                if pruning && row.patterns != *gp {
                    devs.push(format!(
                        "{label}: patterns {:?} (golden {gp:?})",
                        row.patterns
                    ));
                }
                if row.solutions != *gs {
                    devs.push(format!(
                        "{label}: solutions {} (golden {gs})",
                        row.solutions
                    ));
                }
            }
            if report.is_resumable() {
                if journaling {
                    println!(
                        "  ^ stopped early ({}); resume with:\n    {}",
                        report.stats().stop,
                        resume_command("table1", &args),
                    );
                } else {
                    println!(
                        "  ^ stopped early ({}); pass --journal DIR to make \
                         interrupted runs resumable",
                        report.stats().stop,
                    );
                }
            }
            (row, report)
        };

    println!("Table I — MSI coherence protocol case study (reproduction)");
    println!("===========================================================");
    println!();
    println!("{}", row_header());
    println!("{}", "-".repeat(104));

    let mut rows: Vec<MeasuredRow> = Vec::new();
    let mut reports = Vec::new();
    // Fully-run naïve rows, for the session-reuse summary.
    let mut naive_reports = Vec::new();

    if small && !sigint::triggered() {
        if !pruned_only {
            let (row, report) = run_synthesis_row(
                "MSI-small 1 thread, no pruning",
                MsiConfig::msi_small(),
                false,
                1,
                check_threads,
            );
            println!("{}", row.format());
            rows.push(row);
            naive_reports.push(("MSI-small naive", report));
        }
        let (row, report) = run_synthesis_row(
            "MSI-small 1 thread, pruning",
            MsiConfig::msi_small(),
            true,
            1,
            check_threads,
        );
        println!("{}", row.format());
        rows.push(row);
        reports.push(("MSI-small", report));
        if !pruned_only {
            let (row, _) = run_synthesis_row(
                "MSI-small 4 threads, pruning",
                MsiConfig::msi_small(),
                true,
                4,
                check_threads,
            );
            println!("{}", row.format());
            rows.push(row);
        }
    }

    if large && !sigint::triggered() {
        let naive_row = (!pruned_only).then(|| {
            if has("--naive-large-full") {
                let (row, report) = run_synthesis_row(
                    "MSI-large 1 thread, no pruning",
                    MsiConfig::msi_large(),
                    false,
                    1,
                    check_threads,
                );
                naive_reports.push(("MSI-large naive", report));
                row
            } else {
                estimate_naive_row(
                    "MSI-large 1 thread, no pruning",
                    MsiConfig::msi_large(),
                    samples,
                    0xC0FFEE,
                )
            }
        });
        if let Some(naive_row) = naive_row {
            println!("{}", naive_row.format());
            rows.push(naive_row);
        }
        let (row, report) = run_synthesis_row(
            "MSI-large 1 thread, pruning",
            MsiConfig::msi_large(),
            true,
            1,
            check_threads,
        );
        println!("{}", row.format());
        rows.push(row);
        reports.push(("MSI-large", report));
        if !pruned_only {
            let (row, _) = run_synthesis_row(
                "MSI-large 4 threads, pruning",
                MsiConfig::msi_large(),
                true,
                4,
                check_threads,
            );
            println!("{}", row.format());
            rows.push(row);
        }
    }

    if xl && !sigint::triggered() {
        if !pruned_only {
            let naive_row = estimate_naive_row(
                "MSI-xl 1 thread, no pruning",
                MsiConfig::msi_xl(),
                samples,
                0xC0FFEE,
            );
            println!("{}", naive_row.format());
            rows.push(naive_row);
        }
        let (row, report) = run_synthesis_row(
            "MSI-xl 1 thread, pruning",
            MsiConfig::msi_xl(),
            true,
            1,
            check_threads,
        );
        println!("{}", row.format());
        rows.push(row);
        reports.push(("MSI-xl", report));
        if !pruned_only {
            let (row, _) = run_synthesis_row(
                "MSI-xl 4 threads, pruning",
                MsiConfig::msi_xl(),
                true,
                4,
                check_threads,
            );
            println!("{}", row.format());
            rows.push(row);
        }
    }

    if n5 && !sigint::triggered() {
        // Beyond the paper on the *scalarset* axis: the MSI-small hole set
        // over five caches. Priced out of CI under the all-permutations
        // canonicalizer (5! rebuilds per visited state of every dispatch);
        // routine under the orbit-pruning search — see EXPERIMENTS.md.
        if !pruned_only {
            let naive_row = estimate_naive_row(
                "MSI-5 1 thread, no pruning",
                MsiConfig::msi5(),
                samples,
                0xC0FFEE,
            );
            println!("{}", naive_row.format());
            rows.push(naive_row);
        }
        let (row, report) = run_synthesis_row(
            "MSI-5 1 thread, pruning",
            MsiConfig::msi5(),
            true,
            1,
            check_threads,
        );
        println!("{}", row.format());
        rows.push(row);
        reports.push(("MSI-5", report));
        if !pruned_only {
            let (row, _) = run_synthesis_row(
                "MSI-5 4 threads, pruning",
                MsiConfig::msi5(),
                true,
                4,
                check_threads,
            );
            println!("{}", row.format());
            rows.push(row);
        }
    }

    println!();
    println!("Paper reference (Table I, i7-4800MQ, Clang 3.8.1):");
    for r in paper::TABLE1 {
        let skip_small = !small && r.label.contains("small");
        let skip_large = !large && r.label.contains("large");
        if skip_small || skip_large {
            continue;
        }
        println!(
            "  {:<34} holes={:<3} candidates={:<13} patterns={:<8} evaluated={:<11} solutions={:<3} time={}s",
            r.label,
            r.holes,
            r.candidates,
            r.patterns.map_or("N/A".to_owned(), |p| p.to_string()),
            r.evaluated,
            r.solutions,
            r.seconds,
        );
    }

    // Headline ratios, paper vs measured (MSI-xl has no paper row: it is
    // our harder-than-paper stress configuration).
    println!();
    for size in ["MSI-small", "MSI-large", "MSI-xl", "MSI-5"] {
        let naive = rows
            .iter()
            .find(|r| r.label.contains(size) && r.patterns.is_none());
        let pruned = rows.iter().find(|r| {
            r.label.contains(size) && r.patterns.is_some() && r.label.contains("1 thread")
        });
        if let (Some(n), Some(p)) = (naive, pruned) {
            let reduction = 100.0 * (1.0 - p.evaluated as f64 / n.evaluated as f64);
            let speedup = n.wall.as_secs_f64() / p.wall.as_secs_f64().max(1e-9);
            let paper_ref = match size {
                "MSI-small" => Some((99.6, 35.8)),
                "MSI-large" => Some((99.8, 42.7)),
                _ => None,
            };
            let paper_note = match paper_ref {
                Some((red, speed)) => format!(" (paper: {red}% / {speed}x)"),
                None => " (beyond the paper)".to_owned(),
            };
            println!(
                "{size}: evaluated-candidate reduction {reduction:.2}%, \
                 speedup {speedup:.1}x{paper_note}{}",
                if n.estimated {
                    " [naive extrapolated]"
                } else {
                    ""
                },
            );
        }
    }

    if reuse_sessions {
        println!();
        println!(
            "Session reuse (1-thread rows run in full; --one-shot disables; a replayed check \
             expanded nothing, and a reused expansion applied no rule):"
        );
        for (label, report) in naive_reports.iter().chain(&reports) {
            let s = report.stats();
            println!(
                "  {label}: {} states expanded live, {} reused from checkpoints \
                 ({:.1}% of the one-shot work avoided), {} of {} checks replayed, \
                 {} expansions taken from records",
                s.check_states_expanded,
                s.check_states_reused,
                s.check_reuse_rate() * 100.0,
                s.check_replays,
                s.evaluated,
                s.check_expansions_reused,
            );
        }
    }

    println!();
    println!(
        "Chunk claims (1-thread pruned rows; dispenser operations and chunks that \
         evaluated, per generation k — cost measurements like probes, not results):"
    );
    for (label, report) in &reports {
        let gens: Vec<String> = report
            .stats()
            .generations
            .iter()
            .map(|g| format!("k={} {}/{}", g.k, g.claims, g.active_chunks))
            .collect();
        println!("  {label}: {}", gens.join(", "));
    }

    if classify {
        println!();
        println!(
            "Solution equivalence classes by visited states (paper: groups of 5207/6025/6332):"
        );
        for (label, report) in &reports {
            let classes = report.solution_classes();
            println!("  {label}: {classes:?}");
            for s in report.solutions() {
                println!(
                    "    {} ({} states)",
                    s.display_named(report.holes()),
                    s.visited_states
                );
            }
        }
    }

    if sigint::triggered() {
        println!();
        if journaling {
            println!("interrupted by SIGINT — the table above is partial; resume with:");
            println!("  {}", resume_command("table1", &args));
        } else {
            println!(
                "interrupted by SIGINT — the table above is partial \
                 (pass --journal DIR to make interrupted runs resumable)"
            );
        }
        std::process::exit(130);
    }

    let deviations = deviations.into_inner();
    if !deviations.is_empty() {
        println!();
        println!("golden deviations:");
        for d in &deviations {
            println!("  {d}");
        }
        eprintln!("table1: a printed row deviates from its golden");
        std::process::exit(2);
    }
}

/// `--spec PATH` mode: synthesize each named declarative spec's skeleton in
/// its `[golden.synth]` configuration, print one table row per spec, and
/// exit non-zero when any row deviates from the spec's committed golden
/// block (counts, solution count, or golden assignment membership).
fn run_spec_rows(paths: &[&String]) -> ! {
    println!("Table I — declarative-spec synthesis rows");
    println!("==========================================");
    println!();
    println!("{}", row_header());
    println!("{}", "-".repeat(104));

    let mut deviations: Vec<String> = Vec::new();
    for path in paths {
        let name = std::path::Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| (*path).clone());
        let spec = match ProtocolSpec::from_path(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: invalid spec: {e}");
                std::process::exit(2);
            }
        };
        let start = Instant::now();
        let (report, devs) = run_spec_synthesis(&spec);
        let row = MeasuredRow {
            label: format!("{name} (spec), 1 thread, pruning"),
            holes: report.holes().len(),
            candidates: report.wildcard_candidate_space(),
            patterns: Some(report.stats().patterns),
            evaluated: report.stats().evaluated,
            solutions: report.solutions().len(),
            wall: start.elapsed(),
            estimated: false,
        };
        println!("{}", row.format());
        for d in devs {
            deviations.push(format!("{name}: {d}"));
        }
    }

    if !deviations.is_empty() {
        println!();
        println!("golden deviations:");
        for d in &deviations {
            println!("  {d}");
        }
        eprintln!("table1: a printed row deviates from its golden");
        std::process::exit(2);
    }
    println!();
    println!("all spec rows match their committed goldens");
    std::process::exit(0);
}
