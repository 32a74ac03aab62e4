//! CI perf-regression gate over the emitted `BENCH_*.json` files.
//!
//! ```text
//! cargo run --release -p verc3-bench --bin perf_gate -- \
//!     [--fresh DIR] [--baseline DIR]
//! ```
//!
//! Compares one **pinned ratio** per benchmark family against the committed
//! baseline under `crates/bench/baselines/` and fails (exit 1) only when a
//! ratio regressed by **more than 2×** — a deliberately generous tolerance:
//! shared CI runners jitter by tens of percent, and the gate exists to
//! catch "someone reverted the index/canonicalizer/sessions", not 20%
//! noise. The pinned ratios are dimensionless speedups/rates, so runner
//! speed divides out:
//!
//! * `BENCH_canonicalize.json` — orbit-vs-reference speedup at n = 6;
//! * `BENCH_patterns.json` — scan-vs-inverted-index speedup at 50k sparse
//!   patterns;
//! * `BENCH_incremental.json` — session reuse rate on the serial MSI-large
//!   row, and the check-threads-4 session loop's speedup over the serial
//!   one on both MSI workloads;
//! * `BENCH_checker.json` — the parallel checker's 4-thread speedup over
//!   serial on both msi_golden corpora;
//! * `BENCH_journal.json` — the unjournaled-vs-journaled wall ratio on the
//!   serial pruned MSI-large row (with an absolute floor: journaling may
//!   never cost more than 25% wall);
//! * `BENCH_guided.json` — the lexicographic-vs-guided probe ratio on the
//!   serial pruned msi_xl row (with an absolute floor: guided enumeration
//!   must spend ≥ 5× fewer per-depth pattern probes than skip-counting).
//!   Probe counts are deterministic, so this ratio is immune to runner
//!   jitter entirely.
//! * `BENCH_zoo.json` — the hand-written/spec wall ratio of the msi_small
//!   golden-candidate verification (1 / `interp_overhead`), with an
//!   absolute floor: the spec front-end may cost at most 4× hand-written
//!   MSI on the identical state space.
//!
//! The parallelism gates additionally enforce an **absolute floor**
//! (independent of the baseline, which may have been recorded on a
//! small machine): the 4-thread checker must be ≥ 2× serial, and
//! check-threads-4 sessions must not be slower than serial. Absolute
//! floors only apply when the host actually has the cores (a gate whose
//! `min_cores` exceeds `available_parallelism` is reported as skipped),
//! so the binary stays runnable everywhere while the multi-core CI job
//! carries the enforcement.
//!
//! The JSON files are the benches' own flat `[{...}, ...]` emissions; the
//! scanner below parses exactly that shape (flat objects, string, number or null
//! values) so the workspace needs no serde dependency.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Num(f64),
    Str(String),
    /// `null`: a column a row does not have (e.g. a spec with no synthesis
    /// golden in BENCH_zoo.json).
    Null,
}

impl Value {
    fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            Value::Str(_) | Value::Null => None,
        }
    }
}

type Row = HashMap<String, Value>;

/// Parses a flat JSON array of flat objects (the only shape the benches
/// emit). Panics with a path-qualified message on anything else — a gate
/// that silently skips rows would pass vacuously.
fn parse_rows(path: &Path) -> Vec<Row> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut rows = Vec::new();
    let mut chars = text.char_indices().peekable();
    let fail = |what: &str, at: usize| -> ! {
        panic!(
            "{}: malformed bench JSON ({what} at byte {at})",
            path.display()
        );
    };
    while let Some((i, c)) = chars.next() {
        match c {
            '{' => {
                let mut row = Row::new();
                loop {
                    // Key (a quoted string) …
                    let Some((ki, _)) = chars.find(|&(_, c)| c == '"' || c == '}') else {
                        fail("unterminated object", i);
                    };
                    if text.as_bytes()[ki] == b'}' {
                        break;
                    }
                    let mut key = String::new();
                    for (_, c) in chars.by_ref() {
                        if c == '"' {
                            break;
                        }
                        key.push(c);
                    }
                    // … then ':' and a scalar value.
                    let Some((vi, _)) = chars.find(|&(_, c)| c == ':') else {
                        fail("missing value", ki);
                    };
                    while chars.peek().is_some_and(|&(_, c)| c.is_whitespace()) {
                        chars.next();
                    }
                    let value = match chars.peek() {
                        Some(&(_, '"')) => {
                            chars.next();
                            let mut s = String::new();
                            for (_, c) in chars.by_ref() {
                                if c == '"' {
                                    break;
                                }
                                s.push(c);
                            }
                            Value::Str(s)
                        }
                        Some(_) => {
                            let mut s = String::new();
                            while chars
                                .peek()
                                .is_some_and(|&(_, c)| !matches!(c, ',' | '}' | ']'))
                            {
                                s.push(chars.next().expect("peeked").1);
                            }
                            match s.trim() {
                                "null" => Value::Null,
                                s => Value::Num(
                                    s.parse::<f64>()
                                        .unwrap_or_else(|_| fail("non-numeric value", vi)),
                                ),
                            }
                        }
                        None => fail("truncated value", vi),
                    };
                    row.insert(key, value);
                    while chars.peek().is_some_and(|&(_, c)| c.is_whitespace()) {
                        chars.next();
                    }
                    match chars.peek() {
                        Some(&(_, ',')) => {
                            chars.next();
                        }
                        Some(&(_, '}')) => {
                            chars.next();
                            break;
                        }
                        _ => fail("expected ',' or '}'", vi),
                    }
                }
                rows.push(row);
            }
            '[' | ']' | ',' => {}
            c if c.is_whitespace() => {}
            _ => fail("unexpected character", i),
        }
    }
    rows
}

/// Finds the unique row matching every `(key, value)` filter and returns
/// its `metric` as a number.
fn pinned(rows: &[Row], filters: &[(&str, Value)], metric: &str, what: &str) -> f64 {
    let matches: Vec<&Row> = rows
        .iter()
        .filter(|row| {
            filters
                .iter()
                .all(|(key, value)| row.get(*key) == Some(value))
        })
        .collect();
    assert_eq!(
        matches.len(),
        1,
        "{what}: expected exactly one row for {filters:?}, found {}",
        matches.len()
    );
    matches[0]
        .get(metric)
        .and_then(Value::as_num)
        .unwrap_or_else(|| panic!("{what}: row has no numeric `{metric}`"))
}

struct Gate {
    /// Bench emission filename (same name in the fresh and baseline dirs).
    file: &'static str,
    /// Human name of the pinned ratio.
    name: &'static str,
    /// Extracts the pinned ratio from the file's rows.
    extract: fn(&[Row]) -> f64,
    /// Absolute lower bound on the fresh ratio, enforced in addition to the
    /// baseline-relative tolerance. `None` = relative check only.
    floor: Option<f64>,
    /// Minimum `available_parallelism` for this gate to be meaningful; on
    /// hosts with fewer cores the gate is reported as skipped.
    min_cores: usize,
}

/// Pinned `wall_ms` of one `BENCH_checker.json` row.
fn checker_wall_ms(rows: &[Row], model: &str, threads: f64) -> f64 {
    pinned(
        rows,
        &[
            ("model", Value::Str(model.into())),
            ("threads", Value::Num(threads)),
        ],
        "wall_ms",
        "parallel_check",
    )
}

/// Pinned `wall_ms` of one `BENCH_incremental.json` session row.
fn session_wall_ms(rows: &[Row], workload: &str, check_threads: f64) -> f64 {
    pinned(
        rows,
        &[
            ("workload", Value::Str(workload.into())),
            ("mode", Value::Str("sessions".into())),
            ("threads", Value::Num(1.0)),
            ("check_threads", Value::Num(check_threads)),
        ],
        "wall_ms",
        "incremental_check",
    )
}

/// Pinned `probes` of one `BENCH_guided.json` row.
fn guided_probes(rows: &[Row], strategy: &str) -> f64 {
    pinned(
        rows,
        &[
            ("workload", Value::Str("msi_xl".into())),
            ("strategy", Value::Str(strategy.into())),
        ],
        "probes",
        "guided_enum",
    )
}

const GATES: [Gate; 10] = [
    Gate {
        file: "BENCH_journal.json",
        name: "journal_overhead: unjournaled/journaled wall ratio, msi_large",
        extract: |rows| {
            let ms = |mode: &str| {
                pinned(
                    rows,
                    &[
                        ("workload", Value::Str("msi_large".into())),
                        ("mode", Value::Str(mode.into())),
                    ],
                    "wall_ms",
                    "journal_overhead",
                )
            };
            ms("none") / ms("journal").max(1e-9)
        },
        // The journal must stay cheap in absolute terms: a fresh ratio
        // under 0.8 means journaling now costs more than 25% wall.
        floor: Some(0.8),
        min_cores: 1,
    },
    Gate {
        file: "BENCH_canonicalize.json",
        name: "canonicalize: orbit speedup over the n! reference at n=6",
        extract: |rows| {
            pinned(
                rows,
                &[("model", Value::Str("msi".into())), ("n", Value::Num(6.0))],
                "speedup",
                "canonicalize",
            )
        },
        floor: None,
        min_cores: 1,
    },
    Gate {
        file: "BENCH_patterns.json",
        name: "pattern_index: scan/index speedup at 50k sparse patterns",
        extract: |rows| {
            let ms = |implementation: &str| {
                pinned(
                    rows,
                    &[
                        ("workload", Value::Str("sparse".into())),
                        ("patterns", Value::Num(50_000.0)),
                        ("impl", Value::Str(implementation.into())),
                    ],
                    "wall_ms",
                    "pattern_index",
                )
            };
            ms("scan") / ms("inverted_index").max(1e-9)
        },
        floor: None,
        min_cores: 1,
    },
    Gate {
        file: "BENCH_incremental.json",
        name: "incremental_check: session reuse rate on serial MSI-large",
        extract: |rows| {
            pinned(
                rows,
                &[
                    ("workload", Value::Str("msi_large".into())),
                    ("mode", Value::Str("sessions".into())),
                    ("threads", Value::Num(1.0)),
                    ("check_threads", Value::Num(1.0)),
                ],
                "reuse_rate",
                "incremental_check",
            )
        },
        floor: None,
        min_cores: 1,
    },
    Gate {
        file: "BENCH_checker.json",
        name: "parallel_check: 4-thread speedup, msi_golden_4caches_sym",
        extract: |rows| {
            checker_wall_ms(rows, "msi_golden_4caches_sym", 1.0)
                / checker_wall_ms(rows, "msi_golden_4caches_sym", 4.0).max(1e-9)
        },
        floor: Some(2.0),
        min_cores: 4,
    },
    Gate {
        file: "BENCH_checker.json",
        name: "parallel_check: 4-thread speedup, msi_golden_3caches_data",
        extract: |rows| {
            checker_wall_ms(rows, "msi_golden_3caches_data", 1.0)
                / checker_wall_ms(rows, "msi_golden_3caches_data", 4.0).max(1e-9)
        },
        floor: Some(2.0),
        min_cores: 4,
    },
    Gate {
        file: "BENCH_incremental.json",
        name: "incremental_check: check-threads-4 session speedup, msi_small",
        extract: |rows| {
            session_wall_ms(rows, "msi_small", 1.0)
                / session_wall_ms(rows, "msi_small", 4.0).max(1e-9)
        },
        floor: Some(0.9),
        min_cores: 4,
    },
    Gate {
        file: "BENCH_incremental.json",
        name: "incremental_check: check-threads-4 session speedup, msi_large",
        extract: |rows| {
            session_wall_ms(rows, "msi_large", 1.0)
                / session_wall_ms(rows, "msi_large", 4.0).max(1e-9)
        },
        floor: Some(0.9),
        min_cores: 4,
    },
    Gate {
        file: "BENCH_guided.json",
        name: "guided_enum: lexicographic/guided probe ratio, msi_xl",
        extract: |rows| {
            guided_probes(rows, "lexicographic") / guided_probes(rows, "guided").max(1.0)
        },
        // Deterministic counts, not wall times: guided enumeration must
        // spend at least 5x fewer per-depth probes than skip-counting.
        floor: Some(5.0),
        min_cores: 1,
    },
    Gate {
        file: "BENCH_zoo.json",
        name: "spec_zoo: hand-written/spec wall ratio, msi_small verification",
        extract: |rows| {
            let overhead = pinned(
                rows,
                &[("spec", Value::Str("interp_overhead".into()))],
                "overhead",
                "spec_zoo",
            );
            1.0 / overhead.max(1e-9)
        },
        // The spec front-end may cost at most 4x hand-written MSI.
        floor: Some(0.25),
        min_cores: 1,
    },
];

/// Regression tolerance: fail only when the fresh ratio is worse than the
/// baseline by more than this factor.
const TOLERANCE: f64 = 2.0;

fn dir_flag(args: &[String], flag: &str, default: &str) -> PathBuf {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(default))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fresh_dir = dir_flag(&args, "--fresh", ".");
    let baseline_dir = dir_flag(&args, "--baseline", "crates/bench/baselines");

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut failed = false;
    println!(
        "perf gate on a {cores}-core host \
         (fail on >{TOLERANCE}x regression of a pinned ratio, or a fresh \
         ratio below a gate's absolute floor)"
    );
    for gate in &GATES {
        if cores < gate.min_cores {
            println!(
                "  skip {:<58} (needs >= {} cores)",
                gate.name, gate.min_cores
            );
            continue;
        }
        let fresh_rows = parse_rows(&fresh_dir.join(gate.file));
        let baseline_rows = parse_rows(&baseline_dir.join(gate.file));
        let fresh = (gate.extract)(&fresh_rows);
        let baseline = (gate.extract)(&baseline_rows);
        // The effective floor is the stricter of "no >TOLERANCE relative
        // regression" and the gate's absolute requirement.
        let floor = gate
            .floor
            .map_or(baseline / TOLERANCE, |abs| abs.max(baseline / TOLERANCE));
        let ok = fresh >= floor;
        println!(
            "  {} {:<58} fresh {fresh:8.2}  baseline {baseline:8.2}  floor {floor:8.2}",
            if ok { "ok  " } else { "FAIL" },
            gate.name,
        );
        failed |= !ok;
    }
    if failed {
        eprintln!(
            "perf gate failed: a pinned ratio regressed by more than {TOLERANCE}x \
             (or fell below an absolute floor); if a relative regression is \
             intended, refresh crates/bench/baselines/ from the freshly \
             emitted BENCH_*.json files — absolute floors are requirements \
             and cannot be refreshed away"
        );
        return ExitCode::FAILURE;
    }
    println!("perf gate passed");
    ExitCode::SUCCESS
}
