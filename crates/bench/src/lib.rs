//! Benchmark harness for the VerC3 reproduction.
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! * `table1` — Table I (the MSI case study: naïve vs pruning vs parallel);
//! * `fig2` — the Figure 2 worked example's run table;
//! * `fig3_check` — verification of the Figure 3 protocol (and the MESI
//!   companion, or any `specs/*.toml` under its golden) with state-space
//!   statistics;
//! * Criterion benches (`benches/`) for checker throughput, synthesis
//!   end-to-end times, the pruning-mode ablation, and parallel scaling.
//!
//! Paper reference numbers are embedded ([`paper`]) so every harness prints
//! *paper vs measured* side by side; EXPERIMENTS.md records a full run.

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};
use verc3_core::{PatternMode, SynthOptions, SynthReport, Synthesizer};
use verc3_mck::{Checker, CheckerOptions, FixedResolver, MckError, TransitionSystem, Verdict};
use verc3_protocols::msi::{MsiConfig, MsiModel};
use verc3_spec::ProtocolSpec;

/// SIGINT → graceful-stop support for the harness binaries.
///
/// [`install`](sigint::install) registers a handler that raises a shared
/// [`AtomicBool`]; the binaries hand that flag to
/// [`SynthOptions::stop_flag`], so the first Ctrl-C stops the run at the
/// next dispatch sequence point (flushing the journal) and a second Ctrl-C
/// falls back to the default disposition — immediate death.
#[cfg(unix)]
pub mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    const SIGINT: i32 = 2;
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    extern "C" fn on_sigint(_signum: i32) {
        // Restore the default disposition first (async-signal-safe), so a
        // second Ctrl-C kills a run that is slow to reach a sequence point.
        unsafe { signal(SIGINT, SIG_DFL) };
        if let Some(flag) = FLAG.get() {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// Installs the SIGINT handler (idempotent) and returns the stop flag
    /// it raises.
    pub fn install() -> Arc<AtomicBool> {
        let flag = FLAG.get_or_init(|| Arc::new(AtomicBool::new(false)));
        unsafe { signal(SIGINT, on_sigint as *const () as usize) };
        Arc::clone(flag)
    }

    /// Whether SIGINT has been received since [`install`].
    pub fn triggered() -> bool {
        FLAG.get().is_some_and(|f| f.load(Ordering::SeqCst))
    }
}

/// Non-Unix fallback: no handler, a flag that never fires.
#[cfg(not(unix))]
pub mod sigint {
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, OnceLock};

    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    /// Returns a stop flag that no signal ever raises.
    pub fn install() -> Arc<AtomicBool> {
        Arc::clone(FLAG.get_or_init(|| Arc::new(AtomicBool::new(false))))
    }

    /// Always `false` off Unix.
    pub fn triggered() -> bool {
        false
    }
}

/// Lowercases `label` and collapses every non-alphanumeric run to one `-`
/// — the journal-filename form of a row label.
pub fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_owned()
}

/// Crash-safety and stop-control knobs shared by the harness binaries:
/// progress journaling, resume, an external stop flag (SIGINT), and the
/// wall-clock / state budgets.
#[derive(Debug, Clone, Default)]
pub struct RowControls {
    /// Journal directory — each row journals to `<dir>/<label-slug>.vc3j`.
    pub journal_dir: Option<PathBuf>,
    /// Resume each row from its journal instead of starting fresh (a
    /// missing journal starts fresh, so resume is always safe to pass).
    pub resume: bool,
    /// External stop request, typically [`sigint::install`]'s flag.
    pub stop_flag: Option<Arc<AtomicBool>>,
    /// Per-row wall-clock budget.
    pub deadline: Option<Duration>,
    /// Per-row checker state budget.
    pub state_budget: Option<u64>,
    /// Journal fsync cadence override (chunk records between `fsync`s).
    pub journal_fsync_every: Option<u64>,
}

impl RowControls {
    /// The journal path for a row label, if journaling is on.
    pub fn journal_path(&self, label: &str) -> Option<PathBuf> {
        self.journal_dir
            .as_ref()
            .map(|dir| dir.join(format!("{}.vc3j", slug(label))))
    }
}

/// Reference values from the paper's Table I.
pub mod paper {
    /// One row of the paper's Table I.
    #[derive(Debug, Clone, Copy)]
    pub struct Row {
        /// Configuration label as printed in the paper.
        pub label: &'static str,
        /// Hole count.
        pub holes: u32,
        /// The paper's "Candidates" column.
        pub candidates: u64,
        /// The paper's "Pruning Patterns" column (`None` = N/A).
        pub patterns: Option<u64>,
        /// The paper's "Evaluated" column.
        pub evaluated: u64,
        /// The paper's "Solutions" column.
        pub solutions: u32,
        /// The paper's "Exec. Time" column, in seconds.
        pub seconds: f64,
    }

    /// All six rows of Table I.
    pub const TABLE1: [Row; 6] = [
        Row {
            label: "MSI-small 1 thread, no pruning",
            holes: 8,
            candidates: 231_525,
            patterns: None,
            evaluated: 231_525,
            solutions: 4,
            seconds: 64.5,
        },
        Row {
            label: "MSI-small 1 thread, pruning",
            holes: 8,
            candidates: 1_179_648,
            patterns: Some(743),
            evaluated: 855,
            solutions: 4,
            seconds: 1.8,
        },
        Row {
            label: "MSI-small 4 threads, pruning",
            holes: 8,
            candidates: 1_179_648,
            patterns: Some(701),
            evaluated: 825,
            solutions: 4,
            seconds: 1.2,
        },
        Row {
            label: "MSI-large 1 thread, no pruning",
            holes: 12,
            candidates: 102_102_525,
            patterns: None,
            evaluated: 102_102_525,
            solutions: 12,
            seconds: 31_573.5,
        },
        Row {
            label: "MSI-large 1 thread, pruning",
            holes: 12,
            candidates: 1_207_959_552,
            patterns: Some(34_928),
            evaluated: 170_108,
            solutions: 12,
            seconds: 739.7,
        },
        Row {
            label: "MSI-large 4 threads, pruning",
            holes: 12,
            candidates: 1_207_959_552,
            patterns: Some(34_888),
            evaluated: 170_087,
            solutions: 12,
            seconds: 295.7,
        },
    ];

    /// Visited-state counts of the paper's correct solutions (§III).
    pub const SOLUTION_STATE_COUNTS: [u32; 3] = [5_207, 6_025, 6_332];
}

/// Synthetic pattern-table workloads shared by the `pattern_index`
/// microbench (which emits `BENCH_patterns.json`) and the
/// `pruning_ablation` pattern-lookup group.
pub mod synthetic {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;
    use verc3_core::{PatternTable, ReferencePatternTable, SparsePattern};

    /// msi_xl-shaped hole libraries: four cache transition rules (response
    /// arity 3, next-state arity 7) and two directory rules (response 5,
    /// next-state 7, track 3) — 14 holes.
    pub const XL_ARITIES: [u16; 14] = [3, 7, 3, 7, 3, 7, 3, 7, 5, 7, 3, 5, 7, 3];

    fn random_digit(rng: &mut StdRng, hole: usize) -> u16 {
        rng.gen_range(0..XL_ARITIES[hole] as usize) as u16
    }

    /// Generates `n` *distinct* sparse patterns of 5–10 `(hole, action)`
    /// pairs over the msi_xl hole space.
    ///
    /// The length range matters: a refined pattern records every hole a
    /// minimal failing trace consulted, which on the MSI skeletons is most
    /// of a rule's holes — and short synthetic patterns saturate the
    /// shallow buckets (there are only three possible 1-pair patterns on
    /// hole 0), making every query prune at depth 1 and the benchmark
    /// meaningless. With ≥5 pairs the pattern space is large enough that
    /// queries are miss-dominated, the regime the enumeration hot loop
    /// actually lives in.
    pub fn sparse_patterns(n: usize, seed: u64) -> Vec<SparsePattern> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen: BTreeSet<SparsePattern> = BTreeSet::new();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let len = rng.gen_range(5..11usize);
            let mut pairs: SparsePattern = (0..len)
                .map(|_| {
                    let hole = rng.gen_range(0..XL_ARITIES.len());
                    (hole as u16, random_digit(&mut rng, hole))
                })
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            if seen.insert(pairs.clone()) {
                out.push(pairs);
            }
        }
        out
    }

    /// Generates `n` *distinct* dense prefixes (length 1..=14) over the
    /// msi_xl hole space.
    pub fn dense_prefixes(n: usize, seed: u64) -> Vec<Vec<u16>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen: BTreeSet<Vec<u16>> = BTreeSet::new();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let len = rng.gen_range(1..XL_ARITIES.len() + 1);
            let prefix: Vec<u16> = (0..len).map(|h| random_digit(&mut rng, h)).collect();
            if seen.insert(prefix.clone()) {
                out.push(prefix);
            }
        }
        out
    }

    /// Generates `q` full-width query candidates: mostly uniform random
    /// (worst case for a scan — nothing matches early), with roughly one in
    /// eight derived from `patterns` so the match path is exercised too.
    pub fn query_candidates(q: usize, patterns: &[SparsePattern], seed: u64) -> Vec<Vec<u16>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..q)
            .map(|i| {
                let mut candidate: Vec<u16> = (0..XL_ARITIES.len())
                    .map(|h| random_digit(&mut rng, h))
                    .collect();
                if !patterns.is_empty() && i % 8 == 0 {
                    let pat = &patterns[rng.gen_range(0..patterns.len())];
                    for &(hole, action) in pat {
                        candidate[hole as usize] = action;
                    }
                }
                candidate
            })
            .collect()
    }

    /// Builds the indexed and the reference table from one sparse pattern
    /// set.
    pub fn build_sparse_tables(
        patterns: &[SparsePattern],
    ) -> (PatternTable, ReferencePatternTable) {
        let mut indexed = PatternTable::new();
        let mut reference = ReferencePatternTable::new();
        for pat in patterns {
            indexed.insert_sparse(pat.clone());
            reference.insert_sparse(pat.clone());
        }
        assert_eq!(indexed.len(), reference.len());
        (indexed, reference)
    }

    /// Builds the indexed and the reference table from one dense prefix set.
    pub fn build_dense_tables(prefixes: &[Vec<u16>]) -> (PatternTable, ReferencePatternTable) {
        let mut indexed = PatternTable::new();
        let mut reference = ReferencePatternTable::new();
        for prefix in prefixes {
            indexed.insert_prefix(prefix);
            reference.insert_prefix(prefix);
        }
        assert_eq!(indexed.len(), reference.len());
        (indexed, reference)
    }
}

/// One measured row of our Table I reproduction.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    /// Configuration label.
    pub label: String,
    /// Hole count discovered.
    pub holes: usize,
    /// Candidate-space size (naïve product, or wildcard-extended product
    /// for pruning rows, matching the paper's accounting).
    pub candidates: u128,
    /// Pruning patterns recorded (`None` = N/A, naïve mode).
    pub patterns: Option<usize>,
    /// Model-checker dispatches.
    pub evaluated: u64,
    /// Distinct solutions found.
    pub solutions: usize,
    /// Wall time.
    pub wall: Duration,
    /// `true` when `evaluated`/`wall` are extrapolated from a sample rather
    /// than a full run.
    pub estimated: bool,
}

impl MeasuredRow {
    /// Formats the row for the harness table.
    pub fn format(&self) -> String {
        format!(
            "{:<34} {:>5} {:>13} {:>9} {:>11} {:>9} {:>12}{}",
            self.label,
            self.holes,
            self.candidates,
            self.patterns.map_or("N/A".to_owned(), |p| p.to_string()),
            self.evaluated,
            self.solutions,
            format!("{:.1?}", self.wall),
            if self.estimated {
                "  (extrapolated)"
            } else {
                ""
            },
        )
    }
}

/// The table header matching [`MeasuredRow::format`].
pub fn row_header() -> String {
    format!(
        "{:<34} {:>5} {:>13} {:>9} {:>11} {:>9} {:>12}",
        "Configuration", "Holes", "Candidates", "Patterns", "Evaluated", "Solutions", "Time"
    )
}

/// Runs one synthesis configuration and measures a Table-I row.
///
/// `threads` is the cross-candidate axis; `check_threads` parallelizes each
/// individual model-checker dispatch (both default to 1 in Table I proper).
/// With `reuse_sessions` dispatches go through per-worker
/// [`verc3_mck::CheckSession`]s (the engine default); without, every
/// candidate is checked on a fresh session — the per-candidate-restart
/// baseline the `incremental_check` bench and `table1 --one-shot` measure
/// against.
pub fn run_synthesis_row_with(
    label: &str,
    config: MsiConfig,
    pruning: bool,
    threads: usize,
    check_threads: usize,
    reuse_sessions: bool,
) -> (MeasuredRow, SynthReport) {
    run_synthesis_row_controlled(
        label,
        config,
        pruning,
        threads,
        check_threads,
        reuse_sessions,
        &RowControls::default(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_synthesis_row_with`] under explicit [`RowControls`]: journaling,
/// resume, SIGINT stop flag, and budgets. Returns the structured error a
/// corrupt or mismatched journal produces instead of panicking, so the
/// harness binaries can print it and exit cleanly.
pub fn run_synthesis_row_controlled(
    label: &str,
    config: MsiConfig,
    pruning: bool,
    threads: usize,
    check_threads: usize,
    reuse_sessions: bool,
    controls: &RowControls,
) -> Result<(MeasuredRow, SynthReport), MckError> {
    let model = MsiModel::new(config);
    let mut opts = SynthOptions::default()
        .pruning(pruning)
        .threads(threads)
        .checker(CheckerOptions::default().threads(check_threads))
        .reuse_sessions(reuse_sessions);
    if pruning {
        // Trace-refined patterns are the paper's stated ideal (prune on the
        // holes the failure trace touched, Cₜ); see EXPERIMENTS.md for why
        // the prefix-only variant degenerates on this protocol.
        opts = opts.pattern_mode(PatternMode::Refined);
    }
    let journaled = controls.journal_path(label);
    if let Some(path) = &journaled {
        opts = opts.journal(path);
    }
    if let Some(every) = controls.journal_fsync_every {
        opts = opts.try_journal_fsync_every(every)?;
    }
    if let Some(flag) = &controls.stop_flag {
        opts = opts.stop_flag(Arc::clone(flag));
    }
    if let Some(limit) = controls.deadline {
        opts = opts.deadline(limit);
    }
    if let Some(states) = controls.state_budget {
        opts = opts.state_budget(states);
    }
    let synth = Synthesizer::new(opts);
    let start = Instant::now();
    let report = if controls.resume && journaled.is_some() {
        synth.resume_from_journal(&model)?
    } else {
        synth.try_run(&model)?
    };
    let wall = start.elapsed();
    let row = MeasuredRow {
        label: label.to_owned(),
        holes: report.holes().len(),
        candidates: if pruning {
            report.wildcard_candidate_space()
        } else {
            report.naive_candidate_space()
        },
        patterns: pruning.then(|| report.stats().patterns),
        evaluated: report.stats().evaluated,
        solutions: report.solutions().len(),
        wall,
        estimated: false,
    };
    Ok((row, report))
}

/// The `#row` machine-readable result line the journaled `table1` rows
/// print — one stable line per row that the kill-and-resume smoke test (and
/// any CI diff) parses instead of the human table.
pub fn machine_row_line(label: &str, report: &SynthReport) -> String {
    let stats = report.stats();
    format!(
        "#row label=\"{}\" stop={:?} resumable={} evaluated={} patterns={} solutions={}",
        label,
        stats.stop,
        report.is_resumable(),
        stats.evaluated,
        stats.patterns,
        report.solutions().len(),
    )
}

/// The exact invocation that resumes an interrupted harness run: the
/// original argv with `--resume` appended (once).
pub fn resume_command(bin: &str, args: &[String]) -> String {
    let mut parts: Vec<String> = vec![
        "cargo".into(),
        "run".into(),
        "--release".into(),
        "-p".into(),
        "verc3-bench".into(),
        "--bin".into(),
        bin.into(),
        "--".into(),
    ];
    parts.extend(args.iter().cloned());
    if !args.iter().any(|a| a == "--resume") {
        parts.push("--resume".into());
    }
    parts.join(" ")
}

/// Estimates a naïve (no pruning) row by timing a uniform random sample of
/// complete candidates and extrapolating to the full product — used for
/// MSI-large, whose full naïve run took the paper 31 573 s.
///
/// Every sample is a one-shot check, so the estimate prices a
/// per-candidate-restart sweep. A sequential sweep through check sessions
/// costs less: most of its checks replay the previous check's ending.
pub fn estimate_naive_row(
    label: &str,
    config: MsiConfig,
    samples: usize,
    seed: u64,
) -> MeasuredRow {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let space = config.hole_space();
    let total: u128 = space.iter().map(|(_, a)| *a as u128).product();
    let model = MsiModel::new(config);
    let checker = Checker::new(CheckerOptions::default());
    let mut rng = StdRng::seed_from_u64(seed);

    let mut solutions = 0usize;
    let start = Instant::now();
    for _ in 0..samples {
        let mut resolver = FixedResolver::new();
        for (name, arity) in &space {
            resolver.assign(name.clone(), rng.gen_range(0..*arity));
        }
        let outcome = checker.run_with(&model, &resolver);
        if outcome.verdict() == Verdict::Success {
            solutions += 1;
        }
    }
    let elapsed = start.elapsed();
    let per_candidate = elapsed.as_secs_f64() / samples as f64;
    let estimated_total = Duration::from_secs_f64(per_candidate * total as f64);

    MeasuredRow {
        label: label.to_owned(),
        holes: space.len(),
        candidates: total,
        patterns: None,
        evaluated: total as u64,
        solutions,
        wall: estimated_total,
        estimated: true,
    }
}

/// Checks a command line against its `usage` line (`usage: bin [--switch]
/// [--flag VALUE]...`): every argument must be a flag the line names, with a
/// value exactly when the line gives it a placeholder. `Err` names the first
/// offender, so a typo or a retired flag never runs the default path.
pub fn check_flags(args: &[String], usage: &str) -> Result<(), String> {
    let words: Vec<&str> = usage
        .split_whitespace()
        .map(|w| w.trim_matches(|c| matches!(c, '[' | ']' | '.')))
        .collect();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let Some(i) = words.iter().position(|w| w.starts_with("--") && w == arg) else {
            return Err(format!("unknown argument `{arg}`"));
        };
        let valued = words.get(i + 1).is_some_and(|w| !w.starts_with("--"));
        if valued && rest.next().is_none() {
            return Err(format!("{arg} requires a value"));
        }
    }
    Ok(())
}

/// Prints a malformed command line's `error` and the binary's `usage` line
/// on stderr, then exits 2.
pub fn usage_error(usage: &str, error: String) -> ! {
    eprintln!("{error}\n{usage}");
    std::process::exit(2)
}

/// The value following the first `flag`, parsed as `T`: `Ok(None)` when the
/// flag is absent, `Err` when its value is missing or does not parse.
pub fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args.get(i + 1).map_or("", String::as_str);
    match value.parse() {
        Ok(parsed) => Ok(Some(parsed)),
        Err(_) => Err(format!("{flag}: cannot parse `{value}`")),
    }
}

/// Parses the shared `--check-threads N` CLI flag: absent → 1 (serial),
/// present with anything but a positive integer → `Err` (a silent serial
/// fallback would make parallel smoke steps vacuous).
pub fn parse_check_threads(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--check-threads")? {
        None => Ok(1),
        Some(0) => Err("--check-threads requires a positive integer".into()),
        Some(n) => Ok(n),
    }
}

/// Golden `(states, transitions)` for every built-in `fig3_check` row, in
/// print order, at any `--check-threads` value; the workspace test
/// `tests/fig3_reference.rs` holds the reference serial BFS to them too.
pub const FIG3_GOLDEN_ROWS: &[(&str, usize, usize)] = &[
    ("MSI golden (2 caches)", 87, 176),
    ("MSI golden (3 caches)", 332, 977),
    ("MSI golden (4 caches)", 1056, 4201),
    ("MSI golden (5 caches)", 2991, 15250),
    ("MSI golden (6 caches)", 7671, 48031),
    ("MSI golden (3, no symmetry)", 1736, 5076),
    ("MSI golden (3, data values)", 12287, 36476),
    ("MSI-xl skeleton (golden)", 332, 977),
    ("MSI-5 skeleton (golden)", 2991, 15250),
    ("MESI golden (2 caches)", 66, 134),
    ("MESI golden (3 caches)", 281, 835),
];

/// Verifies `model` under `resolver` with the given checker thread count
/// and reports `(verdict, states, transitions)`. The counts are
/// thread-count-independent by the parallel checker's equivalence
/// guarantee — which is exactly what the CI smoke step diffs.
pub fn verify<M: TransitionSystem>(
    model: &M,
    resolver: &dyn verc3_mck::SharedResolver,
    threads: usize,
) -> (Verdict, usize, usize) {
    let out = Checker::new(CheckerOptions::default().threads(threads)).run_with(model, resolver);
    let stats = out.stats();
    (out.verdict(), stats.states_visited, stats.transitions)
}

/// Verifies an MSI *skeleton* under the golden candidate — every hole
/// resolved to the known-correct protocol's action — and reports
/// `(verdict, states, transitions)`.
///
/// This is the fixed point every synthesis run over the skeleton must
/// rediscover; `fig3_check` uses it to pin the msi_xl workload's golden
/// behaviour next to the hole-free models.
pub fn verify_skeleton_golden(config: MsiConfig, threads: usize) -> (Verdict, usize, usize) {
    let resolver = skeleton_golden_resolver(&config);
    verify(&MsiModel::new(config), &resolver, threads)
}

/// Builds the [`FixedResolver`] answering every hole of an MSI skeleton
/// with the known-correct protocol's action.
pub fn skeleton_golden_resolver(config: &MsiConfig) -> FixedResolver {
    use verc3_protocols::msi::{CacheResponse, CacheState, DirResponse, DirState, DirTrack};

    let mut resolver = FixedResolver::new();
    for &rule in &config.cache_holes {
        let stem = rule.stem();
        let (resp, next) = rule.golden();
        let resp = CacheResponse::ALL.iter().position(|&a| a == resp).unwrap();
        let next = CacheState::ALL.iter().position(|&s| s == next).unwrap();
        resolver.assign(format!("{stem}/resp"), resp);
        resolver.assign(format!("{stem}/next"), next);
    }
    for &rule in &config.dir_holes {
        let stem = rule.stem();
        let (resp, next, track) = rule.golden();
        let resp = DirResponse::ALL.iter().position(|&a| a == resp).unwrap();
        let next = DirState::ALL.iter().position(|&s| s == next).unwrap();
        let track = DirTrack::ALL.iter().position(|&t| t == track).unwrap();
        resolver.assign(format!("{stem}/resp"), resp);
        resolver.assign(format!("{stem}/next"), next);
        resolver.assign(format!("{stem}/track"), track);
    }
    resolver
}

/// Builds the [`FixedResolver`] for a spec's committed `[golden.assignment]`
/// (empty for hole-free specs, which never consult the resolver).
///
/// Panics when the assignment names a hole or action outside the spec's hole
/// space — a committed golden that cannot even be *plugged in* is a spec
/// authoring error, not a measurement deviation.
pub fn spec_golden_resolver(spec: &ProtocolSpec) -> FixedResolver {
    let mut resolver = FixedResolver::new();
    for (hole, action) in &spec.golden().assignment {
        let idx = spec.action_index(hole, action).unwrap_or_else(|| {
            panic!("golden assignment {hole}@{action} is not in the spec's hole space")
        });
        resolver.assign(hole.clone(), idx);
    }
    resolver
}

/// Loads the workspace's `specs/{stem}.toml` at `pids` processes: the
/// document's one `pids = …` line (in its `[protocol]` table) is replaced
/// before parsing, so one committed spec serves every instance size.
///
/// Panics when the file is missing, holds no single `pids` line, or the
/// substituted document is not a valid spec.
pub fn spec_with_pids(stem: &str, pids: usize) -> ProtocolSpec {
    let path = format!("{}/../../specs/{stem}.toml", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let at: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("pids = "))
        .collect();
    assert_eq!(at.len(), 1, "{path}: one `pids = ` line");
    lines[at[0]] = format!("pids = {pids}");
    let text = lines.join("\n");
    ProtocolSpec::from_toml_str(&text).unwrap_or_else(|e| panic!("{path} at pids = {pids}: {e}"))
}

/// Verifies a declarative spec (`specs/*.toml`) under its committed golden
/// assignment and reports `(verdict, states, transitions)` — the spec
/// counterpart of [`verify_skeleton_golden`].
pub fn verify_spec_golden(spec: &ProtocolSpec, threads: usize) -> (Verdict, usize, usize) {
    verify(&spec.model(), &spec_golden_resolver(spec), threads)
}

/// Diffs a measured spec verification row against the spec's `[golden]`
/// block. Returns human-readable deviation lines; empty means the row
/// reproduces every committed count. Uncommitted fields gate nothing.
pub fn spec_verification_deviations(
    spec: &ProtocolSpec,
    verdict: Verdict,
    states: usize,
    transitions: usize,
) -> Vec<String> {
    let golden = spec.golden();
    let mut devs = Vec::new();
    if let Some(want) = &golden.verdict {
        // Goldens commit the variant name (`"Success"` / `"Failure"`), not
        // the lowercase table rendering.
        let got = format!("{verdict:?}");
        if &got != want {
            devs.push(format!("verdict {got} (golden {want})"));
        }
    }
    if let Some(want) = golden.states {
        if states != want {
            devs.push(format!("states {states} (golden {want})"));
        }
    }
    if let Some(want) = golden.transitions {
        if transitions != want {
            devs.push(format!("transitions {transitions} (golden {want})"));
        }
    }
    devs
}

/// Runs synthesis over a spec's skeleton in the configuration its
/// `[golden.synth]` block was measured under (pruning on; trace-refined
/// patterns when the block says `refined = true`) and diffs the outcome
/// against the committed counts. Returns the report plus deviation lines.
pub fn run_spec_synthesis(spec: &ProtocolSpec) -> (SynthReport, Vec<String>) {
    let golden = spec.golden();
    let mut opts = SynthOptions::default();
    if golden.synth_refined {
        opts = opts.pattern_mode(PatternMode::Refined);
    }
    let report = Synthesizer::new(opts).run(&spec.model());

    let mut devs = Vec::new();
    if let Some(want) = golden.synth_evaluated {
        let got = report.stats().evaluated;
        if got != want {
            devs.push(format!("synth evaluated {got} (golden {want})"));
        }
    }
    if let Some(want) = golden.synth_patterns {
        let got = report.stats().patterns as u64;
        if got != want {
            devs.push(format!("synth patterns {got} (golden {want})"));
        }
    }
    if let Some(want) = golden.synth_solutions {
        let got = report.solutions().len();
        if got != want {
            devs.push(format!("synth solutions {got} (golden {want})"));
        }
    }
    if !golden.assignment.is_empty() {
        let assignment: Vec<(&str, usize)> = golden
            .assignment
            .iter()
            .map(|(h, a)| (h.as_str(), spec.action_index(h, a).unwrap()))
            .collect();
        let found = report.solutions().iter().any(|sol| {
            assignment.iter().all(|(hole, idx)| {
                report
                    .holes()
                    .iter()
                    .position(|h| h.name == *hole)
                    .map(|slot| sol.action_for(slot) == Some(*idx as u16))
                    .unwrap_or(false)
            })
        });
        if !found {
            devs.push("golden assignment is not among the synthesized solutions".into());
        }
    }
    (report, devs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use verc3_mck::NoHoles;

    #[test]
    fn paper_rows_are_consistent() {
        for row in paper::TABLE1 {
            if row.patterns.is_none() {
                assert_eq!(row.candidates, row.evaluated, "naive evaluates everything");
            }
        }
    }

    #[test]
    fn measured_row_formats() {
        let row = MeasuredRow {
            label: "demo".into(),
            holes: 8,
            candidates: 231_525,
            patterns: Some(42),
            evaluated: 999,
            solutions: 4,
            wall: Duration::from_millis(1500),
            estimated: false,
        };
        let s = row.format();
        assert!(s.contains("demo"));
        assert!(s.contains("231525"));
        assert!(s.contains("42"));
        assert!(!s.contains("extrapolated"));
    }

    #[test]
    fn tiny_row_runs_end_to_end() {
        let (row, report) = run_synthesis_row_with("tiny", MsiConfig::msi_tiny(), true, 1, 1, true);
        assert_eq!(row.holes, 3);
        assert_eq!(row.solutions, 2);
        assert_eq!(report.naive_candidate_space(), 105);
    }

    #[test]
    fn tiny_row_is_check_thread_invariant() {
        let (serial, _) = run_synthesis_row_with("tiny", MsiConfig::msi_tiny(), true, 1, 1, true);
        let (par, _) = run_synthesis_row_with("tiny", MsiConfig::msi_tiny(), true, 1, 4, true);
        assert_eq!(par.holes, serial.holes);
        assert_eq!(par.evaluated, serial.evaluated);
        assert_eq!(par.patterns, serial.patterns);
        assert_eq!(par.solutions, serial.solutions);
    }

    #[test]
    fn flags_are_checked_strictly() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let check = |v: &[&str]| check_flags(&args(v), "usage: bin [--dot] [--spec PATH]...");
        assert_eq!(check(&["--dot", "--spec", "a", "--spec", "b"]), Ok(()));
        assert!(check(&["--dott"]).is_err() && check(&["--spec"]).is_err());
        assert_eq!(parse_check_threads(&args(&["--check-threads", "4"])), Ok(4));
        assert!(parse_check_threads(&args(&["--check-threads", "0"])).is_err());
    }

    #[test]
    fn verify_is_thread_invariant() {
        let model = MsiModel::new(MsiConfig::golden());
        assert_eq!(verify(&model, &NoHoles, 1), verify(&model, &NoHoles, 4));
    }

    #[test]
    fn golden_candidate_verifies_every_skeleton() {
        // The golden candidate must be a fixed point of every named skeleton
        // (and match the hole-free golden model's state space).
        let golden = verify(&MsiModel::new(MsiConfig::golden()), &NoHoles, 1);
        for config in [
            MsiConfig::msi_tiny(),
            MsiConfig::msi_small(),
            MsiConfig::msi_large(),
            MsiConfig::msi_xl(),
        ] {
            let (verdict, states, transitions) = verify_skeleton_golden(config, 1);
            assert_eq!(verdict, Verdict::Success);
            assert_eq!((verdict, states, transitions), golden);
        }
    }

    #[test]
    fn skeleton_golden_verification_is_thread_invariant() {
        assert_eq!(
            verify_skeleton_golden(MsiConfig::msi_xl(), 1),
            verify_skeleton_golden(MsiConfig::msi_xl(), 4),
        );
    }

    #[test]
    fn synthetic_generators_are_deterministic_and_distinct() {
        let a = synthetic::sparse_patterns(500, 7);
        let b = synthetic::sparse_patterns(500, 7);
        assert_eq!(a, b, "same seed, same patterns");
        let distinct: std::collections::BTreeSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), a.len(), "patterns are distinct");
        assert!(a.iter().all(|p| p
            .iter()
            .all(|&(h, _)| (h as usize) < synthetic::XL_ARITIES.len())));

        let prefixes = synthetic::dense_prefixes(500, 9);
        let distinct: std::collections::BTreeSet<_> = prefixes.iter().collect();
        assert_eq!(distinct.len(), prefixes.len());

        let queries = synthetic::query_candidates(64, &a, 11);
        assert!(queries
            .iter()
            .all(|q| q.len() == synthetic::XL_ARITIES.len()));
    }

    #[test]
    fn naive_estimator_runs() {
        let row = estimate_naive_row("est", MsiConfig::msi_tiny(), 5, 7);
        assert!(row.estimated);
        assert_eq!(row.candidates, 105);
    }

    #[test]
    fn slugs_are_filename_safe() {
        assert_eq!(slug("MSI-xl 1 thread, pruning"), "msi-xl-1-thread-pruning");
        assert_eq!(slug("  weird -- label  "), "weird-label");
        assert_eq!(slug("plain"), "plain");
    }

    #[test]
    fn resume_command_appends_the_flag_once() {
        let args = vec!["--xl".to_owned(), "--journal".to_owned(), "j".to_owned()];
        let cmd = resume_command("table1", &args);
        assert!(
            cmd.ends_with("table1 -- --xl --journal j --resume"),
            "{cmd}"
        );
        let args = vec!["--xl".to_owned(), "--resume".to_owned()];
        assert_eq!(
            resume_command("table1", &args).matches("--resume").count(),
            1
        );
    }

    #[test]
    fn a_controlled_row_journals_and_resumes_to_the_same_result() {
        let dir = std::env::temp_dir().join(format!("verc3-bench-row-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let controls = RowControls {
            journal_dir: Some(dir.clone()),
            ..RowControls::default()
        };
        let label = "tiny journaled";
        let (_, first) =
            run_synthesis_row_controlled(label, MsiConfig::msi_tiny(), true, 1, 1, true, &controls)
                .expect("journaled run");
        assert!(controls
            .journal_path(label)
            .expect("journaling on")
            .exists());
        let line = machine_row_line(label, &first);
        assert!(
            line.contains("stop=Completed") && line.contains("solutions=2"),
            "{line}"
        );

        // Resuming a *completed* journal replays it without re-searching
        // and lands on the identical report.
        let resumed = RowControls {
            resume: true,
            ..controls.clone()
        };
        let (_, second) =
            run_synthesis_row_controlled(label, MsiConfig::msi_tiny(), true, 1, 1, true, &resumed)
                .expect("resumed run");
        assert_eq!(second.solutions(), first.solutions());
        assert_eq!(second.stats().evaluated, first.stats().evaluated);
        assert_eq!(second.stats().patterns, first.stats().patterns);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_sigint_flag_is_shared_and_initially_clear() {
        let a = sigint::install();
        let b = sigint::install();
        assert!(!sigint::triggered());
        assert!(Arc::ptr_eq(&a, &b), "install must hand out one flag");
    }
}
