//! The benchmark's workloads: pinned item lists, their goldens, and the
//! engine call each item makes through the public API.
//!
//! Every item list is pinned by name here. Nothing globs `specs/` or reuses
//! another harness's row set, so adding a spec or porting a model to the
//! front-end never silently changes a workload.

use crate::trace::{self, SpanLog, Tally, Traced};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use verc3_core::{Enumeration, PatternMode, StopReason, SynthOptions, SynthReport, Synthesizer};
use verc3_mck::{Checker, CheckerOptions, FixedResolver, TransitionSystem, Verdict};
use verc3_protocols::mesi::{MesiConfig, MesiModel};
use verc3_protocols::msi::{MsiConfig, MsiModel};
use verc3_spec::ProtocolSpec;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "synth_msi_xl",
    "synth_msi_small_naive",
    "spec_zoo",
    "verify_golden_t2",
];

/// The specs `spec_zoo` loads, by file stem, and whether each is also
/// synthesized from its holes.
const ZOO: [(&str, bool); 5] = [
    ("fig2", true),
    ("msi_small", true),
    ("german", false),
    ("peterson", true),
    ("bakery", false),
];

/// Checker threads of `verify_golden_t2`.
const VERIFY_THREADS: usize = 2;

/// Whether an item synthesizes or verifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Synthesizer::try_run` over a skeleton.
    Synth,
    /// `Checker::run`/`run_with` over a complete model.
    Verify,
}

/// Work counters one engine call reports about itself (from `SynthStats` or
/// `Stats`), summed by the runner into the per-layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// States the checker committed by live exploration.
    pub states: u64,
    /// States inherited from session checkpoints.
    pub states_reused: u64,
    /// Candidates dispatched to the checker.
    pub evaluated: u64,
    /// Candidates skipped by pruning patterns.
    pub skipped: f64,
    /// Pattern-table consultations spent proposing candidates.
    pub probes: u64,
    /// Pruning patterns recorded.
    pub patterns: u64,
    /// Enumeration generations.
    pub generations: u64,
    /// Candidates whose evaluation panicked.
    pub quarantined: u64,
    /// Size of the progress journal after the run.
    pub journal_bytes: u64,
}

impl Work {
    /// Field-wise sum.
    pub fn add(&mut self, o: &Work) {
        self.states += o.states;
        self.states_reused += o.states_reused;
        self.evaluated += o.evaluated;
        self.skipped += o.skipped;
        self.probes += o.probes;
        self.patterns += o.patterns;
        self.generations += o.generations;
        self.quarantined += o.quarantined;
        self.journal_bytes += o.journal_bytes;
    }
}

/// What one item run produced.
#[derive(Debug, Default)]
pub struct ItemRun {
    /// Wall time of the engine call alone.
    pub call_wall: Duration,
    /// Per-thread callback tallies of the call (empty when untraced).
    pub threads: Vec<Tally>,
    /// Counters the engine reported.
    pub work: Work,
    /// Differences from the goldens; empty means the item is correct.
    pub deviations: Vec<String>,
}

/// One pinned item of a workload.
pub trait Item {
    /// The item's name, for spans and deviation messages.
    fn name(&self) -> &str;
    /// Synthesis or verification.
    fn kind(&self) -> Kind;
    /// Fixed evaluated-candidate work: the golden evaluated count of a
    /// synthesis, one evaluation for a verification.
    fn golden_evals(&self) -> u64;
    /// Fixed visited-state work: the golden state count of a verification;
    /// for a synthesis, the states a one-shot checker visits over the
    /// golden dispatch sequence (0 where the benchmark pins none).
    fn golden_states(&self) -> u64;
    /// Switches the item to its [`Traced`] model.
    fn enable_trace(&mut self);
    /// Runs the engine call once and diffs the result against the goldens.
    fn run(&self, spans: &mut SpanLog, parent: usize) -> ItemRun;
}

/// A model and, once tracing is enabled, its traced wrapper.
struct Subject<M: TransitionSystem> {
    bare: Arc<M>,
    traced: Option<Traced<M>>,
}

impl<M> Subject<M>
where
    M: TransitionSystem + 'static,
    M::State: 'static,
{
    fn new(model: M) -> Self {
        Subject {
            bare: Arc::new(model),
            traced: None,
        }
    }

    fn enable_trace(&mut self) {
        self.traced = Some(Traced::new(Arc::clone(&self.bare)));
    }
}

/// Runs `call` between two counter snapshots (when traced) inside a span.
fn timed_call<T>(
    traced: bool,
    spans: &mut SpanLog,
    parent: usize,
    name: &str,
    call: impl FnOnce() -> T,
) -> (T, Duration, Vec<Tally>) {
    let before = if traced {
        trace::snapshot()
    } else {
        Vec::new()
    };
    let span = spans.open(Some(parent), name);
    let start = Instant::now();
    let out = call();
    let wall = start.elapsed();
    spans.close(span);
    let threads = if traced {
        trace::active_since(&before, &trace::snapshot())
    } else {
        Vec::new()
    };
    (out, wall, threads)
}

/// Committed synthesis results an item must reproduce.
struct SynthGolden {
    evaluated: u64,
    patterns: Option<u64>,
    solutions: usize,
    /// States a one-shot checker visits over the golden dispatch sequence.
    dispatch_states: u64,
    /// `(hole name, action index)` pairs one solution must contain.
    assignment: Vec<(String, u16)>,
}

struct SynthItem<M: TransitionSystem> {
    name: String,
    subject: Subject<M>,
    options: SynthOptions,
    journal: Option<PathBuf>,
    golden: SynthGolden,
}

impl<M> SynthItem<M>
where
    M: TransitionSystem + 'static,
    M::State: 'static,
{
    fn deviations(&self, report: &SynthReport) -> Vec<String> {
        let g = &self.golden;
        let s = report.stats();
        let mut devs = Vec::new();
        if s.stop != StopReason::Completed {
            devs.push(format!("stopped early: {}", s.stop));
        }
        if s.quarantined != 0 {
            devs.push(format!("{} quarantined candidates", s.quarantined));
        }
        if s.evaluated != g.evaluated {
            devs.push(format!(
                "evaluated {} (golden {})",
                s.evaluated, g.evaluated
            ));
        }
        if let Some(want) = g.patterns {
            if s.patterns as u64 != want {
                devs.push(format!("patterns {} (golden {want})", s.patterns));
            }
        }
        if report.solutions().len() != g.solutions {
            devs.push(format!(
                "solutions {} (golden {})",
                report.solutions().len(),
                g.solutions
            ));
        }
        if !g.assignment.is_empty() {
            let slot = |hole: &str| report.holes().iter().position(|h| h.name == hole);
            let found = report.solutions().iter().any(|sol| {
                g.assignment
                    .iter()
                    .all(|(hole, a)| slot(hole).is_some_and(|h| sol.action_for(h) == Some(*a)))
            });
            if !found {
                devs.push("golden assignment is not among the solutions".into());
            }
        }
        devs
    }
}

impl<M> Item for SynthItem<M>
where
    M: TransitionSystem + 'static,
    M::State: 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> Kind {
        Kind::Synth
    }

    fn golden_evals(&self) -> u64 {
        self.golden.evaluated
    }

    fn golden_states(&self) -> u64 {
        self.golden.dispatch_states
    }

    fn enable_trace(&mut self) {
        self.subject.enable_trace();
    }

    fn run(&self, spans: &mut SpanLog, parent: usize) -> ItemRun {
        if let Some(path) = &self.journal {
            // A fresh run each time: the journal must not exist yet.
            let _ = std::fs::remove_file(path);
        }
        let synth = Synthesizer::new(self.options.clone());
        let traced = self.subject.traced.as_ref();
        let (result, call_wall, threads) = timed_call(
            traced.is_some(),
            spans,
            parent,
            "try_run",
            || match traced {
                Some(model) => synth.try_run(model),
                None => synth.try_run(&*self.subject.bare),
            },
        );
        let mut run = ItemRun {
            call_wall,
            threads,
            ..ItemRun::default()
        };
        match result {
            Ok(report) => {
                let s = report.stats();
                run.work = Work {
                    states: s.check_states_expanded,
                    states_reused: s.check_states_reused,
                    evaluated: s.evaluated,
                    skipped: s.skipped_by_pruning as f64,
                    probes: s.probes,
                    patterns: s.patterns as u64,
                    generations: s.generations.len() as u64,
                    quarantined: s.quarantined,
                    journal_bytes: self
                        .journal
                        .as_ref()
                        .and_then(|p| std::fs::metadata(p).ok())
                        .map_or(0, |m| m.len()),
                };
                run.deviations = self.deviations(&report);
            }
            Err(e) => run.deviations.push(format!("try_run failed: {e}")),
        }
        run
    }
}

/// Committed verification results an item must reproduce.
struct VerifyGolden {
    verdict: Verdict,
    states: usize,
    transitions: usize,
}

struct VerifyItem<M: TransitionSystem> {
    name: String,
    subject: Subject<M>,
    checker: Checker,
    /// Hole assignment for skeletons; `None` runs hole-free `Checker::run`.
    resolver: Option<FixedResolver>,
    golden: VerifyGolden,
}

impl<M> Item for VerifyItem<M>
where
    M: TransitionSystem + 'static,
    M::State: 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> Kind {
        Kind::Verify
    }

    fn golden_evals(&self) -> u64 {
        1
    }

    fn golden_states(&self) -> u64 {
        self.golden.states as u64
    }

    fn enable_trace(&mut self) {
        self.subject.enable_trace();
    }

    fn run(&self, spans: &mut SpanLog, parent: usize) -> ItemRun {
        fn check<T: TransitionSystem>(
            checker: &Checker,
            model: &T,
            resolver: Option<&FixedResolver>,
        ) -> (Verdict, usize, usize) {
            let out = match resolver {
                Some(r) => checker.run_with(model, &mut r.clone()),
                None => checker.run(model),
            };
            (
                out.verdict(),
                out.stats().states_visited,
                out.stats().transitions,
            )
        }
        let traced = self.subject.traced.as_ref();
        let resolver = self.resolver.as_ref();
        let call = if resolver.is_some() {
            "run_with"
        } else {
            "run"
        };
        let ((verdict, states, transitions), call_wall, threads) =
            timed_call(traced.is_some(), spans, parent, call, || match traced {
                Some(model) => check(&self.checker, model, resolver),
                None => check(&self.checker, &*self.subject.bare, resolver),
            });
        let g = &self.golden;
        let mut deviations = Vec::new();
        if verdict != g.verdict {
            deviations.push(format!("verdict {verdict} (golden {})", g.verdict));
        }
        if states != g.states {
            deviations.push(format!("states {states} (golden {})", g.states));
        }
        if transitions != g.transitions {
            deviations.push(format!(
                "transitions {transitions} (golden {})",
                g.transitions
            ));
        }
        ItemRun {
            call_wall,
            threads,
            work: Work {
                states: states as u64,
                ..Work::default()
            },
            deviations,
        }
    }
}

/// A workload's items plus the front-end set-up time spent building them.
pub struct Setup {
    /// The items, in run order.
    pub items: Vec<Box<dyn Item>>,
    /// Seconds spent in `ProtocolSpec::from_path` (parse + validate).
    pub parse_s: f64,
    /// Seconds spent in `ProtocolSpec::model`.
    pub model_s: f64,
}

/// Builds the items of `workload`. `root` is the repository checkout (for
/// `specs/`), `work_dir` a scratch directory for journals, and `seed`
/// permutes the item order of the workloads whose order is free.
pub fn setup(workload: &str, root: &Path, work_dir: &Path, seed: u64) -> Result<Setup, String> {
    let mut setup = Setup {
        items: Vec::new(),
        parse_s: 0.0,
        model_s: 0.0,
    };
    match workload {
        "synth_msi_xl" => {
            let journal = work_dir.join("msi_xl.vc3j");
            setup.items.push(Box::new(SynthItem {
                name: "msi_xl".into(),
                subject: Subject::new(MsiModel::new(MsiConfig::msi_xl())),
                options: SynthOptions::default()
                    .pattern_mode(PatternMode::Refined)
                    .enumeration(Enumeration::Guided)
                    .journal(&journal),
                journal: Some(journal),
                // table1 `GOLDEN_ROWS`: "MSI-xl 1 thread, pruning".
                golden: SynthGolden {
                    evaluated: 3_176,
                    patterns: Some(3_165),
                    solutions: 8,
                    dispatch_states: MSI_XL_DISPATCH_STATES,
                    assignment: Vec::new(),
                },
            }))
        }
        "synth_msi_small_naive" => setup.items.push(Box::new(SynthItem {
            name: "msi_small_naive".into(),
            subject: Subject::new(MsiModel::new(MsiConfig::msi_small())),
            options: SynthOptions::default().pruning(false),
            journal: None,
            // table1 `GOLDEN_ROWS`: "MSI-small 1 thread, no pruning".
            golden: SynthGolden {
                evaluated: 231_525,
                patterns: None,
                solutions: 8,
                dispatch_states: MSI_SMALL_NAIVE_DISPATCH_STATES,
                assignment: Vec::new(),
            },
        })),
        "spec_zoo" => {
            for (stem, synthesize) in ZOO {
                let path = root.join("specs").join(format!("{stem}.toml"));
                let start = Instant::now();
                let spec = ProtocolSpec::from_path(&path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                setup.parse_s += start.elapsed().as_secs_f64();
                spec_items(&spec, stem, synthesize, &mut setup)?;
            }
            shuffle(&mut setup.items, seed);
        }
        "verify_golden_t2" => {
            let checker = Checker::new(CheckerOptions::default().threads(VERIFY_THREADS));
            // fig3_check `GOLDEN_ROWS`.
            let msi = |name: &str, config: MsiConfig, states, transitions| -> Box<dyn Item> {
                Box::new(VerifyItem {
                    name: name.into(),
                    subject: Subject::new(MsiModel::new(config)),
                    checker: checker.clone(),
                    resolver: None,
                    golden: VerifyGolden {
                        verdict: Verdict::Success,
                        states,
                        transitions,
                    },
                })
            };
            let n_caches = |n| MsiConfig {
                n_caches: n,
                ..MsiConfig::golden()
            };
            setup.items = vec![
                msi("msi_golden_4", n_caches(4), 1_056, 4_201),
                msi("msi_golden_5", n_caches(5), 2_991, 15_250),
                msi("msi_golden_6", n_caches(6), 7_671, 48_031),
                msi(
                    "msi_golden_3_data",
                    MsiConfig {
                        data_values: true,
                        ..MsiConfig::golden()
                    },
                    12_287,
                    36_476,
                ),
                Box::new(VerifyItem {
                    name: "mesi_golden_3".into(),
                    subject: Subject::new(MesiModel::new(MesiConfig::golden())),
                    checker: checker.clone(),
                    resolver: None,
                    golden: VerifyGolden {
                        verdict: Verdict::Success,
                        states: 281,
                        transitions: 835,
                    },
                }),
            ];
            shuffle(&mut setup.items, seed);
        }
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {WORKLOADS:?})"
            ))
        }
    }
    Ok(setup)
}

/// States a one-shot checker visits over the golden dispatch sequence of
/// each MSI synthesis workload (`check_states_expanded +
/// check_states_reused`). Fixed by the golden candidate sequence, so the
/// state throughput of a synthesis is its wall time against constant work.
const MSI_XL_DISPATCH_STATES: u64 = 705_757;
const MSI_SMALL_NAIVE_DISPATCH_STATES: u64 = 10_169_165;

/// Adds `spec`'s verification item and, when `synthesize`, its synthesis
/// item, both gated on the spec's own `[golden]` block.
fn spec_items(
    spec: &ProtocolSpec,
    stem: &str,
    synthesize: bool,
    setup: &mut Setup,
) -> Result<(), String> {
    let golden = spec.golden();
    let missing = |what: &str| format!("specs/{stem}.toml: no golden {what}");
    let mut resolver = FixedResolver::new();
    let mut assignment = Vec::new();
    for (hole, action) in &golden.assignment {
        let idx = spec.action_index(hole, action).ok_or_else(|| {
            format!("specs/{stem}.toml: golden {hole}@{action} is not a hole action")
        })?;
        resolver.assign(hole.clone(), idx);
        assignment.push((hole.clone(), idx as u16));
    }
    let verdict = match golden.verdict.as_deref() {
        Some("Success") => Verdict::Success,
        Some("Failure") => Verdict::Failure,
        _ => return Err(missing("verdict")),
    };

    let start = Instant::now();
    let model = spec.model();
    setup.model_s += start.elapsed().as_secs_f64();
    setup.items.push(Box::new(VerifyItem {
        name: format!("{stem}.verify"),
        subject: Subject::new(model),
        checker: Checker::new(CheckerOptions::default()),
        resolver: Some(resolver),
        golden: VerifyGolden {
            verdict,
            states: golden.states.ok_or_else(|| missing("states"))?,
            transitions: golden.transitions.ok_or_else(|| missing("transitions"))?,
        },
    }));

    if synthesize {
        let mut options = SynthOptions::default();
        if golden.synth_refined {
            options = options.pattern_mode(PatternMode::Refined);
        }
        let start = Instant::now();
        let model = spec.model();
        setup.model_s += start.elapsed().as_secs_f64();
        setup.items.push(Box::new(SynthItem {
            name: format!("{stem}.synth"),
            subject: Subject::new(model),
            options,
            journal: None,
            golden: SynthGolden {
                evaluated: golden
                    .synth_evaluated
                    .ok_or_else(|| missing("synth evaluated"))?,
                patterns: Some(
                    golden
                        .synth_patterns
                        .ok_or_else(|| missing("synth patterns"))?,
                ),
                solutions: golden
                    .synth_solutions
                    .ok_or_else(|| missing("synth solutions"))?,
                dispatch_states: 0,
                assignment,
            },
        }));
    }
    Ok(())
}

/// Seeded Fisher–Yates shuffle (splitmix64), identical on every platform.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}
