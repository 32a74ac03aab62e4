//! Runs one benchmark workload and prints its metrics as one JSON line.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --root CHECKOUT --work-dir DIR
//! ```
//!
//! Set-up (building every item's model) is sampled at the start and after
//! every pass, and its median reported as `setup_s`. The timed phase runs
//! whole passes over the workload's items until `--seconds` have elapsed,
//! at least one pass, and reports medians over passes. Every
//! item is diffed against its goldens; a pass containing a deviation, error
//! or panic counts its failed items and contributes no timing.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` spends half the
//! budget untraced and half on [`Traced`](perfbench::trace::Traced) models,
//! and prints the per-layer metrics (means per traced pass) plus the trace's
//! own overhead and unaccounted time. Coarse spans are written to
//! `DIR/spans-<workload>.jsonl` at exit.

use perfbench::trace::{self, SpanLog, Tally, TimerCost};
use perfbench::workloads::{self, Item, ItemRun, Kind, Setup, Work};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up samples taken at a time: at least `MIN`, at most `MAX`, and
/// enough for set-up to have taken `SHARE` of the run so far.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 1000;
const SETUP_SHARE: f64 = 0.05;

/// Slack for a thread whose corrected busy time exceeds its call's wall.
const SELF_TOLERANCE_S: f64 = 1e-6;

#[derive(Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    root: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: value("--workload")?.to_owned(),
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        root: value("--root")?.into(),
        work_dir: value("--work-dir")?.into(),
    })
}

/// One pass over a workload's items.
#[derive(Default)]
struct Pass {
    wall: f64,
    /// Call wall of the items `evals_per_s` divides by.
    evals_wall: f64,
    /// Call wall of the items `states_per_s` divides by.
    states_wall: f64,
    calls_wall: f64,
    failed: usize,
    work: Work,
    tally: Tally,
    engine_self_s: f64,
    mck_self_s: f64,
    negative_self: bool,
}

/// Which items each throughput is measured over: evaluations over the
/// synthesis items, states over the verification items, and each over all
/// items when the workload has none of its kind.
struct Throughput {
    evals_kind: Option<Kind>,
    states_kind: Option<Kind>,
    evals: u64,
    states: u64,
}

impl Throughput {
    fn new(items: &[Box<dyn Item>]) -> Self {
        let has = |k| items.iter().any(|i| i.kind() == k);
        let evals_kind = has(Kind::Synth).then_some(Kind::Synth);
        let states_kind = has(Kind::Verify).then_some(Kind::Verify);
        Throughput {
            evals_kind,
            states_kind,
            evals: items
                .iter()
                .filter(|i| counts(evals_kind, i.as_ref()))
                .map(|i| i.golden_evals())
                .sum(),
            states: items
                .iter()
                .filter(|i| counts(states_kind, i.as_ref()))
                .map(|i| i.golden_states())
                .sum(),
        }
    }
}

/// Whether `item` counts toward a throughput measured over `kind`.
fn counts(kind: Option<Kind>, item: &dyn Item) -> bool {
    kind.map_or(true, |k| k == item.kind())
}

struct Runner<'a> {
    setup: SetupSampler,
    throughput: &'a Throughput,
    spans: &'a mut SpanLog,
    root_span: usize,
    timer: TimerCost,
    attempted: u64,
    failed: u64,
}

impl Runner<'_> {
    fn pass(&mut self, items: &[Box<dyn Item>], label: &str) -> Pass {
        let mut pass = Pass::default();
        let span = self.spans.open(Some(self.root_span), label);
        let start = Instant::now();
        for item in items {
            let item_span = self.spans.open(Some(span), format!("item:{}", item.name()));
            let run = catch_unwind(AssertUnwindSafe(|| item.run(self.spans, item_span)))
                .unwrap_or_else(|panic| {
                    let msg = panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                        .unwrap_or_default();
                    ItemRun {
                        deviations: vec![format!("panicked: {msg}")],
                        ..ItemRun::default()
                    }
                });
            self.spans.close(item_span);
            self.attempted += 1;
            if !run.deviations.is_empty() {
                pass.failed += 1;
                eprintln!("{}: {}", item.name(), run.deviations.join("; "));
            }
            self.account(&mut pass, item.as_ref(), &run);
        }
        pass.wall = start.elapsed().as_secs_f64();
        self.spans.close(span);
        self.failed += pass.failed as u64;
        pass
    }

    fn account(&self, pass: &mut Pass, item: &dyn Item, run: &ItemRun) {
        let wall = run.call_wall.as_secs_f64();
        pass.calls_wall += wall;
        if counts(self.throughput.evals_kind, item) {
            pass.evals_wall += wall;
        }
        if counts(self.throughput.states_kind, item) {
            pass.states_wall += wall;
        }
        pass.work.add(&run.work);
        // Self time: per thread, the call's wall minus that thread's busy
        // time in model callbacks, minus what tracing those callbacks cost.
        let mut self_s = if run.threads.is_empty() { wall } else { 0.0 };
        for t in &run.threads {
            let own = wall - t.busy_s(&self.timer) - self.timer.outside_s(t.calls());
            pass.negative_self |= own < -SELF_TOLERANCE_S;
            self_s += own;
            pass.tally.add(t);
        }
        pass.engine_self_s += self_s;
        if item.kind() == Kind::Verify {
            pass.mck_self_s += self_s;
        }
    }

    /// Whole passes until `budget` has elapsed, at least one, with set-up
    /// samples topped up after each.
    fn phase(
        &mut self,
        items: &[Box<dyn Item>],
        label: &str,
        budget: Duration,
    ) -> Result<Vec<Pass>, String> {
        let start = Instant::now();
        let mut passes = Vec::new();
        loop {
            passes.push(self.pass(items, &format!("{label}:{}", passes.len())));
            self.setup.top_up()?;
            if start.elapsed() >= budget {
                return Ok(passes);
            }
        }
    }
}

/// Set-up timings. Set-up is repeated at the start and again after every
/// pass until it has taken `SETUP_SHARE` of the run, so its median spans
/// the whole run rather than its first moments.
struct SetupSampler {
    args: Args,
    run_start: Instant,
    spent: f64,
    total_s: Vec<f64>,
    parse_s: Vec<f64>,
    model_s: Vec<f64>,
}

impl SetupSampler {
    fn new(args: &Args) -> Self {
        SetupSampler {
            args: args.clone(),
            run_start: Instant::now(),
            spent: 0.0,
            total_s: Vec::new(),
            parse_s: Vec::new(),
            model_s: Vec::new(),
        }
    }

    /// Builds the workload's items once, recording how long it took.
    fn sample(&mut self) -> Result<Setup, String> {
        let a = &self.args;
        let start = Instant::now();
        let setup = workloads::setup(&a.workload, &a.root, &a.work_dir, a.seed)?;
        let elapsed = start.elapsed().as_secs_f64();
        self.spent += elapsed;
        self.total_s.push(elapsed);
        self.parse_s.push(setup.parse_s);
        self.model_s.push(setup.model_s);
        Ok(setup)
    }

    /// Samples until set-up has taken its share of the run so far, at
    /// least `SETUP_MIN_REPS` and at most `SETUP_MAX_REPS` at a time.
    fn top_up(&mut self) -> Result<(), String> {
        for reps in 0..SETUP_MAX_REPS {
            let share = self.spent / self.run_start.elapsed().as_secs_f64();
            if reps >= SETUP_MIN_REPS && share >= SETUP_SHARE {
                break;
            }
            self.sample()?;
        }
        Ok(())
    }
}

/// The passes in which every item matched its goldens.
fn good(passes: &[Pass]) -> Vec<&Pass> {
    passes.iter().filter(|p| p.failed == 0).collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }

    // The first set-up's items are the ones timed; the rest are samples.
    let mut sampler = SetupSampler::new(&args);
    let first = sampler.sample().and_then(|s| sampler.top_up().map(|()| s));
    let mut setup = match first {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    let throughput = Throughput::new(&setup.items);
    let timer = if args.trace {
        trace::calibrate()
    } else {
        TimerCost::default()
    };

    let mut spans = SpanLog::default();
    let root_span = spans.open(None, format!("workload:{}", args.workload));
    let budget = Duration::from_secs(args.seconds);
    let mut runner = Runner {
        setup: sampler,
        throughput: &throughput,
        spans: &mut spans,
        root_span,
        timer,
        attempted: 0,
        failed: 0,
    };
    let phases = if args.trace {
        runner
            .phase(&setup.items, "untraced", budget / 2)
            .and_then(|untraced| {
                for item in setup.items.iter_mut() {
                    item.enable_trace();
                }
                Ok((untraced, runner.phase(&setup.items, "traced", budget / 2)?))
            })
    } else {
        runner
            .phase(&setup.items, "pass", budget)
            .map(|passes| (passes, Vec::new()))
    };
    let (untraced, traced) = match phases {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    let (attempted, failed) = (runner.attempted, runner.failed);
    let sampler = runner.setup;
    spans.close(root_span);
    let spans_path = args.work_dir.join(format!("spans-{}.jsonl", args.workload));
    if let Err(e) = std::fs::write(&spans_path, spans.to_json_lines()) {
        eprintln!("perfbench: cannot write {}: {e}", spans_path.display());
    }

    let good_untraced = good(&untraced);
    let mut correct = failed == 0 && !good_untraced.is_empty();
    let mut metrics = Metrics(Vec::new());
    if args.trace {
        let good_traced = good(&traced);
        correct &= !good_traced.is_empty();
        let n = good_traced.len().max(1) as f64;
        let mut tally = Tally::default();
        let mut work = Work::default();
        let (mut engine_self, mut mck_self, mut unaccounted) = (0.0, 0.0, 0.0);
        for p in &good_traced {
            tally.add(&p.tally);
            work.add(&p.work);
            engine_self += p.engine_self_s;
            mck_self += p.mck_self_s;
            unaccounted += p.wall - p.calls_wall;
            if p.negative_self || p.wall < p.calls_wall {
                eprintln!("perfbench: negative self or unaccounted time (measurement bug)");
                correct = false;
            }
        }
        let per = |x: f64| x / n;
        let busy_s = |ns: u64, calls: u64| per(timer.busy_s(ns, calls));
        let overhead = ratio(
            median(good_traced.iter().map(|p| p.wall).collect()),
            median(good_untraced.iter().map(|p| p.wall).collect()),
        ) - 1.0;
        metrics.push("spec.parse_s", median(sampler.parse_s), "s");
        metrics.push("spec.model_s", median(sampler.model_s), "s");
        metrics.push("model.rule_calls", per(tally.rule_calls as f64), "count");
        metrics.push("model.rule_s", busy_s(tally.rule_ns, tally.rule_calls), "s");
        metrics.push(
            "model.rule_next_frac",
            ratio(tally.rule_next as f64, tally.rule_calls as f64),
            "frac",
        );
        metrics.push(
            "model.rule_blocked_frac",
            ratio(tally.rule_blocked as f64, tally.rule_calls as f64),
            "frac",
        );
        metrics.push("model.canon_calls", per(tally.canon_calls as f64), "count");
        metrics.push(
            "model.canon_s",
            busy_s(tally.canon_ns, tally.canon_calls),
            "s",
        );
        metrics.push("model.prop_calls", per(tally.prop_calls as f64), "count");
        metrics.push("model.prop_s", busy_s(tally.prop_ns, tally.prop_calls), "s");
        metrics.push("mck.states", per(work.states as f64), "count");
        metrics.push("mck.states_reused", per(work.states_reused as f64), "count");
        metrics.push(
            "mck.reuse_frac",
            ratio(
                work.states_reused as f64,
                (work.states + work.states_reused) as f64,
            ),
            "frac",
        );
        metrics.push("mck.transitions", per(tally.rule_next as f64), "count");
        metrics.push(
            "mck.new_frac",
            ratio(work.states as f64, tally.rule_next as f64),
            "frac",
        );
        metrics.push("mck.self_s", per(mck_self), "s");
        metrics.push("engine.self_s", per(engine_self), "s");
        metrics.push("core.evaluated", per(work.evaluated as f64), "count");
        metrics.push("core.skipped", per(work.skipped), "count");
        metrics.push("core.probes", per(work.probes as f64), "count");
        metrics.push("core.patterns", per(work.patterns as f64), "count");
        metrics.push(
            "core.pattern_yield",
            ratio(work.patterns as f64, work.evaluated as f64),
            "frac",
        );
        metrics.push("core.generations", per(work.generations as f64), "count");
        metrics.push("core.quarantined", per(work.quarantined as f64), "count");
        metrics.push(
            "core.journal_bytes",
            per(work.journal_bytes as f64),
            "bytes",
        );
        metrics.push("trace.overhead_frac", overhead, "frac");
        metrics.push("trace.unaccounted_s", per(unaccounted), "s");
    } else {
        let throughput_of = |work: u64, wall: fn(&Pass) -> f64| {
            median(
                good_untraced
                    .iter()
                    .map(|p| ratio(work as f64, wall(p)))
                    .collect(),
            )
        };
        metrics.push("setup_s", median(sampler.total_s), "s");
        metrics.push(
            "wall_s",
            median(good_untraced.iter().map(|p| p.wall).collect()),
            "s",
        );
        metrics.push(
            "evals_per_s",
            throughput_of(throughput.evals, |p| p.evals_wall),
            "1/s",
        );
        metrics.push(
            "states_per_s",
            throughput_of(throughput.states, |p| p.states_wall),
            "1/s",
        );
        metrics.push("peak_rss_mib", peak_rss_mib(), "MiB");
    }

    println!(
        "workload {} seed {}: {} passes ({} traced), {attempted} items run, {failed} failed",
        args.workload,
        args.seed,
        untraced.len() + traced.len(),
        traced.len(),
    );
    for (name, value, unit) in &metrics.0 {
        println!("  {name:<24} {value:>16.6} {unit}");
    }
    println!("{}", metrics.json(correct, attempted, failed));
    ExitCode::SUCCESS
}
