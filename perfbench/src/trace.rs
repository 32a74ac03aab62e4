//! Outside-in tracing: a [`TransitionSystem`] adapter that counts and times
//! every callback the checker makes into a model, plus the coarse span log
//! of the benchmark's own calls.
//!
//! Nothing here reaches into the measured crates. [`Traced`] re-exposes the
//! inner model's rules, property predicates and `canonicalize` through
//! closures that delegate to the inner model and add their count and busy
//! time to a per-thread [`Counters`] slot. Fine-grained callbacks are only
//! aggregated (no per-call records); per-call spans exist only at the coarse
//! workload → item → `try_run`/`run` level ([`SpanLog`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use verc3_mck::{HoleResolver, Property, Rule, RuleOutcome, TransitionSystem};

/// Callback counters of one thread. Each slot has a single writer (its
/// thread), so updates are plain relaxed load/store pairs rather than locked
/// read-modify-writes; readers snapshot between engine calls, after the
/// engine has joined or parked its workers.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct Counters {
    rule_calls: AtomicU64,
    rule_ns: AtomicU64,
    rule_next: AtomicU64,
    rule_blocked: AtomicU64,
    canon_calls: AtomicU64,
    canon_ns: AtomicU64,
    prop_calls: AtomicU64,
    prop_ns: AtomicU64,
}

/// Plain values of one [`Counters`] slot (or a sum or difference of them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Rule applications.
    pub rule_calls: u64,
    /// Nanoseconds spent inside rule applications.
    pub rule_ns: u64,
    /// Rule applications that produced a successor.
    pub rule_next: u64,
    /// Rule applications aborted by a wildcard hole.
    pub rule_blocked: u64,
    /// `canonicalize` calls.
    pub canon_calls: u64,
    /// Nanoseconds spent inside `canonicalize`.
    pub canon_ns: u64,
    /// Property-predicate evaluations.
    pub prop_calls: u64,
    /// Nanoseconds spent inside property predicates.
    pub prop_ns: u64,
}

impl Tally {
    /// Timed callbacks of every kind.
    pub fn calls(&self) -> u64 {
        self.rule_calls + self.canon_calls + self.prop_calls
    }

    /// Busy seconds of every kind, timer cost removed (see
    /// [`TimerCost::busy_s`]).
    pub fn busy_s(&self, timer: &TimerCost) -> f64 {
        timer.busy_s(self.rule_ns, self.rule_calls)
            + timer.busy_s(self.canon_ns, self.canon_calls)
            + timer.busy_s(self.prop_ns, self.prop_calls)
    }

    /// Field-wise `self - earlier`.
    pub fn since(&self, earlier: &Tally) -> Tally {
        Tally {
            rule_calls: self.rule_calls - earlier.rule_calls,
            rule_ns: self.rule_ns - earlier.rule_ns,
            rule_next: self.rule_next - earlier.rule_next,
            rule_blocked: self.rule_blocked - earlier.rule_blocked,
            canon_calls: self.canon_calls - earlier.canon_calls,
            canon_ns: self.canon_ns - earlier.canon_ns,
            prop_calls: self.prop_calls - earlier.prop_calls,
            prop_ns: self.prop_ns - earlier.prop_ns,
        }
    }

    /// Field-wise sum.
    pub fn add(&mut self, other: &Tally) {
        self.rule_calls += other.rule_calls;
        self.rule_ns += other.rule_ns;
        self.rule_next += other.rule_next;
        self.rule_blocked += other.rule_blocked;
        self.canon_calls += other.canon_calls;
        self.canon_ns += other.canon_ns;
        self.prop_calls += other.prop_calls;
        self.prop_ns += other.prop_ns;
    }
}

impl Counters {
    fn tally(&self) -> Tally {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Tally {
            rule_calls: get(&self.rule_calls),
            rule_ns: get(&self.rule_ns),
            rule_next: get(&self.rule_next),
            rule_blocked: get(&self.rule_blocked),
            canon_calls: get(&self.canon_calls),
            canon_ns: get(&self.canon_ns),
            prop_calls: get(&self.prop_calls),
            prop_ns: get(&self.prop_ns),
        }
    }
}

/// Every thread's slot, in registration order; slots outlive their threads
/// so a snapshot taken after a worker pool shut down still sees its work.
static REGISTRY: Mutex<Vec<Arc<Counters>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Arc<Counters> = {
        let slot = Arc::new(Counters::default());
        REGISTRY
            .lock()
            .expect("counter registry poisoned")
            .push(Arc::clone(&slot));
        slot
    };
}

/// Single-writer increment (see [`Counters`]).
#[inline]
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

#[inline]
fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Per-thread tallies, indexed by registration order. Threads registered
/// after `earlier` was taken compare against zero.
pub fn snapshot() -> Vec<Tally> {
    REGISTRY
        .lock()
        .expect("counter registry poisoned")
        .iter()
        .map(|c| c.tally())
        .collect()
}

/// Per-thread differences between two [`snapshot`]s, keeping only threads
/// that made at least one callback in between.
pub fn active_since(earlier: &[Tally], later: &[Tally]) -> Vec<Tally> {
    later
        .iter()
        .enumerate()
        .map(|(i, t)| t.since(earlier.get(i).unwrap_or(&Tally::default())))
        .filter(|d| d.calls() > 0)
        .collect()
}

/// Runs `body` as one timed callback: its busy nanoseconds and outcome go
/// to the calling thread's slot through `record`.
#[inline]
fn timed<T>(body: impl FnOnce() -> T, record: impl FnOnce(&Counters, u64, &T)) -> T {
    let start = Instant::now();
    let out = body();
    let ns = nanos_since(start);
    LOCAL.with(|c| record(c, ns, &out));
    out
}

/// What tracing adds to one callback, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimerCost {
    /// The interval an empty timed section reads: the part of each
    /// callback's measured busy time that is the timer itself.
    pub inside_ns: f64,
    /// The whole cost of wrapping an empty callback, recording included.
    pub total_ns: f64,
}

impl TimerCost {
    /// Busy seconds of `calls` callbacks whose timed sections read `ns` in
    /// total, less the timer's own reading per call. A callback cheaper than
    /// the timer's resolution reads 0 rather than a negative time.
    pub fn busy_s(&self, ns: u64, calls: u64) -> f64 {
        ((ns as f64 - calls as f64 * self.inside_ns) / 1e9).max(0.0)
    }

    /// Seconds that wrapping `calls` callbacks adds outside their timed
    /// sections.
    pub fn outside_s(&self, calls: u64) -> f64 {
        calls as f64 * (self.total_ns - self.inside_ns) / 1e9
    }
}

/// Measures [`TimerCost`] by timing empty callbacks. They are recorded in
/// the calling thread's slot, which only ever matters as a difference
/// between two [`snapshot`]s.
pub fn calibrate() -> TimerCost {
    const ROUNDS: u64 = 500_000;
    let slot = |t: &Tally| (t.prop_calls, t.prop_ns);
    let empty = || {
        timed(
            || std::hint::black_box(()),
            |c, ns, _| {
                bump(&c.prop_calls, 1);
                bump(&c.prop_ns, ns);
            },
        )
    };
    empty();
    let (calls_before, ns_before) = LOCAL.with(|c| slot(&c.tally()));
    let start = Instant::now();
    for _ in 0..ROUNDS {
        empty();
    }
    let total = nanos_since(start);
    let (calls_after, ns_after) = LOCAL.with(|c| slot(&c.tally()));
    debug_assert_eq!(calls_after - calls_before, ROUNDS);
    TimerCost {
        inside_ns: (ns_after - ns_before) as f64 / ROUNDS as f64,
        total_ns: total as f64 / ROUNDS as f64,
    }
}

/// A model whose every checker-facing callback is counted and timed, and
/// otherwise behaves exactly like the inner model.
pub struct Traced<M: TransitionSystem> {
    inner: Arc<M>,
    rules: Vec<Rule<M::State>>,
    properties: Vec<Property<M::State>>,
}

impl<M> Traced<M>
where
    M: TransitionSystem + 'static,
    M::State: 'static,
{
    /// Wraps `inner`, re-exposing each rule and property through a counting
    /// closure that delegates to it by index.
    pub fn new(inner: Arc<M>) -> Self {
        let rules = (0..inner.rules().len())
            .map(|i| {
                let model = Arc::clone(&inner);
                let name = model.rules()[i].name().to_owned();
                Rule::new(name, move |s: &M::State, ctx: &mut dyn HoleResolver| {
                    timed(
                        || model.rules()[i].apply(s, ctx),
                        |c, ns, out| {
                            bump(&c.rule_calls, 1);
                            bump(&c.rule_ns, ns);
                            match out {
                                RuleOutcome::Next(_) => bump(&c.rule_next, 1),
                                RuleOutcome::Blocked => bump(&c.rule_blocked, 1),
                                RuleOutcome::Disabled => {}
                            }
                        },
                    )
                })
            })
            .collect();
        let properties = inner
            .properties()
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let model = Arc::clone(&inner);
                let pred = move |s: &M::State| {
                    timed(
                        || match &model.properties()[i] {
                            Property::Invariant { pred, .. } | Property::Reachable { pred, .. } => {
                                pred(s)
                            }
                            Property::EventuallyQuiescent { quiescent, .. } => quiescent(s),
                        },
                        |c, ns, _| {
                            bump(&c.prop_calls, 1);
                            bump(&c.prop_ns, ns);
                        },
                    )
                };
                match p {
                    Property::Invariant { name, .. } => Property::invariant(name.clone(), pred),
                    Property::Reachable { name, .. } => Property::reachable(name.clone(), pred),
                    Property::EventuallyQuiescent { name, .. } => {
                        Property::eventually_quiescent(name.clone(), pred)
                    }
                }
            })
            .collect();
        Traced {
            inner,
            rules,
            properties,
        }
    }
}

impl<M> TransitionSystem for Traced<M>
where
    M: TransitionSystem + 'static,
    M::State: 'static,
{
    type State = M::State;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn initial_states(&self) -> Vec<M::State> {
        self.inner.initial_states()
    }

    fn rules(&self) -> &[Rule<M::State>] {
        &self.rules
    }

    fn canonicalize(&self, state: M::State) -> M::State {
        timed(
            || self.inner.canonicalize(state),
            |c, ns, _| {
                bump(&c.canon_calls, 1);
                bump(&c.canon_ns, ns);
            },
        )
    }

    fn properties(&self) -> &[Property<M::State>] {
        &self.properties
    }
}

/// One coarse span: the workload, one item of it, or one engine call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// What ran (`workload:…`, `item:…`, `try_run`, `run`).
    pub name: String,
    /// Nanoseconds from the log's origin.
    pub start_ns: u64,
    /// Nanoseconds from the log's origin.
    pub end_ns: u64,
}

/// Coarse spans kept in memory and written out once, at exit.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Opens a span and returns its index.
    pub fn open(&mut self, parent: Option<usize>, name: impl Into<String>) -> usize {
        let now = nanos_since(self.origin);
        self.spans.push(Span {
            parent,
            name: name.into(),
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes the span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = nanos_since(self.origin);
    }

    /// Renders the log as JSON lines, one span per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"parent\":{parent},\"name\":{:?},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}
