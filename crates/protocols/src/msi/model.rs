//! The directory-based MSI transition system.
//!
//! [`MsiModel`] implements [`TransitionSystem`] for the protocol of the
//! paper's Figure 3 over an unordered network, with a configurable subset of
//! transient-state rules left as synthesis holes (see
//! [`MsiConfig`] and the named configurations in [`super::skeleton`]).
//!
//! Rule inventory (all parameterized over the symmetric cache array):
//!
//! * **request rules** — a cache in a stable state non-deterministically
//!   issues a read (`GetS`) or write (`GetM`);
//! * **cache delivery rules** — one rule per (cache, message kind,
//!   occurrence rank) consuming a matching message from the network
//!   multiset; occurrence ranks make concurrent same-kind deliveries (e.g.
//!   two invalidation acks from different sharers) individually explorable;
//! * **directory delivery rules** — likewise for the directory; requests
//!   arriving while the directory is busy are *stalled* (left in the
//!   network), which is how the paper's serialization discipline appears in
//!   the model.
//!
//! Unexpected messages, forwards without a tracked owner, and network
//! overflow move the state into a poison configuration whose invariant
//! violation carries the full trace.

use super::actions::{
    CacheResponse, CacheRule, DirResponse, DirRule, DirTrack, CACHE_NEXT_NAMES, DIR_NEXT_NAMES,
};
use super::types::{CacheState, DirState, Msg, MsgKind, MsiState, ProtocolError};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;
use verc3_mck::scalarset::Symmetric;
use verc3_mck::{HoleResolver, HoleSpec, Property, Rule, RuleOutcome, TransitionSystem};

/// Configuration of an [`MsiModel`]: process count, symmetry, and which
/// transient rules are synthesis holes.
#[derive(Debug, Clone)]
pub struct MsiConfig {
    /// Number of caches (2..=6; the paper-scale experiments use 3).
    pub n_caches: usize,
    /// Canonicalize states under cache-index permutations (Ip & Dill).
    pub symmetry: bool,
    /// Bounded network capacity; exceeding it poisons the state. Runaway
    /// candidates are thereby guaranteed a finite (failing) state space.
    pub net_capacity: usize,
    /// Cache-controller transient rules whose actions are holes.
    pub cache_holes: BTreeSet<CacheRule>,
    /// Directory transient rules whose actions are holes.
    pub dir_holes: BTreeSet<DirRule>,
    /// Check the eventually-quiescent liveness property.
    pub liveness: bool,
    /// Check the "all stable states visited" reachability obligations the
    /// paper added to exclude degenerate protocols (§III).
    pub reachability: bool,
    /// Track data values: stores produce fresh values (mod 4), data messages
    /// carry them, and a data-integrity invariant requires every valid copy
    /// to hold the last written value. Enlarges the state space and catches
    /// staleness bugs that message-shape properties miss.
    pub data_values: bool,
}

impl Default for MsiConfig {
    fn default() -> Self {
        MsiConfig {
            n_caches: 3,
            symmetry: true,
            net_capacity: 16,
            cache_holes: BTreeSet::new(),
            dir_holes: BTreeSet::new(),
            liveness: true,
            reachability: true,
            data_values: false,
        }
    }
}

impl MsiConfig {
    /// Number of holes this configuration exposes to the synthesizer
    /// (2 per cache rule, 3 per directory rule).
    pub fn hole_count(&self) -> usize {
        self.cache_holes.len() * 2 + self.dir_holes.len() * 3
    }

    /// Size of the naïve candidate space: the product of the hole arities.
    pub fn candidate_space(&self) -> u128 {
        let cache: u128 = (3u128 * 7).pow(self.cache_holes.len() as u32);
        let dir: u128 = (5u128 * 7 * 3).pow(self.dir_holes.len() as u32);
        cache * dir
    }

    /// The full hole table this configuration induces, as `(name, arity)`
    /// pairs — the same names the model registers during synthesis. Used by
    /// harnesses that need to enumerate or sample candidates without running
    /// discovery (e.g. the naïve-baseline extrapolation for MSI-large).
    pub fn hole_space(&self) -> Vec<(String, usize)> {
        let mut out = Vec::with_capacity(self.hole_count());
        for &rule in &self.cache_holes {
            let stem = rule.stem();
            out.push((format!("{stem}/resp"), 3));
            out.push((format!("{stem}/next"), 7));
        }
        for &rule in &self.dir_holes {
            let stem = rule.stem();
            out.push((format!("{stem}/resp"), 5));
            out.push((format!("{stem}/next"), 7));
            out.push((format!("{stem}/track"), 3));
        }
        out
    }
}

/// Immutable data shared by all rule closures.
struct Core {
    dir_id: u8,
    cap: usize,
    data: bool,
    cache_holes: BTreeSet<CacheRule>,
    dir_holes: BTreeSet<DirRule>,
    cache_specs: BTreeMap<CacheRule, (HoleSpec, HoleSpec)>,
    dir_specs: BTreeMap<DirRule, (HoleSpec, HoleSpec, HoleSpec)>,
}

/// The MSI protocol as an explorable transition system.
///
/// # Examples
///
/// Verify the complete (hole-free) protocol:
///
/// ```
/// use verc3_protocols::msi::{MsiConfig, MsiModel};
/// use verc3_mck::{Checker, CheckerOptions, Verdict};
///
/// let model = MsiModel::new(MsiConfig::default());
/// let outcome = Checker::new(CheckerOptions::default()).run(&model);
/// assert_eq!(outcome.verdict(), Verdict::Success);
/// ```
pub struct MsiModel {
    name: String,
    config: MsiConfig,
    rules: Vec<Rule<MsiState>>,
    properties: Vec<Property<MsiState>>,
}

impl std::fmt::Debug for MsiModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MsiModel")
            .field("config", &self.config)
            .field("rules", &self.rules.len())
            .finish_non_exhaustive()
    }
}

impl MsiModel {
    /// Builds the model for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= n_caches <= 6` (one cache cannot exercise
    /// sharing; more than six explodes both the bitset and the permutation
    /// group for no modelling benefit).
    pub fn new(config: MsiConfig) -> Self {
        let n = config.n_caches;
        assert!((2..=6).contains(&n), "n_caches must be in 2..=6, got {n}");

        let mut cache_specs = BTreeMap::new();
        for &rule in &config.cache_holes {
            cache_specs.insert(rule, cache_hole_specs(rule));
        }
        let mut dir_specs = BTreeMap::new();
        for &rule in &config.dir_holes {
            dir_specs.insert(rule, dir_hole_specs(rule));
        }

        let core = Arc::new(Core {
            dir_id: n as u8,
            cap: config.net_capacity,
            data: config.data_values,
            cache_holes: config.cache_holes.clone(),
            dir_holes: config.dir_holes.clone(),
            cache_specs,
            dir_specs,
        });

        let mut rules: Vec<Rule<MsiState>> = Vec::new();

        // --- Request rules -------------------------------------------------
        for c in 0..n {
            let core_ = Arc::clone(&core);
            rules.push(Rule::new(
                format!("read[{c}]"),
                move |s: &MsiState, _ctx| {
                    if s.error.is_some() || s.caches[c].state != CacheState::I {
                        return RuleOutcome::Disabled;
                    }
                    let mut ns = s.clone();
                    send(
                        &mut ns,
                        msg(MsgKind::GetS, core_.dir_id, c as u8, 0),
                        core_.cap,
                    );
                    ns.caches[c].state = CacheState::IsD;
                    RuleOutcome::Next(ns)
                },
            ));

            let core_ = Arc::clone(&core);
            rules.push(Rule::new(
                format!("write[{c}]"),
                move |s: &MsiState, _ctx| {
                    if s.error.is_some() {
                        return RuleOutcome::Disabled;
                    }
                    let from = s.caches[c].state;
                    if from != CacheState::I && from != CacheState::S {
                        return RuleOutcome::Disabled;
                    }
                    let mut ns = s.clone();
                    send(
                        &mut ns,
                        msg(MsgKind::GetM, core_.dir_id, c as u8, 0),
                        core_.cap,
                    );
                    ns.caches[c].state = if from == CacheState::I {
                        CacheState::ImAd
                    } else {
                        CacheState::SmAd
                    };
                    RuleOutcome::Next(ns)
                },
            ));
        }

        // Repeated stores: a cache already in M may write again, producing a
        // fresh value (value-tracking configurations only; otherwise the
        // rule would be an invisible self-loop).
        if config.data_values {
            for c in 0..n {
                let core_ = Arc::clone(&core);
                rules.push(Rule::new(
                    format!("store[{c}]"),
                    move |s: &MsiState, _ctx| {
                        if s.error.is_some() || s.caches[c].state != CacheState::M {
                            return RuleOutcome::Disabled;
                        }
                        let mut ns = s.clone();
                        let fresh = (ns.last_written + 1) % 4;
                        ns.caches[c].val = fresh;
                        ns.last_written = fresh;
                        let _ = &core_; // shared ownership keeps rule lifetimes uniform
                        RuleOutcome::Next(ns)
                    },
                ));
            }
        }

        // --- Cache delivery rules ------------------------------------------
        let cache_kinds = [
            MsgKind::Data,
            MsgKind::Ack,
            MsgKind::Inv,
            MsgKind::FwdGetS,
            MsgKind::FwdGetM,
        ];
        for c in 0..n {
            for kind in cache_kinds {
                for rank in 0..n {
                    let core_ = Arc::clone(&core);
                    let name = format!("cache[{c}]:recv-{kind:?}#{rank}");
                    rules.push(Rule::new(name, move |s: &MsiState, ctx| {
                        if s.error.is_some() {
                            return RuleOutcome::Disabled;
                        }
                        match find_nth(s, c as u8, kind, rank) {
                            Some(m) => cache_deliver(&core_, s, c, m, ctx),
                            None => RuleOutcome::Disabled,
                        }
                    }));
                }
            }
        }

        // --- Directory delivery rules --------------------------------------
        let dir_kinds = [MsgKind::GetS, MsgKind::GetM, MsgKind::Data, MsgKind::Ack];
        for kind in dir_kinds {
            for rank in 0..n {
                let core_ = Arc::clone(&core);
                let name = format!("dir:recv-{kind:?}#{rank}");
                rules.push(Rule::new(name, move |s: &MsiState, ctx| {
                    if s.error.is_some() {
                        return RuleOutcome::Disabled;
                    }
                    match find_nth(s, core_.dir_id, kind, rank) {
                        Some(m) => dir_deliver(&core_, s, m, ctx),
                        None => RuleOutcome::Disabled,
                    }
                }));
            }
        }

        // --- Properties -----------------------------------------------------
        let mut properties = vec![
            Property::invariant("SWMR (single writer / multiple readers)", |s: &MsiState| {
                s.swmr_holds()
            }),
            Property::invariant("no protocol error", |s: &MsiState| s.error.is_none()),
        ];
        if config.reachability {
            properties.push(Property::reachable(
                "some cache reaches S",
                |s: &MsiState| s.count_cache_state(CacheState::S) > 0,
            ));
            properties.push(Property::reachable(
                "some cache reaches M",
                |s: &MsiState| s.count_cache_state(CacheState::M) > 0,
            ));
            properties.push(Property::reachable(
                "directory reaches S",
                |s: &MsiState| s.dir.state == DirState::S,
            ));
            properties.push(Property::reachable(
                "directory reaches M",
                |s: &MsiState| s.dir.state == DirState::M,
            ));
        }
        if config.liveness {
            properties.push(Property::eventually_quiescent(
                "system can always drain to quiescence",
                |s: &MsiState| s.is_quiescent(),
            ));
        }
        if config.data_values {
            properties.push(Property::invariant(
                "data integrity (valid copies hold the last written value)",
                |s: &MsiState| s.data_integrity_holds(),
            ));
        }

        let holes = config.cache_holes.len() * 2 + config.dir_holes.len() * 3;
        let name = format!(
            "MSI-{n}c{}{}{}",
            if config.data_values { "+data" } else { "" },
            if config.symmetry { "" } else { "-nosym" },
            if holes > 0 {
                format!(" skeleton ({holes} holes)")
            } else {
                String::new()
            },
        );
        MsiModel {
            name,
            config,
            rules,
            properties,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &MsiConfig {
        &self.config
    }
}

impl TransitionSystem for MsiModel {
    type State = MsiState;

    fn name(&self) -> &str {
        &self.name
    }

    fn initial_states(&self) -> Vec<MsiState> {
        vec![MsiState::initial(self.config.n_caches)]
    }

    fn rules(&self) -> &[Rule<MsiState>] {
        &self.rules
    }

    fn canonicalize(&self, state: MsiState) -> MsiState {
        if self.config.symmetry {
            // Dense sweep at paper scale (n ≤ 3), orbit-pruning search
            // beyond — identical representatives either way, so every
            // golden count is independent of the crossover. The spare
            // candidate buffer persists across states per checker thread,
            // so the expand hot loop canonicalizes without allocating.
            thread_local! {
                static SPARE: std::cell::RefCell<Option<MsiState>> =
                    const { std::cell::RefCell::new(None) };
            }
            SPARE.with(|spare| {
                state.canonicalize_auto_with(self.config.n_caches, &mut spare.borrow_mut())
            })
        } else {
            state
        }
    }

    fn properties(&self) -> &[Property<MsiState>] {
        &self.properties
    }
}

// --- Message helpers -------------------------------------------------------

fn msg(kind: MsgKind, to: u8, req: u8, acks: u8) -> Msg {
    Msg {
        kind,
        to,
        req,
        acks,
        val: 0,
    }
}

fn msg_val(kind: MsgKind, to: u8, req: u8, acks: u8, val: u8) -> Msg {
    Msg {
        kind,
        to,
        req,
        acks,
        val,
    }
}

/// Sends a message, poisoning the state on overflow.
fn send(ns: &mut MsiState, m: Msg, cap: usize) {
    if ns.net.len() >= cap {
        poison(ns, ProtocolError::NetworkOverflow);
    } else {
        ns.net.insert(m);
    }
}

fn poison(ns: &mut MsiState, e: ProtocolError) {
    if ns.error.is_none() {
        ns.error = Some(e);
    }
}

/// Finds the `rank`-th message (in canonical network order) addressed to
/// `to` with the given kind.
fn find_nth(s: &MsiState, to: u8, kind: MsgKind, rank: usize) -> Option<Msg> {
    s.net
        .iter()
        .filter(|m| m.to == to && m.kind == kind)
        .nth(rank)
        .copied()
}

// --- Cache controller ------------------------------------------------------

fn cache_hole_specs(rule: CacheRule) -> (HoleSpec, HoleSpec) {
    let stem = rule.stem();
    (
        HoleSpec::new(format!("{stem}/resp"), CacheResponse::NAMES),
        HoleSpec::new(format!("{stem}/next"), CACHE_NEXT_NAMES),
    )
}

fn resolve_cache_actions(
    core: &Core,
    rule: CacheRule,
    ctx: &mut dyn HoleResolver,
) -> Option<(CacheResponse, CacheState)> {
    if core.cache_holes.contains(&rule) {
        let (resp_spec, next_spec) = &core.cache_specs[&rule];
        // Consult every hole of the rule before aborting on a wildcard, so
        // that all of a rule's holes are discovered together — "a sequence
        // of holes (of distinct action types) will make up a full transition
        // rule" (§III).
        let r = ctx.choose(resp_spec);
        let n = ctx.choose(next_spec);
        Some((
            CacheResponse::ALL[r.action()?],
            CacheState::ALL[n.action()?],
        ))
    } else {
        Some(rule.golden())
    }
}

/// Delivers message `m` to cache `c` and applies the matching rule.
fn cache_deliver(
    core: &Core,
    s: &MsiState,
    c: usize,
    m: Msg,
    ctx: &mut dyn HoleResolver,
) -> RuleOutcome<MsiState> {
    use CacheState as Q;
    use MsgKind as K;

    let line = s.caches[c];

    // Transient-state rules go through the (possibly synthesized) action
    // tables; classify the event first, *before* mutating anything, so that
    // a wildcard hole can abort without side effects.
    let transient_rule = match (line.state, m.kind) {
        (Q::IsD, K::Data) => Some(CacheRule::IsDData),
        (Q::ImAd, K::Data) => Some(if line.got >= m.acks {
            CacheRule::ImAdDataComplete
        } else {
            CacheRule::ImAdDataPending
        }),
        (Q::ImAd, K::Ack) => Some(CacheRule::ImAdAck),
        (Q::SmAd, K::Data) => Some(if line.got >= m.acks {
            CacheRule::SmAdDataComplete
        } else {
            CacheRule::SmAdDataPending
        }),
        (Q::SmAd, K::Ack) => Some(CacheRule::SmAdAck),
        (Q::SmAd, K::Inv) => Some(CacheRule::SmAdInv),
        (Q::WmA, K::Ack) => Some(if line.got + 1 >= line.need {
            CacheRule::WmAAckLast
        } else {
            CacheRule::WmAAckNotLast
        }),
        _ => None,
    };

    if let Some(rule) = transient_rule {
        let Some((resp, next)) = resolve_cache_actions(core, rule, ctx) else {
            return RuleOutcome::Blocked;
        };
        let mut ns = consume(s, &m);
        // Event-hardwired counter bookkeeping (not part of the synthesized
        // action libraries): acks are counted, data records the expectation.
        match m.kind {
            K::Ack => ns.caches[c].got += 1,
            K::Data => {
                ns.caches[c].need = m.acks;
                if core.data {
                    ns.caches[c].val = m.val;
                }
            }
            _ => {}
        }
        cache_respond(core, &mut ns, c as u8, &m, resp);
        set_cache_state(core, &mut ns, c, next);
        return RuleOutcome::Next(ns);
    }

    // Stable-state rules are part of the given skeleton (hardwired).
    let mut ns = consume(s, &m);
    match (line.state, m.kind) {
        (Q::S, K::Inv) => {
            send(&mut ns, msg(K::Ack, m.req, c as u8, 0), core.cap);
            set_cache_state(core, &mut ns, c, Q::I);
        }
        (Q::M, K::FwdGetS) => {
            let val = ns.caches[c].val;
            send(&mut ns, msg_val(K::Data, m.req, c as u8, 0, val), core.cap);
            send(
                &mut ns,
                msg_val(K::Data, core.dir_id, c as u8, 0, val),
                core.cap,
            );
            set_cache_state(core, &mut ns, c, Q::S);
        }
        (Q::M, K::FwdGetM) => {
            let val = ns.caches[c].val;
            send(&mut ns, msg_val(K::Data, m.req, c as u8, 0, val), core.cap);
            set_cache_state(core, &mut ns, c, Q::I);
        }
        _ => poison(&mut ns, ProtocolError::UnexpectedMessage),
    }
    RuleOutcome::Next(ns)
}

/// Applies a cache response action; target selection follows the trigger
/// kind as documented on [`CacheResponse`].
fn cache_respond(core: &Core, ns: &mut MsiState, c: u8, trigger: &Msg, resp: CacheResponse) {
    use MsgKind as K;
    match resp {
        CacheResponse::None => {}
        CacheResponse::SendData => match trigger.kind {
            K::Inv | K::FwdGetS | K::FwdGetM => {
                let val = ns.caches[c as usize].val;
                send(ns, msg_val(K::Data, trigger.req, c, 0, val), core.cap);
                if trigger.kind == K::FwdGetS {
                    send(ns, msg_val(K::Data, core.dir_id, c, 0, val), core.cap);
                }
            }
            _ => {
                let val = ns.caches[c as usize].val;
                send(ns, msg_val(K::Data, core.dir_id, c, 0, val), core.cap);
            }
        },
        CacheResponse::SendAck => match trigger.kind {
            K::Inv => send(ns, msg(K::Ack, trigger.req, c, 0), core.cap),
            _ => send(ns, msg(K::Ack, core.dir_id, c, 0), core.cap),
        },
    }
}

fn set_cache_state(core: &Core, ns: &mut MsiState, c: usize, next: CacheState) {
    let entering_m = next == CacheState::M && ns.caches[c].state != CacheState::M;
    ns.caches[c].state = next;
    if next.is_stable() {
        ns.caches[c].reset_counters();
    }
    // With value tracking, completing a write (entering M) performs the
    // store that motivated it: a fresh value, recorded globally so the
    // data-integrity invariant can compare copies against it.
    if core.data && entering_m {
        let fresh = (ns.last_written + 1) % 4;
        ns.caches[c].val = fresh;
        ns.last_written = fresh;
    }
}

fn consume(s: &MsiState, m: &Msg) -> MsiState {
    let mut ns = s.clone();
    let removed = ns.net.remove(m);
    debug_assert!(
        removed.is_some(),
        "delivered message must be in the network"
    );
    ns
}

// --- Directory controller ----------------------------------------------------

fn dir_hole_specs(rule: DirRule) -> (HoleSpec, HoleSpec, HoleSpec) {
    let stem = rule.stem();
    (
        HoleSpec::new(format!("{stem}/resp"), DirResponse::NAMES),
        HoleSpec::new(format!("{stem}/next"), DIR_NEXT_NAMES),
        HoleSpec::new(format!("{stem}/track"), DirTrack::NAMES),
    )
}

fn resolve_dir_actions(
    core: &Core,
    rule: DirRule,
    ctx: &mut dyn HoleResolver,
) -> Option<(DirResponse, DirState, DirTrack)> {
    if core.dir_holes.contains(&rule) {
        let (resp_spec, next_spec, track_spec) = &core.dir_specs[&rule];
        // Consult every hole of the rule before aborting on a wildcard (see
        // `resolve_cache_actions`).
        let r = ctx.choose(resp_spec);
        let n = ctx.choose(next_spec);
        let t = ctx.choose(track_spec);
        Some((
            DirResponse::ALL[r.action()?],
            DirState::ALL[n.action()?],
            DirTrack::ALL[t.action()?],
        ))
    } else {
        Some(rule.golden())
    }
}

/// Delivers message `m` to the directory and applies the matching rule.
fn dir_deliver(
    core: &Core,
    s: &MsiState,
    m: Msg,
    ctx: &mut dyn HoleResolver,
) -> RuleOutcome<MsiState> {
    use DirState as D;
    use MsgKind as K;

    let dir = s.dir;

    // Busy-state rules: the synthesizable transients.
    let transient_rule = match (dir.state, m.kind) {
        (D::IsB, K::Ack) => Some(DirRule::IsBAck),
        (D::ImB, K::Ack) => Some(DirRule::ImBAck),
        (D::SmB, K::Ack) => Some(DirRule::SmBAck),
        (D::MsB, K::Data) => Some(if dir.pending <= 1 {
            DirRule::MsBDataLast
        } else {
            DirRule::MsBDataNotLast
        }),
        (D::MsB, K::Ack) => Some(if dir.pending <= 1 {
            DirRule::MsBAckLast
        } else {
            DirRule::MsBAckNotLast
        }),
        _ => None,
    };

    if let Some(rule) = transient_rule {
        let Some((resp, next, track)) = resolve_dir_actions(core, rule, ctx) else {
            return RuleOutcome::Blocked;
        };
        let mut ns = consume(s, &m);
        if ns.dir.state == D::MsB {
            ns.dir.pending = ns.dir.pending.saturating_sub(1);
        }
        if core.data && m.kind == K::Data {
            // A data message to the directory is the owner's writeback.
            ns.mem = m.val;
        }
        dir_respond(core, &mut ns, &m, resp);
        dir_track(&mut ns, &m, track);
        set_dir_state(&mut ns, next);
        return RuleOutcome::Next(ns);
    }

    // Requests stall while the directory is busy: no rule consumes them, so
    // they wait in the network — the paper's serialization discipline.
    if matches!(m.kind, K::GetS | K::GetM) && !dir.state.is_stable() {
        return RuleOutcome::Disabled;
    }

    // Stable-state rules are part of the given skeleton (hardwired).
    let mut ns = consume(s, &m);
    match (dir.state, m.kind) {
        (D::I, K::GetS) | (D::S, K::GetS) => {
            let mem = ns.mem;
            send(&mut ns, msg_val(K::Data, m.req, m.req, 0, mem), core.cap);
            ns.dir.add_sharer(m.req);
            set_dir_state(&mut ns, D::IsB);
        }
        (D::I, K::GetM) => {
            let mem = ns.mem;
            send(&mut ns, msg_val(K::Data, m.req, m.req, 0, mem), core.cap);
            ns.dir.owner = Some(m.req);
            ns.dir.sharers = 0;
            set_dir_state(&mut ns, D::ImB);
        }
        (D::S, K::GetM) => {
            let acks = ns.dir.sharers_except(m.req) as u8;
            let mem = ns.mem;
            send(&mut ns, msg_val(K::Data, m.req, m.req, acks, mem), core.cap);
            let sharers: Vec<u8> = ns.dir.sharer_ids_except(m.req).collect();
            for sh in sharers {
                send(&mut ns, msg(K::Inv, sh, m.req, 0), core.cap);
            }
            ns.dir.owner = Some(m.req);
            ns.dir.sharers = 0;
            set_dir_state(&mut ns, D::SmB);
        }
        (D::M, K::GetS) => match ns.dir.owner {
            Some(owner) => {
                send(&mut ns, msg(K::FwdGetS, owner, m.req, 0), core.cap);
                ns.dir.add_sharer(m.req);
                ns.dir.owner = None;
                set_dir_state(&mut ns, D::MsB);
            }
            None => poison(&mut ns, ProtocolError::NoOwner),
        },
        (D::M, K::GetM) => match ns.dir.owner {
            Some(owner) => {
                send(&mut ns, msg(K::FwdGetM, owner, m.req, 0), core.cap);
                ns.dir.owner = Some(m.req);
                set_dir_state(&mut ns, D::ImB);
            }
            None => poison(&mut ns, ProtocolError::NoOwner),
        },
        _ => poison(&mut ns, ProtocolError::UnexpectedMessage),
    }
    RuleOutcome::Next(ns)
}

/// Applies a directory response action; `trigger.req` is the requester (or
/// sender) the response concerns.
fn dir_respond(core: &Core, ns: &mut MsiState, trigger: &Msg, resp: DirResponse) {
    use MsgKind as K;
    match resp {
        DirResponse::None => {}
        DirResponse::SendData => {
            let mem = ns.mem;
            send(
                ns,
                msg_val(K::Data, trigger.req, trigger.req, 0, mem),
                core.cap,
            );
        }
        DirResponse::SendDataInvs => {
            let acks = ns.dir.sharers_except(trigger.req) as u8;
            let mem = ns.mem;
            send(
                ns,
                msg_val(K::Data, trigger.req, trigger.req, acks, mem),
                core.cap,
            );
            let sharers: Vec<u8> = ns.dir.sharer_ids_except(trigger.req).collect();
            for sh in sharers {
                send(ns, msg(K::Inv, sh, trigger.req, 0), core.cap);
            }
        }
        DirResponse::FwdGetS | DirResponse::FwdGetM => match ns.dir.owner {
            Some(owner) => {
                let kind = if resp == DirResponse::FwdGetS {
                    K::FwdGetS
                } else {
                    K::FwdGetM
                };
                send(ns, msg(kind, owner, trigger.req, 0), core.cap);
            }
            None => poison(ns, ProtocolError::NoOwner),
        },
    }
}

fn dir_track(ns: &mut MsiState, trigger: &Msg, track: DirTrack) {
    match track {
        DirTrack::None => {}
        DirTrack::SetOwner => {
            ns.dir.owner = Some(trigger.req);
            ns.dir.sharers = 0;
        }
        DirTrack::AddSharer => ns.dir.add_sharer(trigger.req),
    }
}

fn set_dir_state(ns: &mut MsiState, next: DirState) {
    if next == DirState::MsB && ns.dir.state != DirState::MsB {
        // A fresh MS_B transaction waits for two messages: the owner's
        // writeback and the requester's completion ack.
        ns.dir.pending = 2;
    }
    if next.is_stable() {
        ns.dir.pending = 0;
    }
    ns.dir.state = next;
}

#[cfg(test)]
mod tests {
    use super::*;
    use verc3_mck::{Checker, CheckerOptions, Verdict};

    fn check(config: MsiConfig) -> verc3_mck::Outcome<MsiState> {
        Checker::new(CheckerOptions::default()).run(&MsiModel::new(config))
    }

    #[test]
    fn golden_protocol_verifies() {
        let out = check(MsiConfig::default());
        assert_eq!(
            out.verdict(),
            Verdict::Success,
            "golden MSI must verify: {:?}",
            out.failure().map(|f| f.to_string())
        );
        assert!(
            out.stats().states_visited > 100,
            "state space is non-trivial"
        );
    }

    #[test]
    fn golden_two_caches_verifies() {
        let out = check(MsiConfig {
            n_caches: 2,
            ..MsiConfig::default()
        });
        assert_eq!(out.verdict(), Verdict::Success);
    }

    #[test]
    fn golden_with_data_values_verifies() {
        let out = check(MsiConfig {
            data_values: true,
            ..MsiConfig::default()
        });
        assert_eq!(
            out.verdict(),
            Verdict::Success,
            "data integrity must hold in the golden protocol: {:?}",
            out.failure().map(|f| f.to_string())
        );
        let plain = check(MsiConfig::default());
        assert!(
            out.stats().states_visited > 3 * plain.stats().states_visited,
            "value tracking must enlarge the state space: {} vs {}",
            out.stats().states_visited,
            plain.stats().states_visited
        );
    }

    #[test]
    fn data_integrity_catches_stale_directory_data() {
        // Synthesize dir/SM_B+Ack with value tracking on: the response
        // action `send_data` would hand later requesters the *stale* memory
        // value (the new owner's store never reached memory). Verify the
        // checker rejects that candidate for a data-related reason.
        use verc3_mck::FixedResolver;
        let mut cfg = MsiConfig::msi_small();
        cfg.data_values = true;
        let model = MsiModel::new(cfg);
        let r = FixedResolver::from_pairs([
            ("cache/SM_AD+Inv/resp", 2usize), // golden
            ("cache/SM_AD+Inv/next", 4),      // golden
            ("dir/IS_B+Ack/resp", 0),
            ("dir/IS_B+Ack/next", 1),
            ("dir/IS_B+Ack/track", 0),
            ("dir/SM_B+Ack/resp", 1), // send_data: stale memory to the requester
            ("dir/SM_B+Ack/next", 2),
            ("dir/SM_B+Ack/track", 0),
        ]);
        let out = Checker::new(CheckerOptions::default()).run_with(&model, &r);
        assert_eq!(out.verdict(), Verdict::Failure);
    }

    #[test]
    fn symmetry_reduces_state_count() {
        let sym = check(MsiConfig::default());
        let raw = check(MsiConfig {
            symmetry: false,
            ..MsiConfig::default()
        });
        assert_eq!(raw.verdict(), Verdict::Success);
        assert!(
            sym.stats().states_visited < raw.stats().states_visited,
            "symmetry must shrink the space: {} vs {}",
            sym.stats().states_visited,
            raw.stats().states_visited
        );
    }

    #[test]
    fn hole_count_and_space() {
        let mut cfg = MsiConfig::default();
        cfg.dir_holes.insert(DirRule::IsBAck);
        cfg.cache_holes.insert(CacheRule::SmAdInv);
        assert_eq!(cfg.hole_count(), 5);
        assert_eq!(cfg.candidate_space(), 21 * 105);
    }

    #[test]
    #[should_panic(expected = "n_caches")]
    fn single_cache_rejected() {
        let _ = MsiModel::new(MsiConfig {
            n_caches: 1,
            ..MsiConfig::default()
        });
    }
}
