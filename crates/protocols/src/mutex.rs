//! Peterson-style mutual exclusion with synthesizable turn logic.
//!
//! Demonstrates that the VerC3 framework is not coherence-specific: any
//! guarded-command concurrent system with a finite action library fits. Here
//! two processes run Peterson's algorithm with two holes:
//!
//! * on requesting the critical section, which process the `turn` variable
//!   is handed to (`me` or `other`);
//! * in the entry guard, whose turn permits entry (`turn == me` or
//!   `turn == other`).
//!
//! Of the four candidates, exactly two satisfy mutual exclusion and the
//! liveness obligations: Peterson's classic fill — hand the turn to the
//! *other* process, enter when the turn is *mine* — and its mirror image
//! (`turn := me`, enter when the turn is the *other's*), which merely flips
//! the encoding of the turn variable. The two remaining candidates agree on
//! the write and the read of `turn`, let both processes consider themselves
//! favoured simultaneously, and violate mutual exclusion — which the checker
//! reports with a concrete interleaving.

use std::sync::Arc;
use verc3_mck::{HoleSpec, Property, Rule, RuleOutcome, TransitionSystem};

/// Program counter of one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pc {
    /// Not competing.
    Idle,
    /// Flag raised, turn surrendered; waiting at the gate.
    Waiting,
    /// Inside the critical section.
    Critical,
}

/// Global state of the two-process mutex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MutexState {
    /// Program counters.
    pub pc: [Pc; 2],
    /// Intent flags.
    pub flag: [bool; 2],
    /// Whose turn it is to defer.
    pub turn: u8,
}

impl MutexState {
    /// Both processes idle, no intent, turn at process 0.
    pub fn initial() -> Self {
        MutexState {
            pc: [Pc::Idle, Pc::Idle],
            flag: [false, false],
            turn: 0,
        }
    }

    /// Mutual exclusion: both processes in the critical section is an error.
    pub fn mutual_exclusion(&self) -> bool {
        !(self.pc[0] == Pc::Critical && self.pc[1] == Pc::Critical)
    }
}

/// Configuration: which parts of the algorithm are holes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MutexConfig {
    /// Synthesize the `turn :=` assignment in the request step.
    pub synth_turn: bool,
    /// Synthesize the turn comparison in the entry guard.
    pub synth_guard: bool,
}

impl MutexConfig {
    /// The complete, correct algorithm (verification only).
    pub fn golden() -> Self {
        MutexConfig::default()
    }

    /// Both holes open: 4 candidates, 2 (isomorphic) solutions.
    pub fn synth_both() -> Self {
        MutexConfig {
            synth_turn: true,
            synth_guard: true,
        }
    }
}

struct MutexCore {
    config: MutexConfig,
    turn_spec: HoleSpec,
    guard_spec: HoleSpec,
}

/// Peterson's algorithm as a transition system.
///
/// # Examples
///
/// ```
/// use verc3_protocols::mutex::{MutexConfig, MutexModel};
/// use verc3_core::{SynthOptions, Synthesizer};
///
/// let model = MutexModel::new(MutexConfig::synth_both());
/// let report = Synthesizer::new(SynthOptions::default()).run(&model);
/// // Peterson's fill and its turn-encoding mirror image.
/// assert_eq!(report.solutions().len(), 2);
/// ```
pub struct MutexModel {
    name: String,
    config: MutexConfig,
    rules: Vec<Rule<MutexState>>,
    properties: Vec<Property<MutexState>>,
}

impl std::fmt::Debug for MutexModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutexModel")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl MutexModel {
    /// Builds the model.
    pub fn new(config: MutexConfig) -> Self {
        let core = Arc::new(MutexCore {
            config,
            turn_spec: HoleSpec::new("mutex/request/turn", ["me", "other"]),
            guard_spec: HoleSpec::new("mutex/enter/wait-for", ["me", "other"]),
        });

        let mut rules: Vec<Rule<MutexState>> = Vec::new();
        for p in 0..2usize {
            let other = 1 - p;

            // request: raise the flag and surrender (or grab) the turn.
            let core_ = Arc::clone(&core);
            rules.push(Rule::new(
                format!("request[{p}]"),
                move |s: &MutexState, ctx| {
                    if s.pc[p] != Pc::Idle {
                        return RuleOutcome::Disabled;
                    }
                    let give_to_other = if core_.config.synth_turn {
                        match ctx.choose(&core_.turn_spec).action() {
                            Some(a) => a == 1,
                            None => return RuleOutcome::Blocked,
                        }
                    } else {
                        true // golden: turn := other
                    };
                    let mut ns = *s;
                    ns.flag[p] = true;
                    ns.turn = if give_to_other { other as u8 } else { p as u8 };
                    ns.pc[p] = Pc::Waiting;
                    RuleOutcome::Next(ns)
                },
            ));

            // enter: pass the gate when the other is not competing or the
            // turn comparison favours us.
            let core_ = Arc::clone(&core);
            rules.push(Rule::new(
                format!("enter[{p}]"),
                move |s: &MutexState, ctx| {
                    if s.pc[p] != Pc::Waiting {
                        return RuleOutcome::Disabled;
                    }
                    let wait_for_me = if core_.config.synth_guard {
                        match ctx.choose(&core_.guard_spec).action() {
                            Some(a) => a == 0,
                            None => return RuleOutcome::Blocked,
                        }
                    } else {
                        true // golden: enter when turn == me
                    };
                    let favoured = if wait_for_me { p as u8 } else { other as u8 };
                    if !s.flag[other] || s.turn == favoured {
                        let mut ns = *s;
                        ns.pc[p] = Pc::Critical;
                        RuleOutcome::Next(ns)
                    } else {
                        RuleOutcome::Disabled
                    }
                },
            ));

            // exit: leave the critical section and lower the flag.
            rules.push(Rule::new(
                format!("exit[{p}]"),
                move |s: &MutexState, _ctx| {
                    if s.pc[p] != Pc::Critical {
                        return RuleOutcome::Disabled;
                    }
                    let mut ns = *s;
                    ns.pc[p] = Pc::Idle;
                    ns.flag[p] = false;
                    RuleOutcome::Next(ns)
                },
            ));
        }

        let properties = vec![
            Property::invariant("mutual exclusion", MutexState::mutual_exclusion),
            Property::reachable("process 0 enters the critical section", |s: &MutexState| {
                s.pc[0] == Pc::Critical
            }),
            Property::reachable("process 1 enters the critical section", |s: &MutexState| {
                s.pc[1] == Pc::Critical
            }),
            Property::eventually_quiescent("both can return to idle", |s: &MutexState| {
                s.pc == [Pc::Idle, Pc::Idle]
            }),
        ];

        let name = match (config.synth_turn, config.synth_guard) {
            (false, false) => "peterson-mutex".to_owned(),
            _ => "peterson-mutex skeleton".to_owned(),
        };
        MutexModel {
            name,
            config,
            rules,
            properties,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &MutexConfig {
        &self.config
    }
}

impl TransitionSystem for MutexModel {
    type State = MutexState;

    fn name(&self) -> &str {
        &self.name
    }

    fn initial_states(&self) -> Vec<MutexState> {
        vec![MutexState::initial()]
    }

    fn rules(&self) -> &[Rule<MutexState>] {
        &self.rules
    }

    fn properties(&self) -> &[Property<MutexState>] {
        &self.properties
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verc3_core::{SynthOptions, Synthesizer};
    use verc3_mck::{Checker, CheckerOptions, FailureKind, FixedResolver, Verdict};

    #[test]
    fn golden_peterson_verifies() {
        let model = MutexModel::new(MutexConfig::golden());
        let out = Checker::new(CheckerOptions::default()).run(&model);
        assert_eq!(
            out.verdict(),
            Verdict::Success,
            "golden Peterson must verify: {:?}",
            out.failure().map(|f| f.to_string())
        );
    }

    #[test]
    fn synthesis_finds_peterson_and_its_mirror() {
        let model = MutexModel::new(MutexConfig::synth_both());
        let report = Synthesizer::new(SynthOptions::default()).run(&model);
        assert_eq!(report.naive_candidate_space(), 4);
        let mut named: Vec<String> = report
            .solutions()
            .iter()
            .map(|s| s.display_named(report.holes()))
            .collect();
        named.sort();
        assert_eq!(
            named,
            vec![
                // The mirror image: flipped turn encoding, same behaviour.
                "⟨ mutex/request/turn@me, mutex/enter/wait-for@other ⟩",
                // Peterson's classic assignment.
                "⟨ mutex/request/turn@other, mutex/enter/wait-for@me ⟩",
            ]
        );
    }

    #[test]
    fn selfish_turn_assignment_breaks_mutual_exclusion() {
        // turn := me on request; wait until turn == me at the gate. After
        // P0 enters (turn = 0), P1's request rewrites turn to 1 and P1
        // sails straight through the gate: both end up critical.
        let model = MutexModel::new(MutexConfig::synth_both());
        let r = FixedResolver::from_pairs([
            ("mutex/request/turn", 0usize),
            ("mutex/enter/wait-for", 0usize),
        ]);
        let out = Checker::new(CheckerOptions::default()).run_with(&model, &r);
        assert_eq!(out.verdict(), Verdict::Failure);
        let failure = out.failure().unwrap();
        assert_eq!(failure.kind, FailureKind::InvariantViolation);
        assert_eq!(failure.property, "mutual exclusion");
        // The counterexample is a concrete interleaving ending with both
        // processes critical.
        let last = &failure.trace.as_ref().unwrap().last_state();
        assert_eq!(last.pc, [Pc::Critical, Pc::Critical]);
    }

    #[test]
    fn inverted_guard_breaks_mutual_exclusion() {
        // turn := other on request (correct), but enter when turn == OTHER:
        // both processes pass the gate together.
        let model = MutexModel::new(MutexConfig::synth_both());
        let r = FixedResolver::from_pairs([
            ("mutex/request/turn", 1usize),
            ("mutex/enter/wait-for", 1usize),
        ]);
        let out = Checker::new(CheckerOptions::default()).run_with(&model, &r);
        assert_eq!(out.verdict(), Verdict::Failure);
        let failure = out.failure().unwrap();
        assert_eq!(failure.kind, FailureKind::InvariantViolation);
        assert_eq!(failure.property, "mutual exclusion");
    }
}
