//! Synthetic transition systems defined by explicit state graphs.
//!
//! The paper explains its synthesis procedure on an abstract state graph
//! whose edges are annotated with `hole@action` pairs (Figure 2). This
//! module provides exactly that: a [`GraphModel`] is a set of nodes and
//! labelled edges, where an edge may be *concrete* (always available) or
//! guarded by a `(hole, action)` pair — the edge can only be taken by a
//! candidate that assigns that action to that hole.
//!
//! Graph models serve three purposes in this repository:
//!
//! * [`GraphModel::worked_example`] reproduces the paper's Figure 2 exactly
//!   (asserted in the integration tests and regenerated by the `fig2` bench
//!   harness);
//! * randomized graph models ([`GraphModel::random`]) drive the
//!   property-based tests that check the pruning synthesizer against naïve
//!   enumeration — on thousands of random instances both must find the same
//!   solution set;
//! * parameterized families provide cheap, protocol-independent workloads
//!   for the Criterion benches.

use crate::eval::{Choice, HoleSpec};
use crate::hashers::FnvHashSet;
use crate::model::TransitionSystem;
use crate::properties::Property;
use crate::rule::{Rule, RuleOutcome};

/// Identifier of a node in a [`GraphModel`].
pub type NodeId = u32;

/// Builder for [`GraphModel`].
///
/// # Examples
///
/// A two-node model with one synthesizable choice:
///
/// ```
/// use verc3_mck::{GraphModelBuilder, Checker, CheckerOptions, Verdict, FixedResolver, Choice};
///
/// let mut b = GraphModelBuilder::new("tiny");
/// let h = b.hole("direction", ["good", "bad"]);
/// b.edge_hole(0, 1, h, 0); // action "good" leads to node 1
/// b.edge_hole(0, 2, h, 1); // action "bad" leads to node 2
/// b.error_node(2);
/// let model = b.finish();
///
/// let pick_good = FixedResolver::from_pairs([("direction", 0usize)]);
/// let out = Checker::new(CheckerOptions::default().allow_deadlock())
///     .run_with(&model, &pick_good);
/// assert_eq!(out.verdict(), Verdict::Success);
/// ```
#[derive(Debug)]
pub struct GraphModelBuilder {
    name: String,
    holes: Vec<HoleSpec>,
    edges: Vec<GraphEdge>,
    initial: Vec<NodeId>,
    error_nodes: FnvHashSet<NodeId>,
}

#[derive(Debug, Clone)]
struct GraphEdge {
    from: NodeId,
    to: NodeId,
    guard: Option<(usize, usize)>, // (hole index, required action)
}

impl GraphModelBuilder {
    /// Starts a new graph model; node `0` is the initial state by default.
    pub fn new(name: impl Into<String>) -> Self {
        GraphModelBuilder {
            name: name.into(),
            holes: Vec::new(),
            edges: Vec::new(),
            initial: vec![0],
            error_nodes: FnvHashSet::default(),
        }
    }

    /// Declares a hole with the given action library; returns its index.
    pub fn hole<I, A>(&mut self, name: impl Into<String>, actions: I) -> usize
    where
        I: IntoIterator<Item = A>,
        A: Into<String>,
    {
        self.holes.push(HoleSpec::new(name, actions));
        self.holes.len() - 1
    }

    /// Adds an unconditional edge.
    pub fn edge(&mut self, from: NodeId, to: NodeId) -> &mut Self {
        self.edges.push(GraphEdge {
            from,
            to,
            guard: None,
        });
        self
    }

    /// Adds an edge taken only when `hole` is assigned `action`.
    ///
    /// # Panics
    ///
    /// Panics if `hole` was not declared or `action` is out of range for it.
    pub fn edge_hole(&mut self, from: NodeId, to: NodeId, hole: usize, action: usize) -> &mut Self {
        assert!(hole < self.holes.len(), "undeclared hole index {hole}");
        assert!(
            action < self.holes[hole].arity(),
            "action {action} out of range for hole `{}`",
            self.holes[hole].name()
        );
        self.edges.push(GraphEdge {
            from,
            to,
            guard: Some((hole, action)),
        });
        self
    }

    /// Marks a node as an error state (the safety invariant is "never visit
    /// an error node").
    pub fn error_node(&mut self, node: NodeId) -> &mut Self {
        self.error_nodes.insert(node);
        self
    }

    /// Marks a node as an accepting terminal: adds a stutter self-loop so
    /// that resting there is not reported as a deadlock.
    pub fn terminal_node(&mut self, node: NodeId) -> &mut Self {
        self.edge(node, node)
    }

    /// Replaces the default initial node `0`.
    pub fn initial(&mut self, node: NodeId) -> &mut Self {
        self.initial = vec![node];
        self
    }

    /// Finishes construction.
    pub fn finish(self) -> GraphModel {
        let GraphModelBuilder {
            name,
            holes,
            edges,
            initial,
            error_nodes,
        } = self;

        // One rule per edge, in insertion order: hole discovery order during
        // BFS therefore follows edge declaration order, which is what lets
        // tests script exact discovery sequences (as in Figure 2).
        let mut rules: Vec<Rule<NodeId>> = Vec::with_capacity(edges.len());
        for (i, e) in edges.iter().enumerate() {
            let GraphEdge { from, to, guard } = *e;
            match guard {
                None => {
                    rules.push(Rule::new(format!("e{i}:{from}->{to}"), move |&s, _ctx| {
                        if s == from {
                            RuleOutcome::Next(to)
                        } else {
                            RuleOutcome::Disabled
                        }
                    }));
                }
                Some((hole, action)) => {
                    let spec = holes[hole].clone();
                    let rule_name = format!(
                        "e{i}:{from}->{to} [{}@{}]",
                        spec.name(),
                        spec.action_name(action)
                    );
                    rules.push(Rule::new(rule_name, move |&s, ctx| {
                        if s != from {
                            return RuleOutcome::Disabled;
                        }
                        match ctx.choose(&spec) {
                            Choice::Action(a) if a == action => RuleOutcome::Next(to),
                            Choice::Action(_) => RuleOutcome::Disabled,
                            Choice::Wildcard => RuleOutcome::Blocked,
                        }
                    }));
                }
            }
        }

        let errors = error_nodes.clone();
        let properties = vec![Property::invariant("no error state", move |s: &NodeId| {
            !errors.contains(s)
        })];

        GraphModel {
            name,
            holes,
            rules,
            initial,
            properties,
        }
    }
}

/// A transition system given by an explicit, hole-annotated state graph.
///
/// Construct with [`GraphModelBuilder`]; see the module docs for intended
/// uses.
#[derive(Debug)]
pub struct GraphModel {
    name: String,
    holes: Vec<HoleSpec>,
    rules: Vec<Rule<NodeId>>,
    initial: Vec<NodeId>,
    properties: Vec<Property<NodeId>>,
}

impl GraphModel {
    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared holes, in declaration order.
    pub fn holes(&self) -> &[HoleSpec] {
        &self.holes
    }

    /// The exact worked example of the paper's Figure 2.
    ///
    /// Four holes: hole `1` with actions `[A, B, C]`, holes `2`–`4` with
    /// actions `[A, B]` (24 complete candidates). The graph is arranged so
    /// that, with candidate pruning enabled, synthesis evaluates exactly the
    /// paper's 10 runs, records its 5 pruning patterns, and finds the single
    /// solution `⟨1@B, 2@A, 3@B, 4@B⟩`.
    pub fn worked_example() -> GraphModel {
        // Nodes: 0 = start, 1..=3 = progress chain, 4 = OK (terminal),
        // 5 = ERR.
        const OK: NodeId = 4;
        const ERR: NodeId = 5;
        let mut b = GraphModelBuilder::new("fig2");
        let h1 = b.hole("1", ["A", "B", "C"]);
        let h2 = b.hole("2", ["A", "B"]);
        let h3 = b.hole("3", ["A", "B"]);
        let h4 = b.hole("4", ["A", "B"]);
        b.edge_hole(0, ERR, h1, 0); // 1@A fails immediately
        b.edge_hole(0, 1, h1, 1); //   1@B progresses
        b.edge_hole(0, ERR, h1, 2); // 1@C fails (without touching hole 2)
        b.edge_hole(1, 2, h2, 0); //   2@A progresses
        b.edge_hole(1, ERR, h2, 1); // 2@B fails
        b.edge_hole(2, ERR, h3, 0); // 3@A fails
        b.edge_hole(2, 3, h3, 1); //   3@B progresses
        b.edge_hole(3, ERR, h4, 0); // 4@A fails
        b.edge_hole(3, OK, h4, 1); //  4@B completes the protocol
        b.error_node(ERR);
        b.terminal_node(OK);
        b.finish()
    }

    /// Deterministic pseudo-random layered graph model for property tests
    /// and benches.
    ///
    /// Layer `i` (for `i` in `0..n_holes`) holds one hole with between 2 and
    /// `max_actions` actions; each action leads to the next layer, to the
    /// error node, to an OK terminal, or skips a layer (so that failure
    /// traces need not touch every hole — the situation the paper's pruning
    /// exploits). The same `seed` always produces the same model.
    ///
    /// # Panics
    ///
    /// Panics if `n_holes == 0` or `max_actions < 2`.
    pub fn random(seed: u64, n_holes: usize, max_actions: usize) -> GraphModel {
        assert!(n_holes > 0, "need at least one hole");
        assert!(
            max_actions >= 2,
            "holes need at least two actions to be interesting"
        );
        let mut rng = SplitMix64::new(seed);

        // Node layout: layer nodes 0..n_holes, OK = n_holes, ERR = n_holes+1.
        let ok: NodeId = n_holes as NodeId;
        let err: NodeId = n_holes as NodeId + 1;

        let mut b = GraphModelBuilder::new(format!("random-{seed}"));
        let action_names = ["A", "B", "C", "D", "E", "F", "G", "H"];
        for i in 0..n_holes {
            let arity = 2 + (rng.next() as usize) % (max_actions - 1);
            let h = b.hole(format!("{}", i + 1), action_names[..arity].iter().copied());
            for a in 0..arity {
                let from = i as NodeId;
                let to = match rng.next() % 10 {
                    0..=4 => {
                        // advance one layer (or finish)
                        if i + 1 < n_holes {
                            (i + 1) as NodeId
                        } else {
                            ok
                        }
                    }
                    5..=7 => err,
                    8 => ok,
                    _ => {
                        // skip a layer: failure traces beyond here do not
                        // touch the skipped hole
                        if i + 2 < n_holes {
                            (i + 2) as NodeId
                        } else {
                            ok
                        }
                    }
                };
                b.edge_hole(from, to, h, a);
            }
        }
        b.error_node(err);
        b.terminal_node(ok);
        b.finish()
    }

    /// The product of all hole arities: the size of the complete candidate
    /// space a naïve enumeration must cover.
    pub fn candidate_space(&self) -> u64 {
        self.holes.iter().map(|h| h.arity() as u64).product()
    }
}

impl TransitionSystem for GraphModel {
    type State = NodeId;

    fn name(&self) -> &str {
        &self.name
    }

    fn initial_states(&self) -> Vec<NodeId> {
        self.initial.clone()
    }

    fn rules(&self) -> &[Rule<NodeId>] {
        &self.rules
    }

    fn properties(&self) -> &[Property<NodeId>] {
        &self.properties
    }
}

/// Minimal deterministic PRNG (splitmix64) so the library itself does not
/// depend on `rand`; quality is ample for generating test topologies.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{Checker, CheckerOptions, FailureKind, Verdict};
    use crate::eval::FixedResolver;

    fn check(model: &GraphModel, assignments: &[(&str, usize)]) -> Verdict {
        let r = FixedResolver::from_pairs(assignments.iter().map(|&(n, i)| (n, i)));
        Checker::new(CheckerOptions::default().allow_deadlock())
            .run_with(model, &r)
            .verdict()
    }

    #[test]
    fn worked_example_solution_verifies() {
        let m = GraphModel::worked_example();
        assert_eq!(m.candidate_space(), 24);
        let v = check(&m, &[("1", 1), ("2", 0), ("3", 1), ("4", 1)]);
        assert_eq!(v, Verdict::Success);
    }

    #[test]
    fn worked_example_failures_fail() {
        let m = GraphModel::worked_example();
        // 1@A fails regardless of the others.
        assert_eq!(
            check(&m, &[("1", 0), ("2", 0), ("3", 0), ("4", 0)]),
            Verdict::Failure
        );
        // 1@C fails regardless of the others.
        assert_eq!(
            check(&m, &[("1", 2), ("2", 1), ("3", 1), ("4", 1)]),
            Verdict::Failure
        );
        // 4@A is the last-step failure.
        assert_eq!(
            check(&m, &[("1", 1), ("2", 0), ("3", 1), ("4", 0)]),
            Verdict::Failure
        );
    }

    #[test]
    fn worked_example_exactly_one_solution() {
        let m = GraphModel::worked_example();
        let arities = [3, 2, 2, 2];
        let mut solutions = 0;
        for c in 0..24u32 {
            let mut idx = c;
            let mut assignment = Vec::new();
            for (h, &ar) in arities.iter().enumerate() {
                assignment.push(((h + 1).to_string(), (idx % ar) as usize));
                idx /= ar;
            }
            let r = FixedResolver::from_pairs(assignment.iter().map(|(n, i)| (n.clone(), *i)));
            let out = Checker::new(CheckerOptions::default().allow_deadlock()).run_with(&m, &r);
            if out.verdict() == Verdict::Success {
                solutions += 1;
            }
        }
        assert_eq!(solutions, 1, "figure 2 has a unique solution");
    }

    #[test]
    fn wildcard_on_first_hole_is_unknown() {
        let m = GraphModel::worked_example();
        let r = FixedResolver::new(); // all wildcard
        let out = Checker::new(CheckerOptions::default().allow_deadlock()).run_with(&m, &r);
        assert_eq!(out.verdict(), Verdict::Unknown);
        // Only the initial node is reachable; all three hole-1 edges blocked.
        assert_eq!(out.stats().states_visited, 1);
        assert_eq!(out.stats().wildcard_hits, 3);
    }

    #[test]
    fn error_nodes_violate_invariant() {
        let mut b = GraphModelBuilder::new("err");
        b.edge(0, 1);
        b.error_node(1);
        let m = b.finish();
        let out = Checker::new(CheckerOptions::default().allow_deadlock()).run(&m);
        assert_eq!(out.verdict(), Verdict::Failure);
        assert_eq!(out.failure().unwrap().kind, FailureKind::InvariantViolation);
    }

    #[test]
    fn random_models_are_deterministic() {
        let a = GraphModel::random(42, 5, 3);
        let b = GraphModel::random(42, 5, 3);
        assert_eq!(a.candidate_space(), b.candidate_space());
        assert_eq!(a.holes().len(), b.holes().len());
        let c = GraphModel::random(43, 5, 3);
        // Different seeds usually give different spaces; just ensure both run.
        assert!(c.candidate_space() >= 2u64.pow(5));
    }

    #[test]
    #[should_panic(expected = "undeclared hole")]
    fn edge_hole_validates_hole() {
        let mut b = GraphModelBuilder::new("bad");
        b.edge_hole(0, 1, 0, 0);
    }
}
