//! The explored state graph: retained exploration results.
//!
//! When [`super::CheckerOptions::keep_graph`] is enabled, the checker returns
//! the full explored graph alongside the verdict. The graph supports:
//!
//! * **liveness analysis** — reverse reachability for the
//!   eventually-quiescent property (`AG EF q`);
//! * **diagnostics** — Graphviz DOT export of the (small) state spaces used
//!   in papers and teaching;
//! * **solution fingerprinting** — the synthesis report groups equivalent
//!   solutions by explored-space shape, as the paper does when it observes
//!   that its 12 MSI-large solutions "group into 3 sets" by visited-state
//!   count (§III).

use std::fmt::Debug;
use std::fmt::Write as _;

/// Dense identifier of an explored state.
pub type StateId = u32;

/// An edge of the explored graph: `(rule index, target state)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Index into the model's rule table of the rule that fired.
    pub rule: u32,
    /// The successor state's identifier.
    pub target: StateId,
}

/// The state graph retained from one exploration.
#[derive(Debug, Clone)]
pub struct ExploredGraph<S> {
    pub(crate) states: Vec<S>,
    pub(crate) depth: Vec<u32>,
    pub(crate) edges: Vec<Vec<Edge>>,
    pub(crate) rule_names: Vec<String>,
}

impl<S: Debug> ExploredGraph<S> {
    /// Number of explored states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` if the graph holds no states (never produced by the checker,
    /// but required for a well-behaved collection API).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state with the given identifier.
    pub fn state(&self, id: StateId) -> &S {
        &self.states[id as usize]
    }

    /// BFS depth (distance from the nearest initial state) of a state.
    pub fn depth(&self, id: StateId) -> u32 {
        self.depth[id as usize]
    }

    /// Outgoing edges of a state.
    pub fn edges(&self, id: StateId) -> &[Edge] {
        &self.edges[id as usize]
    }

    /// Iterates over all state identifiers.
    pub fn ids(&self) -> impl Iterator<Item = StateId> + '_ {
        0..self.states.len() as StateId
    }

    /// Iterates over the states in discovery (BFS) order.
    pub fn iter(&self) -> std::slice::Iter<'_, S> {
        self.states.iter()
    }

    /// Computes the set of states from which a state satisfying `pred` is
    /// reachable (including states satisfying `pred` themselves).
    ///
    /// This is a reverse-reachability (backward closure) computation; the
    /// eventually-quiescent liveness check calls it with the quiescence
    /// predicate and reports any state *outside* the returned set.
    pub fn can_reach<F: Fn(&S) -> bool>(&self, pred: F) -> Vec<bool> {
        can_reach(&self.states, &self.edges, pred)
    }

    /// A cheap structural fingerprint of the explored space: state and edge
    /// counts hashed together. Used to group behaviourally equivalent
    /// synthesis solutions.
    pub fn fingerprint(&self) -> u64 {
        let edge_count: usize = self.edges.iter().map(Vec::len).sum();
        crate::hashers::fingerprint(&(self.states.len(), edge_count))
    }

    /// Renders the graph in Graphviz DOT format.
    ///
    /// States are labelled with their `Debug` representation, edges with rule
    /// names. Intended for the small state spaces of worked examples; a
    /// million-state dump is syntactically valid but practically useless.
    pub fn to_dot(&self, name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{name}\" {{");
        let _ = writeln!(out, "  rankdir=LR; node [shape=box, fontname=monospace];");
        for (i, s) in self.states.iter().enumerate() {
            let label = format!("{s:?}").replace('"', "\\\"");
            let _ = writeln!(out, "  s{i} [label=\"{label}\"];");
        }
        for (src, edges) in self.edges.iter().enumerate() {
            for e in edges {
                let rule = self
                    .rule_names
                    .get(e.rule as usize)
                    .map(String::as_str)
                    .unwrap_or("?")
                    .replace('"', "\\\"");
                let _ = writeln!(out, "  s{src} -> s{} [label=\"{rule}\"];", e.target);
            }
        }
        out.push_str("}\n");
        out
    }
}

/// The backward closure behind [`ExploredGraph::can_reach`], over a state
/// list and its edge lists (aligned by [`StateId`]) — borrowed, so the
/// checker's post-pass runs it over its committed store without building a
/// graph.
pub(super) fn can_reach<S>(
    states: &[S],
    edges: &[Vec<Edge>],
    pred: impl Fn(&S) -> bool,
) -> Vec<bool> {
    let n = states.len();
    // Build the reverse adjacency once.
    let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); n];
    for (src, out) in edges.iter().enumerate() {
        for e in out {
            rev[e.target as usize].push(src as StateId);
        }
    }
    let mut reached = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for (i, s) in states.iter().enumerate() {
        if pred(s) {
            reached[i] = true;
            queue.push_back(i as StateId);
        }
    }
    while let Some(id) = queue.pop_front() {
        for &p in &rev[id as usize] {
            if !reached[p as usize] {
                reached[p as usize] = true;
                queue.push_back(p);
            }
        }
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> ExploredGraph<u8> {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 ; 4 is a disconnected sink.
        ExploredGraph {
            states: vec![0, 1, 2, 3, 4],
            depth: vec![0, 1, 1, 2, 0],
            edges: vec![
                vec![Edge { rule: 0, target: 1 }, Edge { rule: 1, target: 2 }],
                vec![Edge { rule: 0, target: 3 }],
                vec![Edge { rule: 0, target: 3 }],
                vec![],
                vec![],
            ],
            rule_names: vec!["a".into(), "b".into()],
        }
    }

    #[test]
    fn can_reach_backward_closure() {
        let g = diamond();
        let r = g.can_reach(|&s| s == 3);
        assert_eq!(r, vec![true, true, true, true, false]);
    }

    #[test]
    fn can_reach_empty_goal() {
        let g = diamond();
        let r = g.can_reach(|_| false);
        assert!(r.iter().all(|&b| !b));
    }

    #[test]
    fn dot_mentions_states_and_rules() {
        let g = diamond();
        let dot = g.to_dot("demo");
        assert!(dot.starts_with("digraph \"demo\""));
        assert!(dot.contains("s0 -> s1"));
        assert!(dot.contains("label=\"a\""));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn fingerprint_distinguishes_sizes() {
        let g = diamond();
        let mut h = g.clone();
        h.states.push(9);
        h.edges.push(vec![]);
        h.depth.push(3);
        assert_ne!(g.fingerprint(), h.fingerprint());
    }
}
