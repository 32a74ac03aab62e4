//! Synthesis reports: solutions, statistics, and run logs.
//!
//! The report mirrors what the paper presents: Table I's columns (holes,
//! candidate-space sizes, pruning patterns, evaluated candidates, solutions,
//! execution time) and Figure 2's per-run table (candidate, verdict, pattern
//! recorded, holes discovered).

use crate::candidate::CandidateVec;
use crate::hole::{HoleId, HoleInfo};
use std::fmt;
use std::time::Duration;
use verc3_mck::Verdict;

/// A synthesized solution: a hole assignment under which the model verifies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// Sorted `(hole, action)` pairs for every hole the verifying run
    /// consulted. Holes absent from this list are genuine don't-cares: the
    /// solution never executes them.
    pub assignment: Vec<(HoleId, u16)>,
    /// States visited while verifying this solution — the paper groups
    /// behaviourally equivalent solutions by this number (§III).
    pub visited_states: usize,
    /// Transitions fired while verifying this solution.
    pub transitions: usize,
}

impl Solution {
    /// Renders the assignment with hole and action names:
    /// `⟨ 1@B, 2@A, 3@B, 4@B ⟩`.
    pub fn display_named(&self, holes: &[HoleInfo]) -> String {
        let mut out = String::from("⟨");
        for (i, &(h, a)) in self.assignment.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push(' ');
            out.push_str(&holes[h].name);
            out.push('@');
            out.push_str(&holes[h].actions[a as usize]);
        }
        out.push_str(" ⟩");
        out
    }

    /// The action assigned to `hole`, if the solution constrains it.
    pub fn action_for(&self, hole: HoleId) -> Option<u16> {
        self.assignment
            .iter()
            .find(|&&(h, _)| h == hole)
            .map(|&(_, a)| a)
    }
}

/// Why a synthesis run stopped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The search space was exhausted: every generation completed.
    #[default]
    Completed,
    /// The [`crate::SynthOptions::max_evaluations`] cap was reached.
    MaxEvaluations,
    /// The [`crate::SynthOptions::deadline`] elapsed.
    Deadline,
    /// The global [`crate::SynthOptions::state_budget`] was exhausted.
    StateBudget,
    /// An external stop was requested through
    /// [`crate::SynthOptions::stop_flag`] (e.g. SIGINT).
    Interrupted,
}

impl StopReason {
    /// `true` unless the run completed: a stopped run left candidate space
    /// unexplored and (when journaled) can be resumed with
    /// [`crate::Synthesizer::resume_from_journal`].
    pub fn is_resumable(&self) -> bool {
        *self != StopReason::Completed
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopReason::Completed => "completed",
            StopReason::MaxEvaluations => "evaluation cap reached",
            StopReason::Deadline => "deadline elapsed",
            StopReason::StateBudget => "state budget exhausted",
            StopReason::Interrupted => "interrupted",
        };
        f.write_str(s)
    }
}

/// A candidate whose evaluation panicked (a bug in user protocol code): the
/// candidate is excluded from solutions and patterns, the panic is recorded
/// here, and synthesis continues with the rest of the space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// The candidate's concrete frontier digits at dispatch time.
    pub digits: Vec<u16>,
    /// The panic message.
    pub message: String,
}

/// One row of the Figure-2-style run table (recorded when
/// [`crate::SynthOptions::record_runs`] is enabled).
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// 1-based evaluation number ("Run" column).
    pub run: u64,
    /// The candidate as dispatched: concrete digits for holes below the
    /// frontier, wildcards for the rest of the holes known at dispatch time.
    pub candidate: CandidateVec,
    /// The checker's verdict.
    pub verdict: Verdict,
    /// Whether this run added a (new) pruning pattern.
    pub pattern_added: bool,
    /// Names of holes discovered during this run, in discovery order.
    pub discovered: Vec<String>,
}

/// Statistics for one enumeration generation (one frontier width `k`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GenStats {
    /// Frontier width: number of concrete holes enumerated.
    pub k: usize,
    /// Size of this generation's candidate space (product of arities).
    pub space: u128,
    /// Candidates dispatched to the model checker.
    pub evaluated: u64,
    /// Candidates skipped because a pruning pattern matched.
    pub skipped_by_pruning: u128,
    /// Candidates skipped because an earlier generation already evaluated
    /// them (naïve mode's all-default-suffix dedup).
    pub deduped: u64,
    /// Per-depth pattern-table consultations spent proposing this
    /// generation's candidates — the enumeration-cost metric guided mode
    /// drives down (see [`crate::Enumeration`]).
    pub probes: u64,
    /// Chunk-dispenser operations that claimed at least one chunk. The
    /// guided walk claims each run of chunks its patterns refute in one
    /// operation, so its claims follow the active chunks, not the space
    /// (the lexicographic reference walk claims one chunk per operation). A *cost measurement* like `probes`, not a result: it depends
    /// on the chunk size and thread count, and a resumed run counts only
    /// its own claims.
    pub claims: u64,
    /// Chunks with at least one evaluation, in this process (a cost
    /// measurement like `claims`).
    pub active_chunks: u64,
}

/// Aggregate statistics of one synthesis run.
#[derive(Debug, Clone, Default)]
pub struct SynthStats {
    /// Total candidates dispatched to the model checker — the paper's
    /// "Evaluated" column.
    pub evaluated: u64,
    /// Total candidates pruned away — with the paper's accounting, the
    /// complement of "Evaluated" within "Candidates".
    pub skipped_by_pruning: u128,
    /// Distinct pruning patterns recorded — the paper's "Pruning Patterns".
    pub patterns: usize,
    /// Of [`SynthStats::patterns`], the dense prefix patterns (paper-exact
    /// mode's product; stored in the pattern table's radix trie).
    pub patterns_dense: usize,
    /// Of [`SynthStats::patterns`], the sparse refined patterns (stored in
    /// the per-`(hole, action)` inverted index).
    pub patterns_sparse: usize,
    /// Total per-depth pattern-table consultations spent proposing
    /// candidates. Guided enumeration ([`crate::Enumeration::Guided`])
    /// re-verifies only the digits each jump changed, where the
    /// lexicographic reference walk re-probes every prefix from the root on
    /// each candidate, so this is the metric the guided/lexicographic
    /// comparison gates on. Zero when pruning is off (naïve mode never
    /// consults the table).
    pub probes: u64,
    /// Per-generation breakdown.
    pub generations: Vec<GenStats>,
    /// Wall-clock time of the whole synthesis.
    pub wall: Duration,
    /// `true` if the run stopped early on
    /// [`crate::SynthOptions::max_evaluations`].
    pub truncated: bool,
    /// Why the run stopped (`Completed` unless a cap, budget, deadline or
    /// external stop fired first).
    pub stop: StopReason,
    /// Candidates quarantined because their evaluation panicked (see
    /// [`SynthReport::quarantined`] for the details).
    pub quarantined: u64,
    /// States the checker committed by live exploration, summed over every
    /// dispatch ([`verc3_mck::SessionStats::states_expanded`]).
    pub check_states_expanded: u64,
    /// States inherited from [`verc3_mck::CheckSession`] checkpoints
    /// instead of being re-expanded — the work a per-candidate restart
    /// would have repeated. Zero under the one-shot reference dispatch
    /// (`SynthOptions::reuse_sessions(false)`).
    pub check_states_reused: u64,
    /// Dispatches whose session check replayed the previous check's ending
    /// ([`verc3_mck::SessionStats::checks_replayed`]): every hole answer
    /// that check consulted repeated, so nothing was expanded. A cost
    /// measurement like [`GenStats::claims`], not a result: it is not
    /// journaled, and a resumed run counts only its own replays. Zero under
    /// the one-shot reference dispatch.
    pub check_replays: u64,
    /// States whose expansion a session check took from the state's
    /// expansion record instead of applying the rules
    /// ([`verc3_mck::SessionStats::expansions_reused`]), summed over every
    /// dispatch. A cost measurement like [`SynthStats::check_replays`]: not
    /// journaled, zero under the one-shot reference dispatch.
    pub check_expansions_reused: u64,
}

impl SynthStats {
    /// Fraction of all committed checker states that were reused from
    /// session checkpoints rather than re-expanded (0.0 for one-shot runs).
    pub fn check_reuse_rate(&self) -> f64 {
        let total = self.check_states_expanded + self.check_states_reused;
        if total == 0 {
            0.0
        } else {
            self.check_states_reused as f64 / total as f64
        }
    }
}

/// The result of a synthesis run.
#[derive(Debug, Clone, Default)]
pub struct SynthReport {
    pub(crate) model: String,
    pub(crate) holes: Vec<HoleInfo>,
    pub(crate) solutions: Vec<Solution>,
    pub(crate) stats: SynthStats,
    pub(crate) run_log: Vec<RunRecord>,
    pub(crate) quarantined: Vec<Quarantined>,
}

impl SynthReport {
    /// Name of the synthesized model, as reported by
    /// [`verc3_mck::TransitionSystem::name`].
    pub fn model_name(&self) -> &str {
        &self.model
    }

    /// The holes discovered during synthesis, in discovery order.
    pub fn holes(&self) -> &[HoleInfo] {
        &self.holes
    }

    /// The distinct solutions found, in the order of first discovery.
    pub fn solutions(&self) -> &[Solution] {
        &self.solutions
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &SynthStats {
        &self.stats
    }

    /// The per-run log (empty unless [`crate::SynthOptions::record_runs`]).
    pub fn run_log(&self) -> &[RunRecord] {
        &self.run_log
    }

    /// Candidates whose evaluation panicked and were excluded from the
    /// search (in dispatch order). Empty for a healthy protocol.
    pub fn quarantined(&self) -> &[Quarantined] {
        &self.quarantined
    }

    /// Why the run stopped.
    pub fn stop_reason(&self) -> StopReason {
        self.stats.stop
    }

    /// `true` if the run stopped before exhausting the candidate space and
    /// can be resumed (via [`crate::Synthesizer::resume_from_journal`] when
    /// a journal was written).
    pub fn is_resumable(&self) -> bool {
        self.stats.stop.is_resumable()
    }

    /// Size of the naïve candidate space: the product of the discovered
    /// holes' arities (the paper's "Candidates" for no-pruning rows).
    pub fn naive_candidate_space(&self) -> u128 {
        self.holes.iter().map(|h| h.arity() as u128).product()
    }

    /// Size of the wildcard-extended candidate space: the product of
    /// `arity + 1` over discovered holes (the paper's "Candidates" for
    /// pruning rows, where the wildcard acts as an extra default action).
    pub fn wildcard_candidate_space(&self) -> u128 {
        self.holes.iter().map(|h| h.arity() as u128 + 1).product()
    }

    /// Groups solutions by `visited_states`, as the paper does to identify
    /// behaviourally equivalent solution classes. Returns
    /// `(visited_states, count)` sorted by state count.
    pub fn solution_classes(&self) -> Vec<(usize, usize)> {
        let mut classes: std::collections::BTreeMap<usize, usize> = Default::default();
        for s in &self.solutions {
            *classes.entry(s.visited_states).or_default() += 1;
        }
        classes.into_iter().collect()
    }

    /// Formats one Table-I-style row.
    ///
    /// Columns: configuration label, holes, candidates (naïve or
    /// wildcard-extended space depending on `pruned`), pruning patterns,
    /// evaluated, solutions, execution time.
    pub fn table_row(&self, label: &str, pruned: bool) -> String {
        let candidates = if pruned {
            self.wildcard_candidate_space()
        } else {
            self.naive_candidate_space()
        };
        let patterns = if pruned {
            self.stats.patterns.to_string()
        } else {
            "N/A".to_owned()
        };
        format!(
            "{label:<28} {holes:>5} {candidates:>15} {patterns:>10} {evaluated:>12} {solutions:>9} {time:>10.1?}",
            holes = self.holes.len(),
            evaluated = self.stats.evaluated,
            solutions = self.solutions.len(),
            time = self.stats.wall,
        )
    }

    /// Renders the Figure-2-style run table (requires
    /// [`crate::SynthOptions::record_runs`]).
    pub fn run_table(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>4}  {:<34} {:<9} {:<9} Discovered Holes",
            "Run", "Candidate", "Verdict", "Pattern"
        );
        for r in &self.run_log {
            let _ = writeln!(
                out,
                "{:>4}  {:<34} {:<9} {:<9} {}",
                r.run,
                r.candidate.display_named(&self.holes),
                r.verdict.to_string(),
                if r.pattern_added { "yes" } else { "" },
                r.discovered.join(", "),
            );
        }
        out
    }
}

impl fmt::Display for SynthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.model.is_empty() {
            writeln!(f, "synthesis report:")?;
        } else {
            writeln!(f, "synthesis report for `{}`:", self.model)?;
        }
        writeln!(f, "  holes discovered : {}", self.holes.len())?;
        for h in &self.holes {
            writeln!(f, "    {} ({} actions)", h.name, h.arity())?;
        }
        writeln!(
            f,
            "  candidate space  : {} naive / {} with wildcards",
            self.naive_candidate_space(),
            self.wildcard_candidate_space()
        )?;
        writeln!(f, "  evaluated        : {}", self.stats.evaluated)?;
        writeln!(f, "  pruned           : {}", self.stats.skipped_by_pruning)?;
        writeln!(
            f,
            "  pruning patterns : {} ({} dense prefixes, {} sparse)",
            self.stats.patterns, self.stats.patterns_dense, self.stats.patterns_sparse
        )?;
        writeln!(f, "  generations      : {}", self.stats.generations.len())?;
        writeln!(
            f,
            "  check expansions : {} live / {} reused from checkpoints ({:.1}% reuse)",
            self.stats.check_states_expanded,
            self.stats.check_states_reused,
            self.stats.check_reuse_rate() * 100.0
        )?;
        writeln!(f, "  wall time        : {:?}", self.stats.wall)?;
        if self.stats.stop != StopReason::Completed {
            writeln!(f, "  stopped early    : {} (resumable)", self.stats.stop)?;
        }
        if self.stats.quarantined > 0 {
            writeln!(
                f,
                "  quarantined      : {} candidate(s) panicked during evaluation",
                self.stats.quarantined
            )?;
        }
        writeln!(f, "  solutions        : {}", self.solutions.len())?;
        for s in &self.solutions {
            writeln!(
                f,
                "    {} ({} states)",
                s.display_named(&self.holes),
                s.visited_states
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn holes() -> Vec<HoleInfo> {
        vec![
            HoleInfo {
                name: "1".into(),
                actions: vec!["A".into(), "B".into(), "C".into()],
            },
            HoleInfo {
                name: "2".into(),
                actions: vec!["A".into(), "B".into()],
            },
        ]
    }

    #[test]
    fn solution_display_and_lookup() {
        let s = Solution {
            assignment: vec![(0, 1), (1, 0)],
            visited_states: 5,
            transitions: 7,
        };
        assert_eq!(s.display_named(&holes()), "⟨ 1@B, 2@A ⟩");
        assert_eq!(s.action_for(0), Some(1));
        assert_eq!(s.action_for(9), None);
    }

    #[test]
    fn spaces_multiply_arities() {
        let r = SynthReport {
            holes: holes(),
            ..Default::default()
        };
        assert_eq!(r.naive_candidate_space(), 6);
        assert_eq!(r.wildcard_candidate_space(), 12);
    }

    #[test]
    fn solution_classes_group_by_states() {
        let mk = |v| Solution {
            assignment: vec![],
            visited_states: v,
            transitions: 0,
        };
        let r = SynthReport {
            holes: holes(),
            solutions: vec![mk(10), mk(12), mk(10), mk(12), mk(12)],
            ..Default::default()
        };
        assert_eq!(r.solution_classes(), vec![(10, 2), (12, 3)]);
    }

    #[test]
    fn table_row_formats() {
        let r = SynthReport {
            holes: holes(),
            ..Default::default()
        };
        let row = r.table_row("demo", true);
        assert!(row.starts_with("demo"));
        assert!(row.contains("12")); // wildcard space
        let row = r.table_row("demo", false);
        assert!(row.contains("N/A"));
    }
}
