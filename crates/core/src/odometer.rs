//! Mixed-radix enumeration of candidate configurations with subtree
//! skipping.
//!
//! Candidates over `k` concrete holes form a mixed-radix number system:
//! digit `i` ranges over hole `i`'s action library, with hole `0` (the first
//! discovered) most significant — matching the paper's worked example, where
//! later-discovered holes vary fastest. The [`Odometer`] walks a *range* of
//! this space (ranges are how the parallel driver splits work) and supports
//! the two operations the pruning synthesizer needs:
//!
//! * [`Odometer::advance`] — step to the next candidate; and
//! * [`Odometer::skip_subtree`] — jump past every remaining candidate that
//!   shares the current first `d` digits, in O(k), reporting how many
//!   candidates were skipped (the pruning statistic).

use std::fmt;

use crate::pattern::Propagator;

/// Mixed-radix counter over a candidate range.
#[derive(Debug, Clone)]
pub struct Odometer {
    radices: Vec<u32>,
    digits: Vec<u16>,
    /// Linear index of the current candidate within the *full* space.
    index: u128,
    /// Exclusive upper bound of this walker's range.
    end: u128,
    /// Suffix products: `weight[i]` = number of candidates per assignment of
    /// digits `0..i` = `radices[i..]` product; `weight[k]` = 1.
    weight: Vec<u128>,
}

impl Odometer {
    /// Creates an odometer over the entire space of the given radices.
    ///
    /// # Panics
    ///
    /// Panics if any radix is zero.
    pub fn new(radices: Vec<u32>) -> Self {
        let total = space_size(&radices);
        Self::over_range(radices, 0, total)
    }

    /// Creates an odometer over the half-open linear range `[start, end)`.
    ///
    /// Out-of-bounds ranges are **clamped**, not rejected: `end` saturates
    /// at the space size and `start` at the (clamped) `end`, so an inverted
    /// or past-the-end range simply produces an exhausted walker. This is
    /// the contract range dispatch needs — a dispenser splitting a space it
    /// knows only in chunk units (work-stealing splits, a final partial
    /// chunk) must be able to hand out boundary ranges without every
    /// consumer re-deriving the exact space size. The degenerate shapes are
    /// all well-defined:
    ///
    /// * `start == end` — an empty range: [`Odometer::current`] is `None`
    ///   immediately and [`Odometer::skip_subtree`] returns 0 at any depth;
    /// * `end > space_size` — clamped to the space size;
    /// * an empty (zero-width) radix vector — the space has exactly one
    ///   candidate, the empty assignment, so any range clamps into `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if any radix is zero (an impossible hole with no actions —
    /// always a construction bug, never a boundary condition).
    pub fn over_range(radices: Vec<u32>, start: u128, end: u128) -> Self {
        assert!(radices.iter().all(|&r| r > 0), "zero radix");
        let total = space_size(&radices);
        let end = end.min(total);
        let start = start.min(end);
        let mut weight = vec![1u128; radices.len() + 1];
        for i in (0..radices.len()).rev() {
            weight[i] = weight[i + 1] * radices[i] as u128;
        }
        let mut digits = vec![0u16; radices.len()];
        if start < total {
            let mut rem = start;
            for i in 0..radices.len() {
                digits[i] = (rem / weight[i + 1]) as u16;
                rem %= weight[i + 1];
            }
        }
        Odometer {
            radices,
            digits,
            index: start,
            end,
            weight,
        }
    }

    /// Number of digits (holes) in the space.
    pub fn width(&self) -> usize {
        self.radices.len()
    }

    /// Arity of the hole at `depth`.
    ///
    /// # Panics
    ///
    /// Panics if `depth >= width()`.
    pub fn radix(&self, depth: usize) -> u32 {
        self.radices[depth]
    }

    /// The current candidate's digits, or `None` if the range is exhausted.
    pub fn current(&self) -> Option<&[u16]> {
        (self.index < self.end).then_some(&self.digits[..])
    }

    /// Linear index of the current candidate.
    pub fn index(&self) -> u128 {
        self.index
    }

    /// Steps to the next candidate. Returns `false` if the range is
    /// exhausted.
    pub fn advance(&mut self) -> bool {
        self.index += 1;
        if self.index >= self.end {
            return false;
        }
        for i in (0..self.digits.len()).rev() {
            self.digits[i] += 1;
            if (self.digits[i] as u32) < self.radices[i] {
                return true;
            }
            self.digits[i] = 0;
        }
        // Carry out of the most significant digit can only happen past the
        // end of the full space, which the index check above already caught.
        unreachable!("odometer overflow before range end");
    }

    /// Skips every remaining candidate whose first `depth` digits equal the
    /// current ones, returning how many candidates were skipped (including
    /// the current one).
    ///
    /// After the call, [`Odometer::current`] is the first candidate of the
    /// next subtree (or `None` if the range is exhausted). `depth == 0`
    /// exhausts the entire range. On an already-exhausted odometer the call
    /// is a no-op returning 0 — guided enumeration skips at every prune and
    /// must be able to land a final-candidate prune harmlessly.
    ///
    /// # Panics
    ///
    /// Panics if `depth > width()`.
    pub fn skip_subtree(&mut self, depth: usize) -> u128 {
        assert!(depth <= self.width(), "depth out of range");
        if self.index >= self.end {
            return 0;
        }

        // Linear index of the end of the current depth-`depth` subtree.
        let subtree = self.weight[depth];
        let subtree_start = (self.index / subtree) * subtree;
        let subtree_end = (subtree_start + subtree).min(self.end);
        let skipped = subtree_end - self.index;
        self.index = subtree_end;
        if self.index < self.end {
            // Landing digits: zero the subtree's suffix and carry one into
            // the prefix. O(depth-to-carry) instead of a full div/mod
            // decode of the u128 index — guided enumeration skips at every
            // prune, so this is the hot advance path, not a rare event.
            for d in &mut self.digits[depth..] {
                *d = 0;
            }
            let mut i = depth;
            loop {
                // `i == 0` is unreachable here: a carry out of the most
                // significant digit means the full space is exhausted, and
                // `subtree_end` would already have clamped to `end`.
                i -= 1;
                self.digits[i] += 1;
                if (self.digits[i] as u32) < self.radices[i] {
                    break;
                }
                self.digits[i] = 0;
            }
        }
        skipped
    }
}

impl fmt::Display for Odometer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "odometer@{} {:?}", self.index, self.digits)
    }
}

/// Guided enumeration: a mixed-radix walker driven by pattern-constraint
/// propagation (the CEGIS "propose" step informed by everything "learn"
/// recorded so far).
///
/// Where the plain [`Odometer`] proposes candidates lexicographically and
/// leaves filtering to the caller, a `GuidedOdometer` couples the walk to a
/// [`Propagator`]: [`GuidedOdometer::seek_consistent`] jumps directly to
/// the next assignment consistent with every learned dense prefix and
/// sparse pattern, re-verifying only the digits each jump changed. The
/// visit *sequence* is identical to a lexicographic walk filtered by the
/// same pattern table — guided mode changes how much work each step costs
/// (per-depth probes), never which candidates are evaluated — which is
/// exactly what keeps the golden run logs bit-identical between modes.
///
/// The propagator is borrowed, not owned: it is the worker's long-lived
/// local pattern store and must keep accumulating patterns across many
/// chunk-scoped walkers.
#[derive(Debug)]
pub struct GuidedOdometer<'p> {
    od: Odometer,
    propagator: &'p mut Propagator,
}

impl<'p> GuidedOdometer<'p> {
    /// Creates a guided walker over the entire space of the given radices.
    ///
    /// # Panics
    ///
    /// Panics if any radix is zero.
    pub fn new(radices: Vec<u32>, propagator: &'p mut Propagator) -> Self {
        let total = space_size(&radices);
        Self::over_range(radices, 0, total, propagator)
    }

    /// Creates a guided walker over the half-open linear range
    /// `[start, end)` — the form the synthesis loop's chunk claiming uses.
    ///
    /// # Panics
    ///
    /// Panics as [`Odometer::over_range`] does.
    pub fn over_range(
        radices: Vec<u32>,
        start: u128,
        end: u128,
        propagator: &'p mut Propagator,
    ) -> Self {
        GuidedOdometer {
            od: Odometer::over_range(radices, start, end),
            propagator,
        }
    }

    /// Jumps to the next candidate consistent with every learned pattern
    /// (possibly the current one, at zero cost beyond its probe), returning
    /// how many candidates were skipped. Afterwards
    /// [`GuidedOdometer::current`] is the next consistent candidate, or
    /// `None` if the range is exhausted — including the immediate
    /// exhaustion an unsatisfiable pattern table produces.
    ///
    /// The probe cost of a jump is sublinear in the number of refuted
    /// siblings it passes over: the propagator memoizes, per hole, the
    /// bitmask of actions refuted under the current prefix
    /// (watched-literal style), so when a skip bumps one digit and lands
    /// on another refuted sibling the verdict is a cached bit test, not a
    /// fresh pattern-index consultation.
    pub fn seek_consistent(&mut self) -> u128 {
        let mut skipped = 0u128;
        let width = self.od.width();
        while let Some(digits) = self.od.current() {
            match self.propagator.first_pruned_depth(digits, width) {
                Some(d) => skipped += self.od.skip_subtree(d),
                None => break,
            }
        }
        skipped
    }

    /// The current candidate's digits, or `None` once the range is
    /// exhausted. Only meaningful directly after
    /// [`GuidedOdometer::seek_consistent`] — the walker does not re-probe
    /// on its own.
    pub fn current(&self) -> Option<&[u16]> {
        self.od.current()
    }

    /// Linear index of the current candidate.
    pub fn index(&self) -> u128 {
        self.od.index()
    }

    /// Steps past the current candidate. Returns `false` if the range is
    /// exhausted. The new current candidate is *unverified* until the next
    /// [`GuidedOdometer::seek_consistent`].
    pub fn advance(&mut self) -> bool {
        self.od.advance()
    }

    /// The propagator driving the jumps — the caller's pattern sink for
    /// patterns learned mid-walk.
    pub fn propagator_mut(&mut self) -> &mut Propagator {
        self.propagator
    }
}

/// The total number of candidates in a mixed-radix space.
pub fn space_size(radices: &[u32]) -> u128 {
    radices.iter().map(|&r| r as u128).product()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(mut o: Odometer) -> Vec<Vec<u16>> {
        let mut out = Vec::new();
        while let Some(d) = o.current() {
            out.push(d.to_vec());
            if !o.advance() {
                break;
            }
        }
        out
    }

    #[test]
    fn enumerates_lexicographically_msd_first() {
        let all = collect(Odometer::new(vec![2, 3]));
        assert_eq!(
            all,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2],
            ]
        );
    }

    #[test]
    fn empty_width_space_has_one_candidate() {
        let all = collect(Odometer::new(vec![]));
        assert_eq!(all, vec![Vec::<u16>::new()]);
    }

    #[test]
    fn range_split_partitions_space() {
        let radices = vec![3, 2, 2];
        let total = space_size(&radices) as u128;
        let mut combined = Vec::new();
        for (lo, hi) in [(0, 5), (5, 9), (9, total)] {
            combined.extend(collect(Odometer::over_range(radices.clone(), lo, hi)));
        }
        assert_eq!(combined, collect(Odometer::new(radices)));
    }

    #[test]
    fn skip_subtree_jumps_and_counts() {
        // radices [2, 2, 2]; at [0,0,0] skip depth-1 subtree (prefix [0]):
        // skips 4 candidates, lands on [1,0,0].
        let mut o = Odometer::new(vec![2, 2, 2]);
        assert_eq!(o.skip_subtree(1), 4);
        assert_eq!(o.current(), Some(&[1, 0, 0][..]));

        // Skip depth-2 subtree (prefix [1,0]): 2 candidates -> [1,1,0].
        assert_eq!(o.skip_subtree(2), 2);
        assert_eq!(o.current(), Some(&[1, 1, 0][..]));

        // Skip at full depth = skip just this candidate.
        assert_eq!(o.skip_subtree(3), 1);
        assert_eq!(o.current(), Some(&[1, 1, 1][..]));

        // Depth 0: everything that remains.
        assert_eq!(o.skip_subtree(0), 1);
        assert_eq!(o.current(), None);
    }

    #[test]
    fn skip_mid_subtree_counts_remainder_only() {
        let mut o = Odometer::new(vec![2, 2, 2]);
        o.advance(); // at [0,0,1], index 1
        assert_eq!(o.skip_subtree(1), 3, "only the rest of the [0,*,*] subtree");
        assert_eq!(o.current(), Some(&[1, 0, 0][..]));
    }

    #[test]
    fn skip_respects_range_end() {
        let mut o = Odometer::over_range(vec![2, 2, 2], 0, 3);
        assert_eq!(o.skip_subtree(1), 3, "range ends inside the subtree");
        assert_eq!(o.current(), None);
    }

    #[test]
    fn skip_on_exhausted_odometer_returns_zero() {
        let mut o = Odometer::new(vec![2, 2]);
        assert_eq!(o.skip_subtree(0), 4);
        assert_eq!(o.current(), None);
        // Further skips at any depth are no-ops, not panics.
        assert_eq!(o.skip_subtree(0), 0);
        assert_eq!(o.skip_subtree(1), 0);
        assert_eq!(o.skip_subtree(2), 0);
        assert_eq!(o.current(), None);
    }

    #[test]
    fn skip_at_over_range_end_boundary() {
        // Range ends mid-space: a skip that lands exactly on `end`
        // exhausts the walker; repeating it returns 0.
        let mut o = Odometer::over_range(vec![2, 2, 2], 2, 4);
        assert_eq!(o.current(), Some(&[0, 1, 0][..]));
        assert_eq!(o.skip_subtree(2), 2, "prefix [0,1] subtree ends at 4");
        assert_eq!(o.current(), None);
        assert_eq!(o.skip_subtree(2), 0);
        assert_eq!(o.skip_subtree(0), 0);
    }

    #[test]
    fn skip_recomputes_digits_at_u128_scale() {
        // Seven max-radix digits: the space is ~2^112, far past u64. The
        // incremental digit recompute must stay exact where a narrower
        // index would overflow.
        const R: u128 = 65_535;
        let radices = vec![65_535u32; 7];
        let total = space_size(&radices);
        assert!(total > u128::from(u64::MAX));
        let mut weight = [1u128; 8];
        for i in (0..7).rev() {
            weight[i] = weight[i + 1] * R;
        }
        // Start mid-space at digits [1,2,3,4,5,6,7].
        let digits = [1u16, 2, 3, 4, 5, 6, 7];
        let start: u128 = (0..7).map(|i| u128::from(digits[i]) * weight[i + 1]).sum();
        let mut o = Odometer::over_range(radices, start, total);
        assert_eq!(o.current(), Some(&digits[..]));

        // Skip the depth-5 subtree: the rest of prefix [1,2,3,4,5] is
        // skipped and the carry lands on [1,2,3,4,6,0,0].
        assert_eq!(o.skip_subtree(5), weight[5] - (6 * weight[6] + 7));
        assert_eq!(o.current(), Some(&[1, 2, 3, 4, 6, 0, 0][..]));

        // Skip depth 1: everything else under prefix [1] goes; lands on
        // [2,0,...,0], a carry across a >2^96-candidate gap.
        let within = 2 * weight[2] + 3 * weight[3] + 4 * weight[4] + 6 * weight[5];
        assert_eq!(o.skip_subtree(1), weight[1] - within);
        assert_eq!(o.current(), Some(&[2, 0, 0, 0, 0, 0, 0][..]));
        assert_eq!(o.index(), 2 * weight[1]);

        // Exhaust and confirm the no-op contract at every depth.
        assert_eq!(o.skip_subtree(0), total - 2 * weight[1]);
        assert_eq!(o.current(), None);
        assert_eq!(o.skip_subtree(7), 0);
        assert_eq!(o.skip_subtree(0), 0);
    }

    #[test]
    fn over_range_decodes_start_digits() {
        let o = Odometer::over_range(vec![3, 2, 2], 7, 12);
        // 7 = 1*4 + 1*2 + 1 -> digits [1, 1, 1]
        assert_eq!(o.current(), Some(&[1, 1, 1][..]));
    }

    #[test]
    #[should_panic(expected = "zero radix")]
    fn zero_radix_rejected() {
        let _ = Odometer::new(vec![2, 0]);
    }

    #[test]
    fn skips_plus_visits_cover_space_exactly() {
        // Walk with pruning of every prefix [1, *]: counts must add up.
        let radices = vec![3, 2, 2];
        let mut o = Odometer::new(radices.clone());
        let mut visited = 0u128;
        let mut skipped = 0u128;
        while let Some(d) = o.current() {
            if d[0] == 1 {
                skipped += o.skip_subtree(1);
                continue;
            }
            visited += 1;
            if !o.advance() {
                break;
            }
        }
        assert_eq!(visited + skipped, space_size(&radices));
        assert_eq!(skipped, 4);
    }

    #[test]
    fn guided_walk_visits_exactly_the_unpruned_candidates() {
        let radices = vec![3, 2, 2];
        let mut prop = Propagator::new();
        prop.insert_prefix(&[1]);
        prop.insert_sparse(vec![(2, 1)]);
        // Expected survivors: first digit != 1 and last digit != 1.
        let mut expected = Vec::new();
        let mut lex = Odometer::new(radices.clone());
        while let Some(d) = lex.current() {
            if d[0] != 1 && d[2] != 1 {
                expected.push(d.to_vec());
            }
            if !lex.advance() {
                break;
            }
        }

        let mut guided = GuidedOdometer::new(radices.clone(), &mut prop);
        let mut visited = Vec::new();
        let mut skipped = 0u128;
        loop {
            skipped += guided.seek_consistent();
            let Some(d) = guided.current() else { break };
            visited.push(d.to_vec());
            if !guided.advance() {
                break;
            }
        }
        assert_eq!(visited, expected);
        assert_eq!(visited.len() as u128 + skipped, space_size(&radices));
    }

    #[test]
    fn guided_walk_over_unsatisfiable_table_exhausts_immediately() {
        let mut prop = Propagator::new();
        // Contradictory sparse patterns: hole 0 must be both 0 and 1.
        prop.insert_sparse(vec![(0, 0)]);
        prop.insert_sparse(vec![(0, 1)]);
        let radices = vec![2, 3];
        let mut guided = GuidedOdometer::new(radices.clone(), &mut prop);
        let skipped = guided.seek_consistent();
        assert_eq!(skipped, space_size(&radices));
        assert_eq!(guided.current(), None);
        // Seeking again on the exhausted walker is a no-op.
        assert_eq!(guided.seek_consistent(), 0);
    }

    #[test]
    fn guided_walk_respects_range_bounds() {
        let radices = vec![2, 2, 2];
        let mut prop = Propagator::new();
        prop.insert_prefix(&[0]);
        // Range [2, 6) covers [0,1,0]..[1,0,1]; the dense prefix [0] prunes
        // the first two, so the walk visits exactly [1,0,0] and [1,0,1].
        let mut guided = GuidedOdometer::over_range(radices, 2, 6, &mut prop);
        let skipped = guided.seek_consistent();
        assert_eq!(skipped, 2);
        assert_eq!(guided.current(), Some(&[1, 0, 0][..]));
        assert!(guided.advance());
        assert_eq!(guided.seek_consistent(), 0);
        assert_eq!(guided.current(), Some(&[1, 0, 1][..]));
        assert!(!guided.advance());
        assert_eq!(guided.current(), None);
    }

    // ------------------------------------------------------------------
    // Range boundary contract: chunk dispatch hands out ranges a dispenser
    // computed, so every degenerate shape must clamp into a well-defined
    // walker instead of asserting.

    #[test]
    fn over_range_with_start_equal_to_end_is_exhausted() {
        for at in [0u128, 3, 6] {
            let mut o = Odometer::over_range(vec![2, 3], at, at);
            assert_eq!(o.current(), None, "empty range at {at}");
            assert!(!o.advance());
            assert_eq!(o.skip_subtree(1), 0, "skip on empty range is a no-op");
        }
    }

    #[test]
    fn over_range_clamps_end_past_space_size() {
        let radices = vec![2, 3];
        let clamped = collect(Odometer::over_range(radices.clone(), 4, u128::MAX));
        let exact = collect(Odometer::over_range(radices.clone(), 4, 6));
        assert_eq!(clamped, exact);
        // A range entirely past the space is empty, not an error.
        let past = Odometer::over_range(radices, 99, 120);
        assert_eq!(past.current(), None);
    }

    #[test]
    fn over_range_clamps_inverted_range_to_empty() {
        let o = Odometer::over_range(vec![2, 3], 5, 2);
        assert_eq!(o.current(), None);
    }

    #[test]
    fn over_range_on_zero_width_radices_clamps_into_unit_space() {
        // The empty radix vector's space is exactly one candidate: the
        // empty assignment. Any range clamps into [0, 1).
        let all = collect(Odometer::over_range(vec![], 0, u128::MAX));
        assert_eq!(all, vec![Vec::<u16>::new()]);
        let empty = Odometer::over_range(vec![], 1, 5);
        assert_eq!(empty.current(), None);
    }

    #[test]
    fn skip_subtree_clamps_at_range_end() {
        // Range [1, 4) of a [2, 3] space: candidates [0,1] [0,2] [1,0].
        let mut o = Odometer::over_range(vec![2, 3], 1, 4);
        assert_eq!(o.current(), Some(&[0, 1][..]));
        // The depth-1 subtree under [0,_] extends to index 3; skipping it
        // from index 1 crosses nothing out of range.
        assert_eq!(o.skip_subtree(1), 2);
        assert_eq!(o.current(), Some(&[1, 0][..]));
        // The depth-1 subtree under [1,_] extends to index 6, past this
        // range's end: the skip must clamp at `end`, not walk beyond it.
        assert_eq!(o.skip_subtree(1), 1);
        assert_eq!(o.current(), None);
        assert_eq!(o.skip_subtree(0), 0, "exhausted walker skips nothing");
    }

    #[test]
    fn guided_over_range_inherits_clamping() {
        let mut prop = Propagator::new();
        let mut guided = GuidedOdometer::over_range(vec![2, 2], 3, 99, &mut prop);
        assert_eq!(guided.seek_consistent(), 0);
        assert_eq!(guided.current(), Some(&[1, 1][..]));
        assert!(!guided.advance());
    }
}
