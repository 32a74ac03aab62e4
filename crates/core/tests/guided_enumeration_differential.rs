//! Differential property tests for guided enumeration: over random hole
//! domains and random pattern tables, the guided walk must visit exactly
//! the candidates an exhaustive lexicographic walk keeps after filtering by
//! [`PatternTable::matches_candidate`] — same set, same order — and every
//! jump must land on precisely the first non-pruned index.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use verc3_core::{space_size, GuidedOdometer, Odometer, PatternTable, Propagator, SparsePattern};

/// Minimal deterministic generator for deriving a random pattern table from
/// one proptest-generated seed (the compat shim's strategies only produce
/// primitives, so structured inputs are derived in-test).
struct Splitmix(u64);

impl Splitmix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A random mix of dense prefixes and sparse patterns over holes of the
/// given radices, inserted into a plain table and a propagator in the same
/// order.
fn random_table(radices: &[u32], seed: u64, patterns: usize) -> (PatternTable, Propagator) {
    let mut rng = Splitmix(seed);
    let mut table = PatternTable::new();
    let mut propagator = Propagator::new();
    for _ in 0..patterns {
        if rng.below(2) == 0 {
            let len = rng.below(radices.len() as u64 + 1) as usize;
            let prefix: Vec<u16> = radices[..len]
                .iter()
                .map(|&r| rng.below(u64::from(r)) as u16)
                .collect();
            table.insert_prefix(&prefix);
            propagator.insert_prefix(&prefix);
        } else {
            let mut pairs: SparsePattern = Vec::new();
            for (h, &r) in radices.iter().enumerate() {
                if rng.below(3) == 0 {
                    pairs.push((h as u16, rng.below(u64::from(r)) as u16));
                }
            }
            table.insert_sparse(pairs.clone());
            propagator.insert_sparse(pairs);
        }
    }
    (table, propagator)
}

/// The exhaustive reference: every candidate in `[start, end)` the table
/// does not match, in lexicographic order.
fn exhaustive_filtered(
    radices: &[u32],
    table: &PatternTable,
    start: u128,
    end: u128,
) -> Vec<Vec<u16>> {
    let mut od = Odometer::over_range(radices.to_vec(), start, end);
    let mut out = Vec::new();
    while let Some(digits) = od.current() {
        if !table.matches_candidate(digits) {
            out.push(digits.to_vec());
        }
        if !od.advance() {
            break;
        }
    }
    out
}

/// Drains a guided walk, recording each visited candidate and checking the
/// skip accounting as it goes.
fn guided_visits(
    radices: &[u32],
    propagator: &mut Propagator,
    start: u128,
    end: u128,
) -> Result<Vec<Vec<u16>>, TestCaseError> {
    let mut od = GuidedOdometer::over_range(radices.to_vec(), start, end, propagator);
    let mut out = Vec::new();
    let mut skipped = 0u128;
    loop {
        skipped += od.seek_consistent();
        let Some(digits) = od.current() else { break };
        out.push(digits.to_vec());
        if !od.advance() {
            break;
        }
    }
    prop_assert_eq!(
        out.len() as u128 + skipped,
        end - start,
        "visited + skipped must partition the range"
    );
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Guided == exhaustive-then-filter, over the whole space.
    #[test]
    fn guided_walk_equals_filtered_exhaustive_walk(
        radices in prop::collection::vec(1u32..5, 1..6),
        seed in 0u64..u64::MAX,
        patterns in 0usize..8,
    ) {
        let (table, mut propagator) = random_table(&radices, seed, patterns);
        let total = space_size(&radices);
        let reference = exhaustive_filtered(&radices, &table, 0, total);
        let guided = guided_visits(&radices, &mut propagator, 0, total)?;
        prop_assert_eq!(guided, reference);
    }

    /// Guided == exhaustive-then-filter on an arbitrary sub-range — the
    /// chunk dispatch shape, where a chunk's walk starts mid-space.
    #[test]
    fn guided_walk_respects_arbitrary_ranges(
        radices in prop::collection::vec(1u32..5, 1..6),
        seed in 0u64..u64::MAX,
        patterns in 0usize..8,
        a_raw in 0u32..1000,
        b_raw in 0u32..1000,
    ) {
        let (table, mut propagator) = random_table(&radices, seed, patterns);
        let total = space_size(&radices);
        let a = u128::from(a_raw) % (total + 1);
        let b = u128::from(b_raw) % (total + 1);
        let (start, end) = (a.min(b), a.max(b));
        let reference = exhaustive_filtered(&radices, &table, start, end);
        let guided = guided_visits(&radices, &mut propagator, start, end)?;
        prop_assert_eq!(guided, reference);
    }

    /// Each `seek_consistent` jump lands on exactly the first non-pruned
    /// index at or after the current position: no candidate between the
    /// pre-seek position and the landing point survives the filter, and the
    /// landing point itself does.
    #[test]
    fn jumps_land_on_the_first_non_pruned_index(
        radices in prop::collection::vec(1u32..5, 1..6),
        seed in 0u64..u64::MAX,
        patterns in 0usize..8,
    ) {
        let (table, mut propagator) = random_table(&radices, seed, patterns);
        let total = space_size(&radices);
        let mut od = GuidedOdometer::new(radices.clone(), &mut propagator);
        loop {
            let before = od.index();
            od.seek_consistent();
            let landed = od.index();
            // Everything jumped over really is pruned...
            let mut probe = Odometer::over_range(radices.clone(), before, landed.min(total));
            while let Some(digits) = probe.current() {
                prop_assert!(
                    table.matches_candidate(digits),
                    "jump from {} to {} flew over unpruned candidate {:?}",
                    before, landed, digits
                );
                if !probe.advance() {
                    break;
                }
            }
            // ...and the landing point is not.
            let Some(digits) = od.current() else { break };
            prop_assert!(
                !table.matches_candidate(digits),
                "landed on pruned candidate {:?}",
                digits
            );
            if !od.advance() {
                break;
            }
        }
    }

    /// A table containing the empty-prefix (or empty-sparse) pattern
    /// refutes every candidate: the guided walk exhausts immediately,
    /// charging the entire space to the skip counter.
    #[test]
    fn unsatisfiable_tables_exhaust_immediately(
        radices in prop::collection::vec(1u32..5, 1..6),
        dense in 0u8..2,
    ) {
        let mut propagator = Propagator::new();
        if dense == 0 {
            propagator.insert_prefix(&[]);
        } else {
            propagator.insert_sparse(SparsePattern::new());
        }
        let total = space_size(&radices);
        let mut od = GuidedOdometer::new(radices, &mut propagator);
        let skipped = od.seek_consistent();
        prop_assert_eq!(skipped, total, "everything skipped in one seek");
        prop_assert!(od.current().is_none(), "no candidate survives");
        prop_assert_eq!(od.seek_consistent(), 0, "re-seek on exhausted walk is a no-op");
    }
}
