//! Differential property suite for the indexed pattern table.
//!
//! `PatternTable` stores dense prefixes in a radix trie and sparse refined
//! patterns in a per-`(hole, action)` inverted index; the retained
//! `ReferencePatternTable` is the linear-scan executable specification. This
//! suite drives randomized insert / merge / query sequences through both and
//! asserts observational equivalence **after every step**: `len`,
//! `prunes_subtree` at every depth, `matches_candidate`, and
//! `first_pruned_depth` — including the empty-pattern, duplicate-insert, and
//! out-of-range-hole edges.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use verc3::synth::{PatternTable, ReferencePatternTable, SparsePattern};

/// Probe space: wide enough to exercise multi-depth subtree checks, small
/// enough to enumerate exhaustively at every step.
const WIDTH: usize = 4;
const ARITIES: [u16; WIDTH] = [3, 4, 2, 3];

/// Sparse patterns may mention holes beyond the probe width — the
/// out-of-range edge `matches_candidate` must handle (such patterns can
/// never match a `WIDTH`-digit candidate).
const SPARSE_HOLE_SPAN: u16 = 7;

/// Every complete candidate of the probe space (72 of them).
fn all_candidates() -> Vec<Vec<u16>> {
    let mut out = vec![Vec::new()];
    for &arity in &ARITIES {
        out = out
            .into_iter()
            .flat_map(|prefix| {
                (0..arity).map(move |digit| {
                    let mut next = prefix.clone();
                    next.push(digit);
                    next
                })
            })
            .collect();
    }
    out
}

/// One randomized table operation.
#[derive(Debug, Clone)]
enum Op {
    Prefix(Vec<u16>),
    Sparse(SparsePattern),
}

fn gen_op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0..10usize) {
        // Explicit edges, generated often enough to collide with themselves.
        0 => Op::Prefix(Vec::new()),
        1 => Op::Sparse(Vec::new()),
        2..=5 => {
            let len = rng.gen_range(1..WIDTH + 1);
            Op::Prefix(
                (0..len)
                    .map(|i| rng.gen_range(0..ARITIES[i] as usize) as u16)
                    .collect(),
            )
        }
        _ => {
            let len = rng.gen_range(1..4usize);
            Op::Sparse(
                (0..len)
                    .map(|_| {
                        let hole = rng.gen_range(0..SPARSE_HOLE_SPAN as usize) as u16;
                        let action = rng.gen_range(0..5usize) as u16;
                        (hole, action)
                    })
                    .collect(),
            )
        }
    }
}

/// Exhaustive observational-equivalence check over the probe space.
fn assert_agree(indexed: &PatternTable, reference: &ReferencePatternTable, step: usize) {
    assert_eq!(indexed.len(), reference.len(), "len at step {step}");
    assert_eq!(indexed.is_empty(), reference.is_empty());
    for candidate in all_candidates() {
        for depth in 0..=WIDTH {
            assert_eq!(
                indexed.prunes_subtree(&candidate[..depth]),
                reference.prunes_subtree(&candidate[..depth]),
                "prunes_subtree({:?}) at step {step}",
                &candidate[..depth],
            );
        }
        assert_eq!(
            indexed.matches_candidate(&candidate),
            reference.matches_candidate(&candidate),
            "matches_candidate({candidate:?}) at step {step}",
        );
        assert_eq!(
            indexed.first_pruned_depth(&candidate, WIDTH),
            reference.first_pruned_depth(&candidate, WIDTH),
            "first_pruned_depth({candidate:?}) at step {step}",
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random insert sequences keep the four tables (novelty read or
    /// replayed, indexed + reference) observationally identical at every
    /// step.
    #[test]
    fn insert_and_merge_sequences_agree(seed in 0u64..1_000_000, steps in 1usize..36) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut indexed = PatternTable::new();
        let mut reference = ReferencePatternTable::new();
        // Tables fed the same inserts without reading their novelty, the
        // way a worker replays the shared pattern log in parallel
        // synthesis.
        let mut merged_indexed = PatternTable::new();
        let mut merged_reference = ReferencePatternTable::new();

        for step in 0..steps {
            match gen_op(&mut rng) {
                Op::Prefix(prefix) => {
                    prop_assert_eq!(
                        indexed.insert_prefix(&prefix),
                        reference.insert_prefix(&prefix),
                        "insert_prefix({:?}) novelty at step {}", &prefix, step
                    );
                    merged_indexed.insert_prefix(&prefix);
                    merged_reference.insert_prefix(&prefix);
                }
                Op::Sparse(pairs) => {
                    prop_assert_eq!(
                        indexed.insert_sparse(pairs.clone()),
                        reference.insert_sparse(pairs.clone()),
                        "insert_sparse({:?}) novelty at step {}", &pairs, step
                    );
                    merged_indexed.insert_sparse(pairs.clone());
                    merged_reference.insert_sparse(pairs);
                }
            }
            assert_agree(&indexed, &reference, step);
            assert_agree(&merged_indexed, &merged_reference, step);
        }
        // The merge path and the insert path must converge on identical
        // observable state.
        prop_assert_eq!(indexed.len(), merged_indexed.len());
        assert_agree(&merged_indexed, &reference, usize::MAX);
    }

    /// Duplicate inserts (same pattern, any pair order) are never re-counted
    /// by either implementation.
    #[test]
    fn duplicate_inserts_are_idempotent(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut indexed = PatternTable::new();
        let mut reference = ReferencePatternTable::new();
        let ops: Vec<Op> = (0..8).map(|_| gen_op(&mut rng)).collect();

        for round in 0..3 {
            for op in &ops {
                let (a, b) = match op {
                    Op::Prefix(p) => (indexed.insert_prefix(p), reference.insert_prefix(p)),
                    Op::Sparse(s) => {
                        // Shuffle the pair order on re-insertion: sorting is
                        // the implementations' job.
                        let mut pairs = s.clone();
                        if round % 2 == 1 {
                            pairs.reverse();
                        }
                        (indexed.insert_sparse(pairs.clone()), reference.insert_sparse(pairs))
                    }
                };
                prop_assert_eq!(a, b);
                prop_assert!(round == 0 || !a, "re-insertion must report a duplicate");
            }
        }
        assert_agree(&indexed, &reference, usize::MAX);
    }
}

#[test]
fn empty_pattern_edge() {
    // The empty sparse pattern (inherently faulty skeleton) matches every
    // candidate, including the empty prefix.
    let mut indexed = PatternTable::new();
    let mut reference = ReferencePatternTable::new();
    assert_eq!(
        indexed.insert_sparse(vec![]),
        reference.insert_sparse(vec![])
    );
    assert!(indexed.prunes_subtree(&[]));
    assert!(indexed.matches_candidate(&[]));
    assert_eq!(indexed.first_pruned_depth(&[1, 0, 1, 2], WIDTH), Some(0));
    assert_agree(&indexed, &reference, 0);

    // Duplicate of the empty pattern.
    assert_eq!(
        indexed.insert_sparse(vec![]),
        reference.insert_sparse(vec![]),
    );
    assert_eq!(indexed.len(), 1);
    assert_agree(&indexed, &reference, 1);
}

#[test]
fn out_of_range_hole_edge() {
    // A sparse pattern constraining a hole past the candidate width can
    // never match a candidate that does not cover it; subtree checks only
    // consult buckets the prefix depth covers.
    let mut indexed = PatternTable::new();
    let mut reference = ReferencePatternTable::new();
    assert!(indexed.insert_sparse(vec![(6, 1)]));
    assert!(reference.insert_sparse(vec![(6, 1)]));
    for candidate in all_candidates() {
        assert!(!indexed.matches_candidate(&candidate));
        assert_eq!(indexed.first_pruned_depth(&candidate, WIDTH), None);
    }
    assert_agree(&indexed, &reference, 0);

    // A mixed pattern (in-range + out-of-range holes) is equally inert for
    // short candidates.
    assert!(indexed.insert_sparse(vec![(0, 1), (6, 0)]));
    assert!(reference.insert_sparse(vec![(0, 1), (6, 0)]));
    assert_agree(&indexed, &reference, 1);

    // But a 7-digit candidate covering hole 6 is matched by both.
    let long = [9, 9, 9, 9, 9, 9, 1u16];
    assert_eq!(
        indexed.matches_candidate(&long),
        reference.matches_candidate(&long),
    );
    assert!(indexed.matches_candidate(&long));
}

#[test]
fn dense_and_sparse_counts_are_tracked_separately() {
    let mut indexed = PatternTable::new();
    indexed.insert_prefix(&[0, 1]);
    indexed.insert_prefix(&[2]);
    indexed.insert_sparse(vec![(1, 1)]);
    assert_eq!(indexed.dense_len(), 2);
    assert_eq!(indexed.sparse_len(), 1);
    assert_eq!(indexed.len(), 3);
}
