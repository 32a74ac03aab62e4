//! The candidate-pruning pattern table — the paper's key contribution.
//!
//! When a candidate fails verification, its configuration is "entered into a
//! lookup-table of candidate pruning patterns. The pruning patterns are
//! queried for each new candidate's candidate configuration to infer if a
//! property violation is certain to occur" (§II).
//!
//! Two observations make the lookup table fast enough to filter the ~10⁹
//! configurations of MSI-large:
//!
//! 1. **Patterns are action prefixes.** The enumeration policy keeps every
//!    candidate in (concrete prefix, wildcard suffix) shape, and wildcard
//!    entries constrain nothing (the failure occurred without executing those
//!    holes). A pattern therefore *is* its concrete prefix, and "candidate
//!    matches pattern" degenerates to "candidate starts with this prefix".
//! 2. **Prefix hits prune whole subtrees.** The candidate odometer
//!    enumerates lexicographically, so all candidates sharing a pruned prefix
//!    are contiguous: one lookup per enumeration *node* (not per candidate)
//!    suffices, and the skipped count is a product of radices.
//!
//! This module also implements **refined patterns**, an extension beyond the
//! paper: instead of the whole concrete prefix, record only the holes whose
//! resolution the failing run actually *consulted* (the paper's ideal set
//! `Cₜ`). A refined pattern is a sparse set of `(hole, action)` pairs and
//! matches — and thus prunes — strictly more candidates. The
//! `pruning_ablation` bench quantifies the difference.
//!
//! ## Storage: two content indexes
//!
//! At MSI-large scale the table holds 34k+ patterns and is probed at every
//! enumeration node, so *how* patterns are stored decides whether pruning
//! pays for itself. [`PatternTable`] keeps two indexes behind one API:
//!
//! * **Dense prefixes live in a radix trie** (`PrefixTrie` internally):
//!   one child-edge descent per odometer depth instead of re-hashing the
//!   whole prefix at every depth. The trie also enables the cursor-style
//!   [`PatternTable::first_pruned_depth`] walk the synthesizer uses: as the
//!   odometer fixes digit `d`, the matcher takes a single step from the
//!   depth-`d` trie node instead of starting over from the root.
//! * **Sparse refined patterns live in a per-`(hole, action)` inverted
//!   index** with u64-block bitsets: bucket `h` (patterns whose highest
//!   constrained hole is `h`) keeps, for every constrained hole, a bitset of
//!   the patterns constraining it and one bitset per action. A subtree query
//!   intersects `¬constrains(h) ∪ matches(h, prefix[h])` across the bucket's
//!   constrained holes — a handful of block-ANDs — instead of scanning every
//!   pattern in the bucket.
//!
//! Both indexes are *exact* re-encodings of the naïve scan semantics: the
//! retained `ReferencePatternTable` (compiled for tests and under the
//! `reference` feature, off the production path) is the executable
//! specification, and `tests/pattern_index_differential.rs` drives
//! randomized insert / merge / query sequences through both to keep them
//! observationally identical.

use verc3_mck::hashers::FnvHashSet;

/// A sparse pruning pattern: sorted, de-duplicated `(hole, action)` pairs.
///
/// The *exact* (paper) mode only ever produces dense prefixes; the sparse
/// representation is shared so both modes go through one code path.
pub type SparsePattern = Vec<(u16, u16)>;

/// Which holes a pattern may mention, relative to the enumeration frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternMode {
    /// Paper-faithful: pattern = full concrete prefix of the failing
    /// candidate.
    Exact,
    /// Extension: pattern = only the `(hole, action)` pairs the failing run
    /// consulted. Sound because an identical resolution history forces an
    /// identical exploration (wildcard-aborted branches included).
    Refined,
}

// ---------------------------------------------------------------------------
// Dense prefixes: radix trie
// ---------------------------------------------------------------------------

/// Arena index of a trie node.
type NodeId = u32;

/// One trie node. Children are `(digit, node)` pairs in insertion order —
/// hole arities are single digits (≤ 7 in the MSI libraries), so a linear
/// probe beats any sorted or hashed structure.
#[derive(Debug, Clone, Default)]
struct TrieNode {
    /// `true` if a pattern ends exactly here (every candidate below this
    /// prefix is doomed).
    terminal: bool,
    children: Vec<(u16, NodeId)>,
}

/// Arena-allocated radix trie over action digits.
#[derive(Debug, Clone)]
struct PrefixTrie {
    nodes: Vec<TrieNode>,
}

impl Default for PrefixTrie {
    fn default() -> Self {
        PrefixTrie {
            nodes: vec![TrieNode::default()],
        }
    }
}

impl PrefixTrie {
    const ROOT: NodeId = 0;

    fn child(&self, node: NodeId, digit: u16) -> Option<NodeId> {
        self.nodes[node as usize]
            .children
            .iter()
            .find(|&&(d, _)| d == digit)
            .map(|&(_, n)| n)
    }

    fn is_terminal(&self, node: NodeId) -> bool {
        self.nodes[node as usize].terminal
    }

    /// Marks `prefix` as a pattern; returns `true` if it was not one before.
    fn insert(&mut self, prefix: &[u16]) -> bool {
        let mut node = Self::ROOT;
        for &digit in prefix {
            node = match self.child(node, digit) {
                Some(next) => next,
                None => {
                    let next = self.nodes.len() as NodeId;
                    self.nodes.push(TrieNode::default());
                    self.nodes[node as usize].children.push((digit, next));
                    next
                }
            };
        }
        !std::mem::replace(&mut self.nodes[node as usize].terminal, true)
    }

    fn contains(&self, prefix: &[u16]) -> bool {
        let mut node = Self::ROOT;
        for &digit in prefix {
            match self.child(node, digit) {
                Some(next) => node = next,
                None => return false,
            }
        }
        self.is_terminal(node)
    }
}

// ---------------------------------------------------------------------------
// Sparse patterns: per-(hole, action) inverted index
// ---------------------------------------------------------------------------

/// Sets bit `bit` in a lazily-grown u64-block bitset.
fn set_bit(blocks: &mut Vec<u64>, bit: u32) {
    let word = (bit / 64) as usize;
    if blocks.len() <= word {
        blocks.resize(word + 1, 0);
    }
    blocks[word] |= 1u64 << (bit % 64);
}

/// The inverted index of one constrained hole within one bucket.
#[derive(Debug, Clone, Default)]
struct HoleIndex {
    /// Patterns (bucket-local ids) that constrain this hole at all.
    constrains: Vec<u64>,
    /// Patterns that constrain this hole to the given action, indexed by
    /// action value.
    by_action: Vec<Vec<u64>>,
}

/// All sparse patterns whose highest constrained hole is this bucket's
/// index. Scoping the bitsets per bucket keeps them small *and* makes the
/// depth scoping of subtree queries structural: bucket `h` is consulted
/// exactly once, when the odometer has just fixed hole `h`.
#[derive(Debug, Clone, Default)]
struct Bucket {
    /// Number of patterns in this bucket (bucket-local ids are `0..len`).
    len: u32,
    /// Constrained holes, ascending; parallel to `index`.
    holes: Vec<u16>,
    index: Vec<HoleIndex>,
}

impl Bucket {
    /// Adds one pattern (sorted pairs, max hole = this bucket's index).
    fn insert(&mut self, pairs: &[(u16, u16)]) {
        let id = self.len;
        self.len += 1;
        // Walk runs of equal holes: sorted input puts a hole's pairs
        // side by side.
        let mut i = 0;
        while i < pairs.len() {
            let hole = pairs[i].0;
            let mut j = i + 1;
            while j < pairs.len() && pairs[j].0 == hole {
                j += 1;
            }
            let slot = match self.holes.binary_search(&hole) {
                Ok(s) => s,
                Err(s) => {
                    self.holes.insert(s, hole);
                    self.index.insert(s, HoleIndex::default());
                    s
                }
            };
            let hi = &mut self.index[slot];
            set_bit(&mut hi.constrains, id);
            if j - i == 1 {
                let action = pairs[i].1 as usize;
                if hi.by_action.len() <= action {
                    hi.by_action.resize_with(action + 1, Vec::new);
                }
                set_bit(&mut hi.by_action[action], id);
            }
            // else: the pattern demands two different actions of one hole —
            // unsatisfiable under the conjunction semantics. Constrained
            // with no matching action bit encodes exactly that: the query's
            // `¬constrains ∪ by_action` filter eliminates the pattern at
            // this hole for every digit value.
            i = j;
        }
    }

    /// Is the sorted, conflict-free pattern `pairs` (one action per hole)
    /// stored here? Such a pattern's encoding — an action bit at each of
    /// its holes, no bit anywhere else — is unique, so one survivor pass
    /// over the bitsets decides equality without a second copy of the
    /// patterns.
    fn contains(&self, pairs: &[(u16, u16)], scratch: &mut Vec<u64>) -> bool {
        let n = self.len as usize;
        let indexed = |p: &(u16, u16)| self.holes.binary_search(&p.0).is_ok();
        if n == 0 || !pairs.iter().all(indexed) {
            return false;
        }
        let blocks = n.div_ceil(64);
        scratch.clear();
        scratch.resize(blocks, !0u64);
        if n % 64 != 0 {
            scratch[blocks - 1] = (1u64 << (n % 64)) - 1;
        }
        let mut want = pairs.iter().peekable();
        for (slot, &hole) in self.holes.iter().enumerate() {
            let hi = &self.index[slot];
            let action = want.next_if(|p| p.0 == hole).map(|p| p.1 as usize);
            let mut live = 0u64;
            for (word, survivors) in scratch.iter_mut().enumerate() {
                let keep = match action {
                    Some(a) => hi
                        .by_action
                        .get(a)
                        .and_then(|v| v.get(word))
                        .copied()
                        .unwrap_or(0),
                    None => !hi.constrains.get(word).copied().unwrap_or(0),
                };
                *survivors &= keep;
                live |= *survivors;
            }
            if live == 0 {
                return false;
            }
        }
        true
    }

    /// Does any pattern in this bucket match `digits`? Only holes `≤` this
    /// bucket's index are consulted, so `digits` may be any prefix that
    /// covers them.
    ///
    /// A pattern matches iff every hole it constrains carries the pattern's
    /// action, so the survivor set is the intersection over constrained
    /// holes `h` of `¬constrains(h) ∪ by_action(h, digits[h])` — computed
    /// blockwise in `scratch`, with an early exit when it empties.
    fn any_match(&self, digits: &[u16], scratch: &mut Vec<u64>) -> bool {
        let n = self.len as usize;
        if n == 0 {
            return false;
        }
        let blocks = n.div_ceil(64);
        scratch.clear();
        scratch.resize(blocks, !0u64);
        // Mask the tail so phantom ids past `len` never count as matches.
        if n % 64 != 0 {
            scratch[blocks - 1] = (1u64 << (n % 64)) - 1;
        }
        for (slot, &hole) in self.holes.iter().enumerate() {
            let hi = &self.index[slot];
            let by = hi.by_action.get(digits[hole as usize] as usize);
            let mut live = 0u64;
            for (word, survivors) in scratch.iter_mut().enumerate() {
                let constrained = hi.constrains.get(word).copied().unwrap_or(0);
                let matching = by.and_then(|v| v.get(word)).copied().unwrap_or(0);
                *survivors &= !constrained | matching;
                live |= *survivors;
            }
            if live == 0 {
                return false;
            }
        }
        true
    }

    /// Which actions `a < cap` of this bucket's own hole `own_hole` make
    /// some pattern here match `digits` with `digits[own_hole]` replaced by
    /// `a`? Returns the answers as a bitmask.
    ///
    /// One shared intersection over every *other* constrained hole produces
    /// the patterns compatible with the unchanged digits; each action then
    /// pays only the own-hole filter against that survivor set, so the whole
    /// mask costs barely more than a single [`Bucket::any_match`].
    fn refuted_action_mask(
        &self,
        digits: &[u16],
        own_hole: u16,
        cap: u32,
        scratch: &mut Vec<u64>,
    ) -> u64 {
        let n = self.len as usize;
        if n == 0 || cap == 0 {
            return 0;
        }
        let blocks = n.div_ceil(64);
        scratch.clear();
        scratch.resize(blocks, !0u64);
        if n % 64 != 0 {
            scratch[blocks - 1] = (1u64 << (n % 64)) - 1;
        }
        for (slot, &hole) in self.holes.iter().enumerate() {
            if hole == own_hole {
                continue;
            }
            let hi = &self.index[slot];
            let by = hi.by_action.get(digits[hole as usize] as usize);
            let mut live = 0u64;
            for (word, survivors) in scratch.iter_mut().enumerate() {
                let constrained = hi.constrains.get(word).copied().unwrap_or(0);
                let matching = by.and_then(|v| v.get(word)).copied().unwrap_or(0);
                *survivors &= !constrained | matching;
                live |= *survivors;
            }
            if live == 0 {
                return 0;
            }
        }
        let all = if cap >= 64 { !0u64 } else { (1u64 << cap) - 1 };
        let Ok(slot) = self.holes.binary_search(&own_hole) else {
            // No pattern here constrains the bucket's own hole — only the
            // empty pattern (parked in bucket 0) does that, and it matches
            // regardless of any digit: every surviving pattern refutes
            // every action.
            return if scratch.iter().any(|&w| w != 0) {
                all
            } else {
                0
            };
        };
        let hi = &self.index[slot];
        let mut mask = 0u64;
        // A surviving pattern that does not constrain the own hole matches
        // under *every* action; beyond `by_action`'s length no pattern
        // demands a specific action, so one test covers the whole tail.
        let free_alive = scratch.iter().enumerate().any(|(word, &survivors)| {
            survivors & !hi.constrains.get(word).copied().unwrap_or(0) != 0
        });
        if free_alive {
            return all;
        }
        let indexed = (hi.by_action.len() as u32).min(cap);
        for a in 0..indexed {
            let by = &hi.by_action[a as usize];
            let alive = scratch
                .iter()
                .enumerate()
                .any(|(word, &survivors)| survivors & by.get(word).copied().unwrap_or(0) != 0);
            if alive {
                mask |= 1u64 << a;
            }
        }
        mask
    }
}

/// Sparse-pattern store: buckets by highest constrained hole, each with its
/// inverted index.
#[derive(Debug, Clone, Default)]
struct SparseIndex {
    buckets: Vec<Bucket>,
    /// `true` once the empty pattern (inherently faulty skeleton) is stored;
    /// it matches everything, including the empty prefix no bucket covers.
    has_empty: bool,
}

impl SparseIndex {
    /// Adds a sorted, de-duplicated, not-previously-seen pattern.
    fn insert(&mut self, pairs: &[(u16, u16)]) {
        let max_pos = match pairs.last() {
            Some(&(hole, _)) => hole as usize,
            None => {
                // The empty pattern constrains nothing: park it in bucket 0
                // (where it matches vacuously, mirroring the reference
                // semantics) and flag it for depth-0 queries.
                self.has_empty = true;
                0
            }
        };
        if self.buckets.len() <= max_pos {
            self.buckets.resize_with(max_pos + 1, Bucket::default);
        }
        self.buckets[max_pos].insert(pairs);
    }

    /// Is the sorted, conflict-free pattern `pairs` stored?
    fn contains(&self, pairs: &[(u16, u16)], scratch: &mut Vec<u64>) -> bool {
        match pairs.last() {
            None => self.has_empty,
            Some(&(hole, _)) => self
                .buckets
                .get(hole as usize)
                .is_some_and(|b| b.contains(pairs, scratch)),
        }
    }

    /// Does any pattern in bucket `bucket` match `digits`?
    fn bucket_matches(&self, bucket: usize, digits: &[u16], scratch: &mut Vec<u64>) -> bool {
        self.buckets
            .get(bucket)
            .is_some_and(|b| b.any_match(digits, scratch))
    }
}

// ---------------------------------------------------------------------------
// The indexed pattern table
// ---------------------------------------------------------------------------

/// The pruning-pattern lookup table: a prefix trie for dense patterns plus a
/// per-`(hole, action)` inverted index for sparse ones (see the
/// [module docs](self) for the layout and its soundness argument).
#[derive(Debug, Default, Clone)]
pub struct PatternTable {
    /// Dense prefixes, trie-indexed for one-step-per-depth subtree checks.
    prefixes: PrefixTrie,
    /// Sparse patterns, bucketed by highest mentioned hole: bucket `h`
    /// is consulted when the odometer has just fixed hole `h`.
    sparse: SparseIndex,
    /// Sparse patterns that name one hole twice. They can never match,
    /// and the index encodes them all alike, so they alone are
    /// de-duplicated by value; every other pattern is looked up in the
    /// index itself.
    conflicting: FnvHashSet<SparsePattern>,
    /// Bitset scratch for insert-time de-duplication.
    scratch: Vec<u64>,
    /// Number of distinct dense prefixes inserted.
    dense_count: usize,
    /// Number of distinct sparse patterns inserted.
    sparse_count: usize,
}

impl PatternTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PatternTable::default()
    }

    /// Number of distinct patterns stored (the paper's "Pruning Patterns"
    /// column).
    pub fn len(&self) -> usize {
        self.dense_count + self.sparse_count
    }

    /// Number of distinct dense prefix patterns stored.
    pub fn dense_len(&self) -> usize {
        self.dense_count
    }

    /// Number of distinct sparse (refined) patterns stored.
    pub fn sparse_len(&self) -> usize {
        self.sparse_count
    }

    /// `true` if no pattern has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records the failure of a candidate with concrete prefix `prefix`.
    ///
    /// Returns `true` if the pattern is new.
    pub fn insert_prefix(&mut self, prefix: &[u16]) -> bool {
        if self.prefixes.insert(prefix) {
            self.dense_count += 1;
            true
        } else {
            false
        }
    }

    /// Records a refined failure pattern from the consulted `(hole, action)`
    /// pairs of a failing run. Pairs need not be sorted.
    ///
    /// Returns `true` if the pattern is new.
    ///
    /// An empty pattern means the model fails with *no* hole involvement —
    /// the skeleton is inherently faulty; it is stored and will match every
    /// candidate.
    pub fn insert_sparse(&mut self, mut pairs: SparsePattern) -> bool {
        pairs.sort_unstable();
        pairs.dedup();
        let fresh = if pairs.windows(2).any(|w| w[0].0 == w[1].0) {
            self.conflicting.insert(pairs.clone())
        } else {
            !self.sparse.contains(&pairs, &mut self.scratch)
        };
        if !fresh {
            return false;
        }
        self.sparse.insert(&pairs);
        self.sparse_count += 1;
        true
    }

    /// Should the enumeration subtree rooted at `prefix` be pruned?
    ///
    /// `prefix` is the candidate's first `d` concrete actions; the check is
    /// scoped to patterns that are fully determined by those `d` holes —
    /// exactly the patterns able to doom every candidate in the subtree.
    /// Call this at every depth as the odometer descends (each depth `d`
    /// checks the patterns whose last constrained hole is `d - 1`), or use
    /// [`PatternTable::first_pruned_depth`] to run the whole descent in one
    /// incremental walk.
    pub fn prunes_subtree(&self, prefix: &[u16]) -> bool {
        if self.prefixes.contains(prefix) {
            return true;
        }
        let Some(d) = prefix.len().checked_sub(1) else {
            // Depth 0: only the empty sparse pattern could match.
            return self.sparse.has_empty;
        };
        let mut scratch = Vec::new();
        self.sparse.bucket_matches(d, prefix, &mut scratch)
    }

    /// The shallowest depth `d ≤ max_depth` at which the subtree
    /// `digits[..d]` is pruned, or `None` if no prefix of `digits` up to
    /// `max_depth` matches a pattern.
    ///
    /// Semantically identical to probing [`PatternTable::prunes_subtree`]
    /// at every depth `0..=max_depth`, but walks the prefix trie
    /// incrementally (one child step per depth instead of one root-descent
    /// per depth) and reuses one scratch bitset across the bucket queries.
    ///
    /// Allocates a fresh scratch bitset; the enumeration hot loop should
    /// prefer [`PatternTable::first_pruned_depth_in`], which reuses one
    /// caller-owned buffer across candidates.
    ///
    /// # Panics
    ///
    /// Panics if `max_depth > digits.len()`.
    pub fn first_pruned_depth(&self, digits: &[u16], max_depth: usize) -> Option<usize> {
        self.first_pruned_depth_in(digits, max_depth, &mut Vec::new())
    }

    /// [`PatternTable::first_pruned_depth`] with a caller-owned scratch
    /// bitset, so a worker probing millions of enumeration nodes performs
    /// zero allocations on the query path.
    ///
    /// # Panics
    ///
    /// Panics if `max_depth > digits.len()`.
    pub fn first_pruned_depth_in(
        &self,
        digits: &[u16],
        max_depth: usize,
        scratch: &mut Vec<u64>,
    ) -> Option<usize> {
        assert!(max_depth <= digits.len(), "depth out of range");
        let mut node = Some(PrefixTrie::ROOT);
        for d in 0..=max_depth {
            if let Some(n) = node {
                if self.prefixes.is_terminal(n) {
                    return Some(d);
                }
            }
            let sparse_hit = match d.checked_sub(1) {
                None => self.sparse.has_empty,
                Some(bucket) => self.sparse.bucket_matches(bucket, digits, scratch),
            };
            if sparse_hit {
                return Some(d);
            }
            if d < max_depth {
                node = node.and_then(|n| self.prefixes.child(n, digits[d]));
            }
        }
        None
    }

    /// Reference semantics: does any stored pattern match the *complete*
    /// candidate `digits`? Used by tests to validate the subtree-based
    /// pruning against first principles.
    pub fn matches_candidate(&self, digits: &[u16]) -> bool {
        // Dense prefixes: any terminal node along the digit path matches.
        let mut node = Some(PrefixTrie::ROOT);
        let mut i = 0;
        while let Some(n) = node {
            if self.prefixes.is_terminal(n) {
                return true;
            }
            if i == digits.len() {
                break;
            }
            node = self.prefixes.child(n, digits[i]);
            i += 1;
        }
        if self.sparse.has_empty {
            return true;
        }
        // A sparse pattern in bucket `d` constrains holes `≤ d` only, so it
        // can match iff the candidate covers hole `d`.
        let mut scratch = Vec::new();
        let consultable = digits.len().min(self.sparse.buckets.len());
        (0..consultable).any(|d| self.sparse.bucket_matches(d, digits, &mut scratch))
    }

    /// Merges another table's prefix pattern into this one.
    pub fn merge_prefix(&mut self, prefix: &[u16]) {
        self.insert_prefix(prefix);
    }

    /// Sparse analogue of [`PatternTable::merge_prefix`].
    pub fn merge_sparse(&mut self, pattern: SparsePattern) {
        // Already sorted by the producer; insert_sparse re-sorts defensively.
        self.insert_sparse(pattern);
    }
}

// ---------------------------------------------------------------------------
// Guided enumeration: the propagating view
// ---------------------------------------------------------------------------

/// Incremental pattern-constraint propagation for guided enumeration.
///
/// A `Propagator` owns a [`PatternTable`] and answers the same question as
/// [`PatternTable::first_pruned_depth_in`] — the shallowest pruned depth of
/// a candidate — but *incrementally* across successive probes. It memoizes,
/// watched-literal style, the last probed candidate (`snapshot`), the trie
/// node reached at each depth (`stack`), and — the piece that makes guided
/// probe counts sublinear in the number of pruned subtrees — a per-hole
/// **refuted-action mask**: under the prefix `snapshot[..h]`, bit `a` of
/// `masks[h]` says whether fixing hole `h` to action `a` is pruned at depth
/// `h + 1`. Building the mask answers the depth-`h + 1` check for *every*
/// action of the hole in one pattern-index consultation, so when a skip
/// bumps one digit and lands on another refuted sibling — or when a deep
/// excursion carries back to a hole probed before — the verdict is a
/// cached bit test, not a fresh consultation.
///
/// `probes` therefore counts pattern-index consultations (mask builds plus
/// the rare `action ≥ 64` direct checks), the unit of pruning work guided
/// enumeration exists to shrink; the lexicographic baseline pays one such
/// consultation per depth per candidate.
///
/// ## Invalidation invariants
///
/// * `verified` — depths `0..verified` are known non-pruned for `snapshot`
///   against the *current* table. A probe of new digits keeps
///   `min(verified, lcp + 1)` (depth `j` reads only `digits[..j]`, so an
///   edit at position `lcp` first invalidates depth `lcp + 1`); a sparse
///   insert with highest hole `h` is consulted at depth `h + 1` only, so
///   `verified = min(verified, h + 1)`.
/// * `coherent` — for holes `h < coherent`, `stack[h]` is the trie node
///   for `snapshot[..h]` and `mask_ok[h]` governs `masks[h]` for that
///   prefix. Prefix-structural only: a probe keeps
///   `min(coherent, lcp + 1)`; always `coherent ≥ verified`.
/// * `mask_ok[h]` — `masks[h]` is current w.r.t. the table. A sparse
///   insert with highest hole `h` clears exactly `mask_ok[h]` (only bucket
///   `h` changed); the empty sparse pattern matches at depth 0 and resets
///   `verified`.
/// * A **new dense insert invalidates everything** (`verified = coherent =
///   0`): insertion can create trie nodes along any shared prefix, so a
///   cached `None` stack entry — and every mask's dense part — may go
///   stale at arbitrary depths. Inserts are ~10³ per run against ~10⁶
///   probes, so the full reset is cheap where a finer rule would be
///   unsound.
#[derive(Debug, Clone, Default)]
pub struct Propagator {
    table: PatternTable,
    /// The digits of the last probe.
    snapshot: Vec<u16>,
    /// Depths `0..verified` are verified non-pruned against `snapshot`.
    verified: usize,
    /// Holes `0..coherent` have `stack`/`masks` entries matching
    /// `snapshot`'s prefix.
    coherent: usize,
    /// `stack[h]` = trie node for `snapshot[..h]` (`None` once the path
    /// leaves the trie), coherent for `h < coherent`.
    stack: Vec<Option<NodeId>>,
    /// `masks[h]` = refuted-action bitmask of hole `h` under
    /// `snapshot[..h]`, meaningful iff `h < coherent && mask_ok[h]`.
    masks: Vec<u64>,
    /// Table-freshness of each cached mask.
    mask_ok: Vec<bool>,
    /// Reusable bitset for bucket queries.
    scratch: Vec<u64>,
    /// Pattern-index consultations performed (mask builds + direct
    /// checks) — the probe metric guided enumeration exists to shrink.
    probes: u64,
}

impl Propagator {
    /// Creates a propagator over an empty pattern table.
    pub fn new() -> Self {
        Propagator::default()
    }

    /// The underlying pattern table.
    pub fn table(&self) -> &PatternTable {
        &self.table
    }

    /// Per-depth pattern consultations performed so far.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Records a dense prefix pattern; returns `true` if new.
    pub fn insert_prefix(&mut self, prefix: &[u16]) -> bool {
        let fresh = self.table.insert_prefix(prefix);
        if fresh {
            // Insertion may have created trie nodes under any cached `None`
            // stack entry, and every mask's dense part reads the trie:
            // nothing memoized survives.
            self.verified = 0;
            self.coherent = 0;
        }
        fresh
    }

    /// Records a sparse pattern; returns `true` if new.
    pub fn insert_sparse(&mut self, pairs: SparsePattern) -> bool {
        // The table sorts before storing; the highest hole is the max pair.
        let watched = pairs.iter().map(|&(h, _)| h as usize).max();
        let fresh = self.table.insert_sparse(pairs);
        if fresh {
            match watched {
                // The new pattern lives in bucket `h`, consulted at depth
                // `h + 1` only: that depth's verdict and hole `h`'s cached
                // mask are stale, everything else stands.
                Some(h) => {
                    self.verified = self.verified.min(h + 1);
                    if let Some(ok) = self.mask_ok.get_mut(h) {
                        *ok = false;
                    }
                }
                // Empty pattern: matches everything from depth 0.
                None => self.verified = 0,
            }
        }
        fresh
    }

    /// The shallowest depth `d ≤ max_depth` at which the subtree
    /// `digits[..d]` is pruned, or `None` — identical to
    /// [`PatternTable::first_pruned_depth_in`] on the owned table, verified
    /// incrementally from the first digit that differs from the previous
    /// probe and answered from the per-hole refuted-action masks.
    ///
    /// The depth-`d` check for `d ≥ 1` is bit `digits[d - 1]` of hole
    /// `d - 1`'s mask: one consultation builds the verdict for every
    /// action of that hole under the current prefix, so the skip-and-
    /// reprobe loop pays a fresh probe only when it reaches a hole whose
    /// prefix it has not seen before (≈ once per consistent internal node
    /// of the search tree), not once per refuted sibling.
    ///
    /// While the table is empty — throughout a naïve run — nothing is
    /// pruned and no probe is counted. The memo stays at rest until the
    /// first pattern arrives, and patterns only grow.
    ///
    /// # Panics
    ///
    /// Panics if `max_depth > digits.len()`.
    pub fn first_pruned_depth(&mut self, digits: &[u16], max_depth: usize) -> Option<usize> {
        assert!(max_depth <= digits.len(), "depth out of range");
        if self.table.is_empty() {
            return None;
        }
        if self.stack.len() < max_depth + 1 {
            self.stack.resize(max_depth + 1, None);
            self.masks.resize(max_depth + 1, 0);
            self.mask_ok.resize(max_depth + 1, false);
        }
        self.stack[0] = Some(PrefixTrie::ROOT);
        if self.snapshot.len() != digits.len() {
            // Width changed (new generation): nothing carries over.
            self.verified = 0;
            self.coherent = 0;
        }
        // Depth `d`'s checks read `digits[..d]` only, so the shallowest
        // depth an edit at position `lcp` can invalidate is `lcp + 1`:
        // every verified depth up to *and including* the longest common
        // prefix with the snapshot stands, and so does hole `lcp`'s cached
        // mask. (This is the watched-literal payoff: a skip at depth `d`
        // bumps digit `d - 1`, leaving `lcp = d - 1`, so the sibling's
        // depth-`d` verdict is a bit test against the mask built when the
        // run's first member was probed.)
        let lcp = digits
            .iter()
            .zip(&self.snapshot)
            .take_while(|(a, b)| a == b)
            .count();
        self.coherent = self.coherent.min(lcp + 1);
        let start = self.verified.min(lcp + 1).min(max_depth);
        self.snapshot.clear();
        self.snapshot.extend_from_slice(digits);
        for d in start..=max_depth {
            let pruned = if d == 0 {
                // Depth 0: the whole space. Two flag reads, no index
                // consultation — not a probe.
                self.table.sparse.has_empty || self.table.prefixes.is_terminal(PrefixTrie::ROOT)
            } else {
                let h = d - 1;
                if h >= self.coherent {
                    if h > 0 {
                        // Extend the trie path into the changed suffix
                        // (hole `h - 1` is coherent: either `< coherent`
                        // on entry or recomputed by a previous iteration).
                        self.stack[h] = self.stack[h - 1]
                            .and_then(|n| self.table.prefixes.child(n, digits[h - 1]));
                    }
                    self.mask_ok[h] = false;
                    self.coherent = h + 1;
                }
                let a = digits[h] as usize;
                if a < 64 {
                    if !self.mask_ok[h] {
                        self.masks[h] = self.build_mask(digits, h);
                        self.mask_ok[h] = true;
                    }
                    self.masks[h] >> a & 1 == 1
                } else {
                    // Hole arity beyond the mask width: fall back to a
                    // direct single-action check.
                    self.probes += 1;
                    let dense = self.stack[h]
                        .and_then(|n| self.table.prefixes.child(n, digits[h]))
                        .is_some_and(|n| self.table.prefixes.is_terminal(n));
                    dense
                        || self
                            .table
                            .sparse
                            .bucket_matches(h, digits, &mut self.scratch)
                }
            };
            if pruned {
                self.verified = d;
                return Some(d);
            }
        }
        self.verified = max_depth + 1;
        None
    }

    /// Builds hole `h`'s refuted-action mask under the prefix
    /// `digits[..h]`: bit `a` is set iff fixing hole `h` to action `a`
    /// prunes at depth `h + 1` (dense terminal child of the prefix's trie
    /// node, or a bucket-`h` sparse match). One probe answers the depth
    /// check for every action `< 64` of the hole.
    fn build_mask(&mut self, digits: &[u16], h: usize) -> u64 {
        self.probes += 1;
        let mut mask = 0u64;
        if let Some(node) = self.stack[h] {
            for &(digit, child) in &self.table.prefixes.nodes[node as usize].children {
                if digit < 64 && self.table.prefixes.is_terminal(child) {
                    mask |= 1u64 << digit;
                }
            }
        }
        if let Some(bucket) = self.table.sparse.buckets.get(h) {
            mask |= bucket.refuted_action_mask(digits, h as u16, 64, &mut self.scratch);
        }
        mask
    }
}

// ---------------------------------------------------------------------------
// The reference implementation (differential oracle)
// ---------------------------------------------------------------------------

/// The pre-index pattern table: a hashed prefix set plus per-bucket linear
/// scans.
///
/// This is the *executable specification* of the pattern-table semantics —
/// deliberately simple, obviously correct, and O(bucket) per query. It
/// survives for two purposes only:
///
/// * the differential oracle: `tests/pattern_index_differential.rs` drives
///   randomized operation sequences through this table and [`PatternTable`]
///   and asserts observational equivalence at every step;
/// * the baseline of the `pattern_index` microbench, which quantifies the
///   scan → trie / inverted-index speedup (`BENCH_patterns.json`).
///
/// Production code must use [`PatternTable`]; this table is compiled only
/// for tests and under the `reference` feature.
#[cfg(any(test, feature = "reference"))]
#[derive(Debug, Default, Clone)]
pub struct ReferencePatternTable {
    /// Dense prefixes, hashed for whole-prefix probes.
    prefixes: FnvHashSet<Vec<u16>>,
    /// Sparse patterns bucketed by their highest mentioned hole.
    sparse: Vec<Vec<SparsePattern>>,
    /// De-duplication of sparse inserts.
    sparse_seen: FnvHashSet<SparsePattern>,
    /// Total number of distinct patterns inserted.
    inserted: usize,
}

#[cfg(any(test, feature = "reference"))]
impl ReferencePatternTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ReferencePatternTable::default()
    }

    /// Number of distinct patterns stored.
    pub fn len(&self) -> usize {
        self.inserted
    }

    /// `true` if no pattern has been recorded.
    pub fn is_empty(&self) -> bool {
        self.inserted == 0
    }

    /// Records a dense prefix pattern; returns `true` if new.
    pub fn insert_prefix(&mut self, prefix: &[u16]) -> bool {
        if self.prefixes.insert(prefix.to_vec()) {
            self.inserted += 1;
            true
        } else {
            false
        }
    }

    /// Records a sparse pattern (pairs need not be sorted); returns `true`
    /// if new.
    pub fn insert_sparse(&mut self, mut pairs: SparsePattern) -> bool {
        pairs.sort_unstable();
        pairs.dedup();
        if !self.sparse_seen.insert(pairs.clone()) {
            return false;
        }
        let max_pos = pairs.last().map_or(0, |&(p, _)| p as usize);
        if self.sparse.len() <= max_pos {
            self.sparse.resize_with(max_pos + 1, Vec::new);
        }
        self.sparse[max_pos].push(pairs);
        self.inserted += 1;
        true
    }

    /// Linear-scan subtree check: hash-probe the whole prefix, then scan
    /// every sparse pattern in the depth bucket.
    pub fn prunes_subtree(&self, prefix: &[u16]) -> bool {
        if self.prefixes.contains(prefix) {
            return true;
        }
        let Some(d) = prefix.len().checked_sub(1) else {
            return self.sparse_seen.contains(&Vec::new());
        };
        if let Some(bucket) = self.sparse.get(d) {
            for pat in bucket {
                if pat.iter().all(|&(p, a)| prefix[p as usize] == a) {
                    return true;
                }
            }
        }
        false
    }

    /// Loop-of-[`ReferencePatternTable::prunes_subtree`] reference for
    /// [`PatternTable::first_pruned_depth`].
    ///
    /// # Panics
    ///
    /// Panics if `max_depth > digits.len()`.
    pub fn first_pruned_depth(&self, digits: &[u16], max_depth: usize) -> Option<usize> {
        assert!(max_depth <= digits.len(), "depth out of range");
        (0..=max_depth).find(|&d| self.prunes_subtree(&digits[..d]))
    }

    /// First-principles whole-candidate match.
    pub fn matches_candidate(&self, digits: &[u16]) -> bool {
        for len in 0..=digits.len() {
            if self.prefixes.contains(&digits[..len]) {
                return true;
            }
        }
        self.sparse_seen.contains(&Vec::new())
            || self.sparse.iter().flatten().any(|pat| {
                pat.iter()
                    .all(|&(p, a)| (p as usize) < digits.len() && digits[p as usize] == a)
            })
    }

    /// Merge entry point mirroring [`PatternTable::merge_prefix`].
    pub fn merge_prefix(&mut self, prefix: &[u16]) {
        self.insert_prefix(prefix);
    }

    /// Merge entry point mirroring [`PatternTable::merge_sparse`].
    pub fn merge_sparse(&mut self, pattern: SparsePattern) {
        self.insert_sparse(pattern);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_insert_and_subtree_check() {
        let mut t = PatternTable::new();
        assert!(t.insert_prefix(&[0]));
        assert!(!t.insert_prefix(&[0]), "duplicate not re-counted");
        assert!(t.insert_prefix(&[1, 1]));
        assert_eq!(t.len(), 2);
        assert_eq!(t.dense_len(), 2);
        assert_eq!(t.sparse_len(), 0);

        assert!(t.prunes_subtree(&[0]));
        assert!(!t.prunes_subtree(&[1]));
        assert!(t.prunes_subtree(&[1, 1]));
        assert!(!t.prunes_subtree(&[1, 0]));
    }

    #[test]
    fn sparse_dedup_reads_the_index() {
        let mut t = PatternTable::new();
        assert!(t.insert_sparse(vec![(3, 1), (0, 2)]));
        assert!(
            !t.insert_sparse(vec![(0, 2), (3, 1), (0, 2)]),
            "same pattern"
        );
        // Sub- and super-patterns and other actions are distinct patterns.
        assert!(t.insert_sparse(vec![(3, 1)]));
        assert!(t.insert_sparse(vec![(0, 2), (1, 0), (3, 1)]));
        assert!(t.insert_sparse(vec![(0, 1), (3, 1)]));
        assert!(!t.insert_sparse(vec![(3, 1)]));
        // A hole named twice: distinct by value, never equal to a
        // conflict-free pattern on the same holes.
        assert!(t.insert_sparse(vec![(0, 1), (0, 2), (3, 1)]));
        assert!(t.insert_sparse(vec![(0, 0), (0, 2), (3, 1)]));
        assert!(!t.insert_sparse(vec![(0, 2), (3, 1), (0, 1)]));
        assert!(t.insert_sparse(vec![]));
        assert!(!t.insert_sparse(vec![]));
        assert_eq!(t.sparse_len(), 7);
    }

    #[test]
    fn matches_candidate_reference_semantics() {
        let mut t = PatternTable::new();
        t.insert_prefix(&[2]);
        assert!(t.matches_candidate(&[2, 0, 1]));
        assert!(t.matches_candidate(&[2]));
        assert!(!t.matches_candidate(&[0, 2]));
    }

    #[test]
    fn sparse_patterns_prune_mid_vector() {
        let mut t = PatternTable::new();
        // "hole 0 = A and hole 2 = B fails, whatever hole 1 is"
        assert!(t.insert_sparse(vec![(2, 1), (0, 0)]));
        assert!(
            !t.insert_sparse(vec![(0, 0), (2, 1)]),
            "same pattern, sorted"
        );
        assert_eq!(t.sparse_len(), 1);

        // Subtree checks: nothing decidable before hole 2 is fixed.
        assert!(!t.prunes_subtree(&[0]));
        assert!(!t.prunes_subtree(&[0, 5]));
        assert!(t.prunes_subtree(&[0, 5, 1]));
        assert!(!t.prunes_subtree(&[0, 5, 0]));
        assert!(!t.prunes_subtree(&[1, 5, 1]));

        assert!(t.matches_candidate(&[0, 9, 1, 4]));
        assert!(!t.matches_candidate(&[0, 9, 0, 4]));
    }

    #[test]
    fn empty_sparse_pattern_matches_everything() {
        let mut t = PatternTable::new();
        t.insert_sparse(vec![]);
        assert!(t.prunes_subtree(&[]));
        assert!(t.matches_candidate(&[0, 1, 2]));
        assert!(t.matches_candidate(&[]));
    }

    #[test]
    fn empty_table_matches_nothing() {
        let t = PatternTable::new();
        assert!(!t.prunes_subtree(&[]));
        assert!(!t.prunes_subtree(&[0]));
        assert!(!t.matches_candidate(&[0, 0]));
        assert!(t.is_empty());
    }

    #[test]
    fn merge_counts_new_only() {
        let mut t = PatternTable::new();
        t.merge_prefix(&[1]);
        t.merge_prefix(&[1]);
        t.merge_sparse(vec![(0, 1)]);
        t.merge_sparse(vec![(0, 1)]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn first_pruned_depth_matches_per_depth_probes() {
        let mut t = PatternTable::new();
        t.insert_prefix(&[1, 2]);
        t.insert_sparse(vec![(0, 0), (3, 1)]);

        let probe = |digits: &[u16]| -> Option<usize> {
            (0..=digits.len()).find(|&d| t.prunes_subtree(&digits[..d]))
        };
        for digits in [
            vec![1u16, 2, 0, 0],
            vec![1, 3, 0, 1],
            vec![0, 9, 9, 1],
            vec![0, 9, 9, 0],
            vec![2, 2, 2, 2],
        ] {
            assert_eq!(
                t.first_pruned_depth(&digits, digits.len()),
                probe(&digits),
                "digits {digits:?}"
            );
        }
        assert_eq!(t.first_pruned_depth(&[1, 2, 0, 0], 1), None, "depth-capped");
    }

    #[test]
    fn contradictory_pattern_is_unsatisfiable() {
        // Two actions demanded of one hole: conjunction semantics say the
        // pattern can never match (caught by the differential suite).
        let mut t = PatternTable::new();
        let mut r = ReferencePatternTable::new();
        assert_eq!(
            t.insert_sparse(vec![(2, 1), (2, 3)]),
            r.insert_sparse(vec![(2, 1), (2, 3)])
        );
        for a in 0..5u16 {
            let prefix = [0, 0, a];
            assert!(!t.prunes_subtree(&prefix), "digit {a}");
            assert_eq!(t.prunes_subtree(&prefix), r.prunes_subtree(&prefix));
            assert!(!t.matches_candidate(&prefix));
        }
        assert_eq!(t.len(), 1, "still counted as a stored pattern");
    }

    #[test]
    fn inverted_index_spans_block_boundaries() {
        // >64 patterns in one bucket forces multi-block bitsets; every
        // pattern must stay individually addressable.
        let mut t = PatternTable::new();
        let mut r = ReferencePatternTable::new();
        for i in 0..200u16 {
            let pat = vec![(0, i), (2, i % 3)];
            assert_eq!(t.insert_sparse(pat.clone()), r.insert_sparse(pat));
        }
        for a in 0..210u16 {
            for b in 0..4u16 {
                let prefix = [a, 7, b];
                assert_eq!(
                    t.prunes_subtree(&prefix),
                    r.prunes_subtree(&prefix),
                    "prefix {prefix:?}"
                );
            }
        }
        assert_eq!(t.len(), r.len());
    }

    /// Probes the propagator and the table side by side, asserting they
    /// agree at every step.
    fn probe_both(p: &mut Propagator, digits: &[u16], max_depth: usize) -> Option<usize> {
        let expect = p
            .table()
            .first_pruned_depth_in(digits, max_depth, &mut Vec::new());
        let got = p.first_pruned_depth(digits, max_depth);
        assert_eq!(got, expect, "digits {digits:?} max_depth {max_depth}");
        got
    }

    #[test]
    fn propagator_matches_table_across_probes_and_inserts() {
        let mut p = Propagator::new();
        assert_eq!(probe_both(&mut p, &[0, 0, 0], 3), None);
        assert!(p.insert_prefix(&[0, 1]));
        assert_eq!(probe_both(&mut p, &[0, 0, 0], 3), None);
        assert_eq!(probe_both(&mut p, &[0, 1, 0], 3), Some(2));
        assert_eq!(probe_both(&mut p, &[0, 2, 0], 3), None);
        assert!(p.insert_sparse(vec![(0, 0), (2, 1)]));
        assert_eq!(probe_both(&mut p, &[0, 2, 0], 3), None);
        assert_eq!(probe_both(&mut p, &[0, 2, 1], 3), Some(3));
        assert_eq!(probe_both(&mut p, &[1, 2, 1], 3), None);
        // Duplicate inserts change nothing and invalidate nothing.
        assert!(!p.insert_prefix(&[0, 1]));
        assert!(!p.insert_sparse(vec![(2, 1), (0, 0)]));
        assert_eq!(probe_both(&mut p, &[1, 2, 1], 3), None);
    }

    #[test]
    fn propagator_dense_insert_invalidates_cached_trie_misses() {
        // The staleness trap a prefix-scoped invalidation rule would fall
        // into: a cached `None` stack entry at a shallow depth goes stale
        // when a later insert creates trie nodes along the shared prefix.
        let mut p = Propagator::new();
        // Probe [2,3] over the empty trie: path leaves the trie at depth 1.
        assert_eq!(probe_both(&mut p, &[2, 3], 2), None);
        // Insert [2,5]: creates the node for prefix [2].
        assert!(p.insert_prefix(&[2, 5]));
        // Re-probe [2,5]: shares digit 0 with the snapshot, so a
        // min(valid, lcp) rule would trust the stale `None` at depth 1 and
        // miss the hit.
        assert_eq!(probe_both(&mut p, &[2, 5], 2), Some(2));
    }

    #[test]
    fn propagator_empty_sparse_pattern_resets_to_depth_zero() {
        let mut p = Propagator::new();
        assert_eq!(probe_both(&mut p, &[0, 0], 2), None);
        assert!(p.insert_sparse(vec![]));
        assert_eq!(probe_both(&mut p, &[0, 0], 2), Some(0));
        assert_eq!(probe_both(&mut p, &[1, 1], 2), Some(0));
    }

    #[test]
    fn propagator_handles_width_changes_across_generations() {
        let mut p = Propagator::new();
        p.insert_prefix(&[1]);
        assert_eq!(probe_both(&mut p, &[1, 0], 2), Some(1));
        assert_eq!(probe_both(&mut p, &[0, 0], 2), None);
        // Wider generation: verified depths must not leak across.
        assert_eq!(probe_both(&mut p, &[0, 0, 0, 0], 4), None);
        assert_eq!(probe_both(&mut p, &[1, 0, 0, 0], 4), Some(1));
        // Narrower again.
        assert_eq!(probe_both(&mut p, &[1], 1), Some(1));
    }

    #[test]
    fn propagator_counts_probes_incrementally() {
        let mut p = Propagator::new();
        p.insert_prefix(&[3]);
        // First probe: one mask build per hole (depth 0 is flag reads).
        assert_eq!(p.first_pruned_depth(&[0, 0, 0, 0], 4), None);
        assert_eq!(p.probes(), 4);
        // Identical probe: the re-checked depth answers from its cached
        // mask — no consultation at all.
        assert_eq!(p.first_pruned_depth(&[0, 0, 0, 0], 4), None);
        assert_eq!(p.probes(), 4);
        // Change the last digit: hole 3's mask covers every action of the
        // hole, so the sibling's depth-4 verdict is a free bit test.
        assert_eq!(p.first_pruned_depth(&[0, 0, 0, 1], 4), None);
        assert_eq!(p.probes(), 4);
        // A sparse insert watching hole 2 stales exactly that hole's mask:
        // one rebuild, and hole 3's cached mask still stands.
        p.insert_sparse(vec![(2, 1)]);
        assert_eq!(p.first_pruned_depth(&[0, 0, 0, 1], 4), None);
        assert_eq!(p.probes(), 5);
        // A hit pays for the freshly staled mask once...
        p.insert_sparse(vec![(3, 0)]);
        assert_eq!(p.first_pruned_depth(&[0, 0, 0, 0], 4), Some(4));
        assert_eq!(p.probes(), 6);
        // ...and the refuted candidate's sibling rides the same mask free.
        assert_eq!(p.first_pruned_depth(&[0, 0, 0, 1], 4), None);
        assert_eq!(p.probes(), 6);
    }

    #[test]
    fn reference_table_agrees_on_the_unit_cases() {
        let mut t = ReferencePatternTable::new();
        assert!(t.insert_prefix(&[0]));
        assert!(t.insert_sparse(vec![(2, 1), (0, 0)]));
        assert!(!t.insert_sparse(vec![(0, 0), (2, 1)]));
        assert_eq!(t.len(), 2);
        assert!(t.prunes_subtree(&[0]));
        assert!(t.prunes_subtree(&[0, 5, 1]));
        assert!(!t.prunes_subtree(&[1, 5, 0]));
        assert!(t.matches_candidate(&[0, 9, 1, 4]));
        assert_eq!(t.first_pruned_depth(&[0, 5, 1], 3), Some(1), "prefix hit");
        assert_eq!(t.first_pruned_depth(&[1, 5, 1], 3), None);

        let mut sparse_only = ReferencePatternTable::new();
        sparse_only.insert_sparse(vec![(0, 0), (2, 1)]);
        assert_eq!(
            sparse_only.first_pruned_depth(&[0, 5, 1], 3),
            Some(3),
            "sparse hit once hole 2 is fixed"
        );
        assert_eq!(sparse_only.first_pruned_depth(&[0, 5, 0], 3), None);
    }
}
