//! The hole registry: the one table of lazily discovered holes.
//!
//! The synthesis procedure "starts without knowledge of any holes" (§II):
//! holes are registered the first time the model checker executes a rule that
//! consults them. The registry assigns each hole a dense identifier in
//! discovery order — the index of its entry in the *candidate configuration
//! vector* — and remembers its action library.
//!
//! The checker owns every step of that discovery. A [`crate::CheckSession`]
//! is opened over the registry its hole ids refer to
//! ([`crate::Checker::session`]); the consultant every rule application
//! receives ([`crate::eval`]) looks each consulted hole up here, and the
//! walk registers the first sightings it reached at the end of each layer,
//! in the serial order. A caller's resolver sees only the hole and its id.
//!
//! Concurrency: the parallel synthesis driver shares one registry across all
//! worker threads. The paper notes that "to check if a hole has already been
//! discovered and obtain its current action has been made lock-free" after it
//! showed up as the main contention source. We achieve the same effect
//! differently: each consultant keeps a name→id cache, which a session banks
//! and re-seeds across chunks and checks, so the shared registry — a
//! `parking_lot` RwLock — is consulted only on genuine discoveries and
//! first sightings per cache, plus a lock-free atomic counter for the
//! commonly polled "how many holes are known" question.

use crate::eval::HoleSpec;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Dense identifier of a discovered hole: its position in the candidate
/// configuration vector (discovery order).
pub type HoleId = usize;

/// Immutable information about a discovered hole.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoleInfo {
    /// The hole's stable name.
    pub name: String,
    /// Names of the candidate actions, in index order.
    pub actions: Vec<String>,
}

impl HoleInfo {
    /// Number of candidate actions.
    pub fn arity(&self) -> usize {
        self.actions.len()
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    by_name: HashMap<String, HoleId>,
    holes: Vec<HoleInfo>,
}

/// Thread-safe registry of lazily discovered holes.
///
/// Create one fresh registry per synthesis generation (or per one-shot
/// check); hole identifiers are meaningful only relative to their registry.
#[derive(Debug, Default)]
pub struct HoleRegistry {
    inner: RwLock<RegistryInner>,
    count: AtomicUsize,
}

impl HoleRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of holes discovered so far (lock-free).
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// `true` if no hole has been discovered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a hole by name *without* registering it — the read-only
    /// probe behind deferred discovery, where a consultant must answer a
    /// fresh hole before the walk registers it at the next deterministic
    /// sequence point.
    pub fn lookup(&self, name: &str) -> Option<HoleId> {
        self.inner.read().by_name.get(name).copied()
    }

    /// Looks up a hole by name, registering it on first sight.
    ///
    /// Returns the hole's identifier and whether this call performed the
    /// registration (i.e. the hole was *discovered* just now).
    ///
    /// # Panics
    ///
    /// Panics if `spec` re-declares a known hole with a different action
    /// library: each hole name must keep one library for the whole run, or
    /// candidate vectors and pruning patterns would silently change meaning.
    pub fn resolve_or_register(&self, spec: &HoleSpec) -> (HoleId, bool) {
        // Release the read guard before `check_consistent` reads again: a
        // recursive read queued behind a waiting writer deadlocks.
        let known = self.inner.read().by_name.get(spec.name()).copied();
        if let Some(id) = known {
            self.check_consistent(id, spec);
            return (id, false);
        }
        let mut inner = self.inner.write();
        // Double-check under the write lock: another thread may have won.
        if let Some(&id) = inner.by_name.get(spec.name()) {
            drop(inner);
            self.check_consistent(id, spec);
            return (id, false);
        }
        let id = inner.holes.len();
        inner.by_name.insert(spec.name().to_owned(), id);
        inner.holes.push(HoleInfo {
            name: spec.name().to_owned(),
            actions: spec.actions().to_vec(),
        });
        self.count.store(inner.holes.len(), Ordering::Release);
        (id, true)
    }

    fn check_consistent(&self, id: HoleId, spec: &HoleSpec) {
        let inner = self.inner.read();
        let known = &inner.holes[id];
        assert!(
            known.actions.len() == spec.arity()
                && known
                    .actions
                    .iter()
                    .zip(spec.actions())
                    .all(|(a, b)| a == b),
            "hole `{}` re-declared with a different action library \
             (was {:?}, now {:?})",
            spec.name(),
            known.actions,
            spec.actions(),
        );
    }

    /// The arity (action count) of a hole.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a registered hole.
    pub fn arity(&self, id: HoleId) -> usize {
        self.inner.read().holes[id].arity()
    }

    /// The arities of holes `0..n`, the radices of the candidate odometer.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` holes are registered.
    pub fn arities(&self, n: usize) -> Vec<u32> {
        let inner = self.inner.read();
        assert!(n <= inner.holes.len());
        inner.holes[..n].iter().map(|h| h.arity() as u32).collect()
    }

    /// Clones the current hole table (id order).
    pub fn snapshot(&self) -> Vec<HoleInfo> {
        self.inner.read().holes.clone()
    }

    /// Names of the holes with ids `start..len()`, in id order — i.e. the
    /// holes discovered since `len()` was last observed as `start`.
    pub fn names_from(&self, start: usize) -> Vec<String> {
        let inner = self.inner.read();
        inner
            .holes
            .get(start..)
            .unwrap_or(&[])
            .iter()
            .map(|h| h.name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, n: usize) -> HoleSpec {
        HoleSpec::new(name, (0..n).map(|i| format!("a{i}")))
    }

    #[test]
    fn discovery_assigns_dense_ids_in_order() {
        let reg = HoleRegistry::new();
        assert!(reg.is_empty());
        let (id0, new0) = reg.resolve_or_register(&spec("x", 2));
        let (id1, new1) = reg.resolve_or_register(&spec("y", 3));
        let (id0b, new0b) = reg.resolve_or_register(&spec("x", 2));
        assert_eq!((id0, new0), (0, true));
        assert_eq!((id1, new1), (1, true));
        assert_eq!((id0b, new0b), (0, false));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.arities(2), vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "different action library")]
    fn inconsistent_redeclaration_panics() {
        let reg = HoleRegistry::new();
        reg.resolve_or_register(&spec("x", 2));
        reg.resolve_or_register(&spec("x", 3));
    }

    #[test]
    fn snapshot_reflects_registrations() {
        let reg = HoleRegistry::new();
        reg.resolve_or_register(&spec("x", 2));
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].name, "x");
        assert_eq!(snap[0].arity(), 2);
    }

    #[test]
    fn concurrent_registration_is_consistent() {
        use std::sync::Arc;
        let reg = Arc::new(HoleRegistry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let mut ids = Vec::new();
                    for h in 0..16 {
                        let (id, _) = reg.resolve_or_register(&spec(&format!("h{h}"), 2));
                        ids.push((h, id));
                    }
                    ids
                })
            })
            .collect();
        let all: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every thread must agree on every hole's id.
        for ids in &all[1..] {
            for ((h1, id1), (h2, id2)) in all[0].iter().zip(ids) {
                assert_eq!(h1, h2);
                assert_eq!(id1, id2);
            }
        }
        assert_eq!(reg.len(), 16);
    }
}
