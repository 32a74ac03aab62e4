//! Deterministic fault injection for crash-safety testing.
//!
//! The checker and the synthesis layer above it contain a handful of
//! *failpoints* — named probe sites on the paths whose failure modes the
//! crash-safety suites exercise: worker-pool job entry, parallel chunk
//! expansion, claim-table probes, and the synthesis journal writer. In a
//! normal build every probe compiles to an empty inline function; with the
//! `failpoints` cargo feature the probes consult a process-global registry
//! that tests arm through `arm` (feature-gated, like the rest of the
//! mutation API in this module).
//!
//! A fault is **one-shot and countdown-based**: `arm(site, n)` makes the
//! probe at `site` fire on its `n`-th subsequent hit (0 = the very next
//! hit), after which the site disarms itself. This makes "panic at the
//! k-th chunk" and "tear the k-th journal record" deterministic and
//! enumerable — a test first runs the workload clean, reads the hit count
//! with `hit_count`, then replays it once per possible firing position.
//!
//! Probe flavours:
//!
//! * [`probe_panic`] — panics with a recognizable message when the fault
//!   fires. Used at the worker-pool and chunk-expansion sites, where a
//!   fired fault models a panic in user protocol code.
//! * [`fires`] — returns `true` when the fault fires, for sites that
//!   simulate a non-panic failure in-line (the journal writer tears the
//!   in-flight record, then panics itself, modelling a crash mid-write).
//!
//! The registry is process-global, so tests that arm faults must not run
//! concurrently with each other; take `exclusive` for the duration of
//! each such test.

/// Failpoint site names used by this workspace (see each call site).
pub mod site {
    /// Entry of every job of the parallel checker's worker pool, inside the
    /// pool's panic-isolation scope.
    pub const POOL_JOB: &str = "pool.job";
    /// Start of each parallel expansion chunk (`Engine::expand_chunk`).
    pub const EXPAND_CHUNK: &str = "checker.expand_chunk";
    /// Every claim-table probe of the parallel checker.
    pub const CLAIM_PROBE: &str = "checker.claim_probe";
    /// Each record append of the synthesis progress journal (fires =
    /// torn write: half the frame is written, then the writer panics).
    pub const JOURNAL_APPEND: &str = "journal.append";
}

#[cfg(feature = "failpoints")]
mod imp {
    use parking_lot::{Mutex, MutexGuard};
    use std::collections::HashMap;

    #[derive(Default)]
    struct Site {
        hits: u64,
        /// Remaining hits to skip before firing; `None` = disarmed.
        countdown: Option<u64>,
    }

    fn registry() -> &'static Mutex<HashMap<&'static str, Site>> {
        static REGISTRY: std::sync::OnceLock<Mutex<HashMap<&'static str, Site>>> =
            std::sync::OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Arms `site` to fire once, on its `after_hits`-th subsequent hit
    /// (0 = the next hit). Re-arming replaces any previous countdown.
    pub fn arm(site: &'static str, after_hits: u64) {
        registry().lock().entry(site).or_default().countdown = Some(after_hits);
    }

    /// Disarms every site and resets all hit counters.
    pub fn disarm_all() {
        registry().lock().clear();
    }

    /// Total probe hits recorded at `site` since the last [`disarm_all`].
    pub fn hit_count(site: &'static str) -> u64 {
        registry().lock().get(site).map_or(0, |s| s.hits)
    }

    /// Records a hit at `site`; `true` exactly when an armed fault fires.
    pub fn fires(site: &'static str) -> bool {
        let mut reg = registry().lock();
        let entry = reg.entry(site).or_default();
        entry.hits += 1;
        match entry.countdown {
            Some(0) => {
                entry.countdown = None;
                true
            }
            Some(n) => {
                entry.countdown = Some(n - 1);
                false
            }
            None => false,
        }
    }

    /// Panics with a recognizable message if an armed fault fires at `site`.
    pub fn probe_panic(site: &'static str) {
        if fires(site) {
            panic!("injected fault at {site}");
        }
    }

    /// Serializes fault-injection tests: the registry is process-global, so
    /// any test that arms a fault must hold this guard until it has called
    /// [`disarm_all`] again.
    pub fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: std::sync::OnceLock<Mutex<()>> = std::sync::OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(())).lock()
    }
}

#[cfg(feature = "failpoints")]
pub use imp::{arm, disarm_all, exclusive, fires, hit_count, probe_panic};

/// Records a hit at `site`; `true` exactly when an armed fault fires.
/// No-op (always `false`) without the `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn fires(_site: &'static str) -> bool {
    false
}

/// Panics if an armed fault fires at `site`. No-op without the
/// `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn probe_panic(_site: &'static str) {}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    #[test]
    fn countdown_fires_once_at_the_armed_hit() {
        let _guard = exclusive();
        disarm_all();
        arm(site::POOL_JOB, 2);
        assert!(!fires(site::POOL_JOB));
        assert!(!fires(site::POOL_JOB));
        assert!(fires(site::POOL_JOB), "third hit fires");
        assert!(!fires(site::POOL_JOB), "one-shot: disarmed after firing");
        assert_eq!(hit_count(site::POOL_JOB), 4);
        disarm_all();
        assert_eq!(hit_count(site::POOL_JOB), 0);
    }

    #[test]
    fn probe_panic_carries_the_site_name() {
        let _guard = exclusive();
        disarm_all();
        arm(site::EXPAND_CHUNK, 0);
        let err = std::panic::catch_unwind(|| probe_panic(site::EXPAND_CHUNK))
            .expect_err("armed probe must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(site::EXPAND_CHUNK), "got: {msg}");
        disarm_all();
    }
}
