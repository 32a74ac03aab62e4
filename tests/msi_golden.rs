//! Integration tests: the golden MSI protocol verifies, and injected faults
//! are caught with the right property and a usable minimal trace.

use verc3::mck::{Checker, CheckerOptions, FailureKind, FixedResolver, Verdict};
use verc3::protocols::msi::{CacheRule, DirRule, MsiConfig, MsiModel};

#[test]
fn golden_msi_satisfies_all_properties() {
    for n in [2, 3, 4] {
        let model = MsiModel::new(MsiConfig {
            n_caches: n,
            ..MsiConfig::golden()
        });
        let out = Checker::new(CheckerOptions::default()).run(&model);
        assert_eq!(
            out.verdict(),
            Verdict::Success,
            "{n} caches: {:?}",
            out.failure().map(|f| f.to_string())
        );
        assert_eq!(out.stats().wildcard_hits, 0, "golden model has no holes");
    }
}

/// Runs the MSI-small skeleton with one explicit (possibly wrong) candidate.
fn check_candidate(
    smad_inv: (usize, usize),
    isb_ack: (usize, usize, usize),
    smb_ack: (usize, usize, usize),
) -> verc3::mck::Outcome<verc3::protocols::msi::MsiState> {
    let model = MsiModel::new(MsiConfig::msi_small());
    let mut r = FixedResolver::new();
    r.assign("cache/SM_AD+Inv/resp", smad_inv.0);
    r.assign("cache/SM_AD+Inv/next", smad_inv.1);
    r.assign("dir/IS_B+Ack/resp", isb_ack.0);
    r.assign("dir/IS_B+Ack/next", isb_ack.1);
    r.assign("dir/IS_B+Ack/track", isb_ack.2);
    r.assign("dir/SM_B+Ack/resp", smb_ack.0);
    r.assign("dir/SM_B+Ack/next", smb_ack.1);
    r.assign("dir/SM_B+Ack/track", smb_ack.2);
    Checker::new(CheckerOptions::default()).run_with(&model, &r)
}

// Action indices (see verc3-protocols::msi::actions):
// cache resp: 0=none 1=send_data 2=send_ack; next: 0=I 1=S 2=M 3=IS_D 4=IM_AD 5=SM_AD 6=WM_A
// dir resp: 0=none ...; next: 0=I 1=S 2=M 3=IS_B 4=IM_B 5=SM_B 6=MS_B; track: 0=none 1=set_owner 2=add_sharer
const GOLDEN_SMAD: (usize, usize) = (2, 4); // send_ack, -> IM_AD
const GOLDEN_ISB: (usize, usize, usize) = (0, 1, 0); // none, -> S, none
const GOLDEN_SMB: (usize, usize, usize) = (0, 2, 0); // none, -> M, none

#[test]
fn golden_candidate_verifies_through_the_skeleton() {
    let out = check_candidate(GOLDEN_SMAD, GOLDEN_ISB, GOLDEN_SMB);
    assert_eq!(out.verdict(), Verdict::Success);
}

#[test]
fn dropping_the_invalidation_ack_wedges_the_writer() {
    // SM_AD+Inv with response `none`: the racing writer never receives all
    // invalidation acks, so the system cannot drain.
    let out = check_candidate((0, 4), GOLDEN_ISB, GOLDEN_SMB);
    assert_eq!(out.verdict(), Verdict::Failure);
    let failure = out.failure().unwrap();
    assert!(
        matches!(
            failure.kind,
            FailureKind::Deadlock | FailureKind::QuiescenceViolation
        ),
        "expected a progress failure, got {:?}",
        failure.kind
    );
    assert!(
        failure.trace.is_some(),
        "progress failures carry a witness trace"
    );
}

#[test]
fn answering_an_invalidation_with_data_violates_safety() {
    // SM_AD+Inv with response `send_data`: the invalidated cache sends the
    // racing writer a spurious zero-ack data message. BFS finds the
    // *shortest* safety violation — either the writer enters M early
    // (SWMR) or the duplicate data arrives as an unexpected message; both
    // are invariant violations with a concrete trace.
    let out = check_candidate((1, 4), GOLDEN_ISB, GOLDEN_SMB);
    assert_eq!(out.verdict(), Verdict::Failure);
    let failure = out.failure().unwrap();
    assert_eq!(failure.kind, FailureKind::InvariantViolation);
    assert!(
        failure.property.contains("SWMR") || failure.property.contains("protocol error"),
        "unexpected property: {}",
        failure.property
    );
    assert!(
        failure.trace.is_some(),
        "safety violations carry a minimal trace"
    );
}

#[test]
fn never_unblocking_the_directory_deadlocks() {
    // IS_B+Ack staying in IS_B: the directory serializes forever; every
    // cache eventually wedges behind it.
    let out = check_candidate(GOLDEN_SMAD, (0, 3, 0), GOLDEN_SMB);
    assert_eq!(out.verdict(), Verdict::Failure);
    assert!(matches!(
        out.failure().unwrap().kind,
        FailureKind::Deadlock | FailureKind::QuiescenceViolation
    ));
}

#[test]
fn returning_to_invalid_after_a_read_is_rejected_as_degenerate() {
    // The paper's motivating example for the reachability property: a
    // protocol that "receives the response but immediately transitions
    // straight back to Invalid is correct, but not very efficient". Here:
    // IS_D is golden, but the directory forgetting its sharers (IS_B+Ack
    // -> I with set_owner clearing state) must be caught by some property.
    let out = check_candidate(GOLDEN_SMAD, (0, 0, 1), GOLDEN_SMB);
    assert_eq!(out.verdict(), Verdict::Failure);
}

#[test]
fn msi_large_skeleton_accepts_the_golden_candidate() {
    let model = MsiModel::new(MsiConfig::msi_large());
    let mut r = FixedResolver::new();
    for rule in [
        CacheRule::SmAdInv,
        CacheRule::IsDData,
        CacheRule::ImAdDataComplete,
    ] {
        let stem = rule.stem();
        let (resp, next) = rule.golden();
        let resp_idx = verc3::protocols::msi::CacheResponse::ALL
            .iter()
            .position(|&a| a == resp)
            .unwrap();
        let next_idx = verc3::protocols::msi::CacheState::ALL
            .iter()
            .position(|&s| s == next)
            .unwrap();
        r.assign(format!("{stem}/resp"), resp_idx);
        r.assign(format!("{stem}/next"), next_idx);
    }
    for rule in [DirRule::IsBAck, DirRule::SmBAck] {
        let stem = rule.stem();
        r.assign(format!("{stem}/resp"), 0);
        let next_idx = match rule {
            DirRule::IsBAck => 1, // S
            _ => 2,               // M
        };
        r.assign(format!("{stem}/next"), next_idx);
        r.assign(format!("{stem}/track"), 0);
    }
    let out = Checker::new(CheckerOptions::default()).run_with(&model, &r);
    assert_eq!(
        out.verdict(),
        Verdict::Success,
        "{:?}",
        out.failure().map(|f| f.to_string())
    );
}
