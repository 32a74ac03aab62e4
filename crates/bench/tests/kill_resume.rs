//! Kill-and-resume smoke tests over the real `table1` and `synthd`
//! binaries: SIGKILL a journaled msi_xl run mid-run, resume it, and diff the
//! resumed result against an uninterrupted golden run — table1's
//! machine-readable pruned row, and a 4-thread run's `#sol` block.
//!
//! These are the end-to-end complement of the in-process crash tests
//! (`tests/journal_kill_resume.rs` at the workspace root): a *process*
//! death at an arbitrary byte position, not a cooperative truncation.
//!
//! Each msi_xl run takes ~20 s in release, so the tests are `#[ignore]`d
//! and run explicitly by the CI fault-matrix job:
//!
//! ```text
//! cargo test --release -p verc3-bench --test kill_resume -- --ignored
//! ```

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Polls until the victim's journal at `journal` reaches `len` bytes, then
/// SIGKILLs and reaps the victim.
fn kill_when_grown(mut victim: Child, journal: &Path, len: u64) {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let grown = std::fs::metadata(journal)
            .map(|m| m.len() >= len)
            .unwrap_or(false);
        if grown {
            break;
        }
        if let Some(status) = victim.try_wait().expect("poll victim") {
            panic!("victim finished before the kill point ({status}); the kill threshold is stale");
        }
        assert!(
            Instant::now() < deadline,
            "victim journal never reached the kill threshold"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    victim.kill().expect("SIGKILL victim");
    victim.wait().expect("reap victim");
}

/// Runs `table1 --xl --pruned-only --journal <dir> [...extra]` to
/// completion and returns the `#row` machine line for the pruned row.
fn run_to_completion(journal_dir: &Path, extra: &[&str]) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table1"));
    cmd.arg("--xl")
        .arg("--pruned-only")
        .arg("--journal")
        .arg(journal_dir)
        .args(extra)
        .current_dir(env!("CARGO_MANIFEST_DIR"));
    let out = cmd.output().expect("spawn table1");
    assert!(
        out.status.success(),
        "table1 failed ({}):\n{}{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    stdout
        .lines()
        .find(|l| l.starts_with("#row "))
        .unwrap_or_else(|| panic!("no #row line in:\n{stdout}"))
        .to_owned()
}

#[test]
#[ignore = "release-scale (~60 s): run explicitly, the CI fault-matrix job does"]
fn a_sigkilled_xl_run_resumes_to_the_golden_row() {
    let scratch = std::env::temp_dir().join(format!("verc3-kill-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // Golden: one uninterrupted journaled run. The asserted numbers double
    // as a drift alarm against tests/msi_xl_golden.rs.
    let golden_dir = scratch.join("golden");
    std::fs::create_dir_all(&golden_dir).expect("scratch dir");
    let golden = run_to_completion(&golden_dir, &[]);
    assert!(
        golden.contains("stop=Completed") && golden.contains("resumable=false"),
        "golden run must complete: {golden}"
    );
    for pinned in ["evaluated=3176", "patterns=3165", "solutions=8"] {
        assert!(
            golden.contains(pinned),
            "golden row drifted from tests/msi_xl_golden.rs ({pinned}): {golden}"
        );
    }
    let journal_name = "msi-xl-1-thread-pruning.vc3j";
    let full_len = std::fs::metadata(golden_dir.join(journal_name))
        .expect("golden journal")
        .len();
    assert!(full_len > 0, "golden journal is empty");

    // Victim: same invocation, SIGKILLed once its journal passes ~50% of
    // the golden journal's size — a mid-enumeration, mid-generation death.
    let victim_dir = scratch.join("victim");
    std::fs::create_dir_all(&victim_dir).expect("scratch dir");
    let victim = Command::new(env!("CARGO_BIN_EXE_table1"))
        .arg("--xl")
        .arg("--pruned-only")
        .arg("--journal")
        .arg(&victim_dir)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim table1");
    kill_when_grown(victim, &victim_dir.join(journal_name), full_len / 2);

    // The victim died without a stop record; resuming its journal must land
    // on the same completed row as the golden run, bit for bit.
    let resumed = run_to_completion(&victim_dir, &["--resume"]);
    assert_eq!(
        resumed, golden,
        "resumed row diverged from the uninterrupted golden run"
    );

    let _ = std::fs::remove_dir_all(&scratch);
}

/// `synthd --workload msi_xl --threads 4 --journal FILE`, run to completion:
/// its `#run` line and its sorted `#sol` block.
fn synthd_to_completion(journal: &Path) -> (String, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_synthd"))
        .args(["--workload", "msi_xl", "--threads", "4", "--journal"])
        .arg(journal)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn synthd");
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    assert!(
        out.status.success(),
        "synthd failed ({}):\n{stdout}{}",
        out.status,
        String::from_utf8_lossy(&out.stderr),
    );
    let run = stdout
        .lines()
        .find(|l| l.starts_with("#run "))
        .unwrap_or_else(|| panic!("no #run line in:\n{stdout}"))
        .to_owned();
    let sols = stdout
        .lines()
        .filter(|l| l.starts_with("#sol "))
        .map(str::to_owned)
        .collect();
    (run, sols)
}

#[test]
#[ignore = "release-scale (~60 s): run explicitly, the CI fault-matrix job does"]
fn a_sigkilled_parallel_xl_run_resumes_to_the_golden_solutions() {
    let scratch =
        std::env::temp_dir().join(format!("verc3-kill-resume-threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    // Golden: one uninterrupted journaled 4-thread run.
    let golden_journal = scratch.join("golden.vc3j");
    let (golden_run, golden) = synthd_to_completion(&golden_journal);
    assert!(golden_run.contains("stop=completed"), "{golden_run}");
    assert_eq!(golden.len(), 8, "the msi_xl golden has 8 solutions");
    let full_len = std::fs::metadata(&golden_journal)
        .expect("golden journal")
        .len();

    // Victim: the same invocation, SIGKILLed halfway through its journal.
    let victim_journal = scratch.join("victim.vc3j");
    let victim = Command::new(env!("CARGO_BIN_EXE_synthd"))
        .args(["--workload", "msi_xl", "--threads", "4", "--journal"])
        .arg(&victim_journal)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim synthd");
    kill_when_grown(victim, &victim_journal, full_len / 2);

    // Re-invoking the run resumes its journal and reaches the same
    // solutions.
    let (resumed_run, resumed) = synthd_to_completion(&victim_journal);
    assert!(resumed_run.contains("stop=completed"), "{resumed_run}");
    assert_eq!(resumed, golden, "resumed #sol block diverged");

    let _ = std::fs::remove_dir_all(&scratch);
}
