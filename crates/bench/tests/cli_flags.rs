//! The harness binaries refuse malformed command lines: an unknown flag or
//! an unparsable value exits 2 with the usage line before any work runs, so
//! a typo or a retired flag can never silently run the default path.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args).current_dir(env!("CARGO_MANIFEST_DIR"));
    cmd.output().expect("spawn harness binary")
}

#[test]
fn bad_flags_exit_2_with_the_usage_line() {
    let (fig3, table1, synthd) = (
        env!("CARGO_BIN_EXE_fig3_check"),
        env!("CARGO_BIN_EXE_table1"),
        env!("CARGO_BIN_EXE_synthd"),
    );
    for (bin, args) in [
        (fig3, &["--one-shot"][..]),
        (fig3, &["--dott"]),
        (fig3, &["--check-threads", "x"]),
        (fig3, &["--check-threads", "0"]),
        (fig3, &["--spec"]),
        (table1, &["--guidd"]),
        (table1, &["--samples", "x"]),
        (table1, &["--deadline-secs", "soon"]),
        (table1, &["--journal"]),
        (synthd, &["--workload", "fig2", "--guidd"]),
        (synthd, &["--workload", "fig2", "--check", "x"]),
        (synthd, &["--workload", "fig9"]),
        (synthd, &["--workload"]),
        (synthd, &["--threads", "0"]),
        (synthd, &["--threads", "four"]),
        (synthd, &["--journal"]),
        (synthd, &["--journal-dir", "retired"]),
        // Retired: every run enumerates guided.
        (table1, &["--guided"]),
        (synthd, &["--workload", "fig2", "--guided"]),
        // Retired with in-process sharding: `--threads` runs in parallel.
        (synthd, &["--workload", "fig2", "--shards", "2"]),
        (synthd, &["--workload", "fig2", "--no-exchange"]),
        (synthd, &["--workload", "fig2", "--no-steal"]),
        (synthd, &["--workload", "fig2", "--fs", "spool"]),
        (synthd, &["--workload", "fig2", "--json"]),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran before rejecting");
    }
}

#[test]
fn well_formed_flags_still_run() {
    let args = ["--check-threads", "2", "--spec", "../../specs/fig2.toml"];
    let out = run(env!("CARGO_BIN_EXE_fig3_check"), &args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn synthd_runs_guided() {
    let args = ["--workload", "fig2", "--threads", "2", "--check"];
    let out = run(env!("CARGO_BIN_EXE_synthd"), &args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("#check ok"), "{stdout}");
    assert_eq!(stdout.lines().filter(|l| l.starts_with("#sol")).count(), 1);
}

/// A journal records coverage, not which worker covered it: one written at
/// `--threads 4` resumes at `--threads 1`, and `--check`'s serial reference
/// run leaves it alone.
#[test]
fn synthd_journal_resumes_at_another_thread_count_and_survives_check() {
    let journal = std::env::temp_dir().join(format!("verc3-synthd-{}.vc3j", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let path = journal.to_str().expect("utf8 temp path");
    let synthd = |threads: &str| {
        let args = [
            "--workload",
            "fig2",
            "--threads",
            threads,
            "--journal",
            path,
            "--check",
        ];
        run(env!("CARGO_BIN_EXE_synthd"), &args)
    };
    for threads in ["4", "1"] {
        let out = synthd(threads);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "--threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("#check ok"), "{stdout}");
        assert_eq!(stdout.lines().filter(|l| l.starts_with("#sol")).count(), 1);
    }
    let _ = std::fs::remove_file(&journal);
}
