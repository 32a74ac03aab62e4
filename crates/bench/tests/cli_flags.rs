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
        (synthd, &["--workload", "fig2", "--json", "x"]),
        (synthd, &["--workload", "fig9"]),
        (synthd, &["--workload"]),
        (synthd, &["--shards", "0"]),
        (synthd, &["--shards", "four"]),
        (synthd, &["--journal"]),
        (synthd, &["--journal-dir", "retired"]),
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
    let args = ["--workload", "fig2", "--shards", "2", "--guided", "--check"];
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

#[test]
fn synthd_journal_pins_the_shard_count_and_survives_check() {
    let journal = std::env::temp_dir().join(format!("verc3-synthd-{}.vc3j", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let path = journal.to_str().expect("utf8 temp path");
    let synthd = |shards: &str, extra: &[&str]| {
        let mut args = vec!["--workload", "fig2", "--shards", shards, "--journal", path];
        args.extend_from_slice(extra);
        run(env!("CARGO_BIN_EXE_synthd"), &args)
    };
    // `--check`'s single-process reference run must leave the journal alone.
    let first = synthd("2", &["--check"]);
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let resumed = synthd("2", &[]);
    assert!(resumed.status.success());
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout)
            .lines()
            .filter(|l| l.starts_with("#sol"))
            .count(),
        1
    );
    let other = synthd("1", &[]);
    assert_eq!(other.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&other.stderr).contains("partition"));
    let _ = std::fs::remove_file(&journal);
}
