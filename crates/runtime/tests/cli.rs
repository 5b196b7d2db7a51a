//! `idc-daemon` at its command line. Bad arguments are a usage error: it
//! prints what is wrong and its usage, and exits 2 without hosting
//! anything. A resume needs a checkpoint to resume from, and a fresh run
//! replaces an earlier run's lineage instead of compacting into it.

use std::path::PathBuf;
use std::process::Command;

fn daemon(args: &[&str]) -> (Option<i32>, String) {
    let out = daemon_output(args);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn daemon_output(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_idc-daemon"))
        .args(args)
        .output()
        .expect("idc-daemon runs")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("idc-daemon-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn unknown_flag_exits_2_with_the_usage() {
    let (code, stderr) = daemon(&["--bogus"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag '--bogus'"), "{stderr}");
    assert!(stderr.contains("USAGE: idc-daemon"), "{stderr}");
}

#[test]
fn resume_without_a_checkpoint_root_exits_2() {
    let (code, stderr) = daemon(&["--resume"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--checkpoint-root"), "{stderr}");
}

#[test]
fn resume_with_nothing_to_resume_exits_1() {
    let root = tmpdir("nothing");
    let (code, stderr) = daemon(&[
        "--resume",
        "--checkpoint-root",
        root.to_str().unwrap(),
        "--scenario",
        "smoothing",
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("no restorable checkpoint"), "{stderr}");
    assert!(stderr.contains("smoothing"), "{stderr}");
    let _ = std::fs::remove_dir_all(&root);
}

/// A finished 20-step run, then a fresh 10-step run into the same root:
/// the resume restores the second run's last step, not the first's.
#[test]
fn fresh_run_replaces_an_earlier_runs_lineage() {
    let root = tmpdir("reuse");
    let root_arg = root.to_str().unwrap();
    let run = |extra: &[&str]| {
        let mut args = vec![
            "--scenario",
            "smoothing",
            "--checkpoint-root",
            root_arg,
            "--checkpoint-every",
            "5",
        ];
        args.extend_from_slice(extra);
        let out = daemon_output(&args);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        (String::from_utf8(out.stdout).unwrap(), stderr)
    };
    run(&["--steps", "20"]);
    run(&["--steps", "10"]);
    let (report, stderr) = run(&["--steps", "10", "--resume"]);
    assert!(stderr.contains("(1 resumed from checkpoints)"), "{stderr}");
    assert!(report.contains("\"steps\":10,"), "{report}");
    assert!(report.contains("\"total_steps\":0,"), "{report}");
    let _ = std::fs::remove_dir_all(&root);
}
