//! Bad arguments are a usage error: each gate and soak bin rejects an
//! unknown flag with its usage and exit code 2, before running anything.

use std::process::Command;

#[test]
fn unknown_flags_exit_2_with_the_usage() {
    for (bin, exe) in [
        ("fault_matrix", env!("CARGO_BIN_EXE_fault_matrix")),
        ("verify_invariants", env!("CARGO_BIN_EXE_verify_invariants")),
        ("runtime_soak", env!("CARGO_BIN_EXE_runtime_soak")),
    ] {
        let out = Command::new(exe)
            .arg("--bogus")
            .output()
            .unwrap_or_else(|e| panic!("{bin} runs: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        assert!(stderr.contains("'--bogus'"), "{bin}: {stderr}");
        assert!(
            stderr.to_lowercase().contains(&format!("usage: {bin}")),
            "{bin}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} ran before rejecting its flag");
    }
}
