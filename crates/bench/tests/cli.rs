//! `repro` argument handling: a malformed or missing flag value exits 2
//! with a message naming the flag, instead of silently running defaults.

use std::process::Command;

/// Run `repro` with `args`; returns (exit code, stderr).
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_seed_is_rejected() {
    let (code, stderr) = repro(&["--exp", "diagnose", "--seed", "notanumber"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--seed") && stderr.contains("notanumber"),
        "{stderr}"
    );
}

#[test]
fn flags_missing_their_value_are_rejected() {
    for flag in ["--exp", "--seed", "--trace"] {
        let (code, stderr) = repro(&[flag]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "{flag}: {stderr}");
    }
}

#[test]
fn malformed_trace_capacity_is_rejected() {
    let (code, stderr) = repro(&["--exp", "live", "--trace", "lots"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--trace") && stderr.contains("lots"),
        "{stderr}"
    );
}
