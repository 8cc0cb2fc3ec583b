//! `cnetverifier` argument handling: unknown flags, missing values and
//! values that are not numbers exit 2 with a message naming the flag,
//! instead of silently running defaults.

use std::process::Command;

/// Run `cnetverifier` with `args`; returns (exit code, stderr).
fn cnetverifier(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cnetverifier"))
        .args(args)
        .output()
        .expect("cnetverifier runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_numbers_are_rejected() {
    for (args, flag, value) in [
        (&["diagnose", "--seed", "abc"][..], "--seed", "abc"),
        (&["validate", "--seed", "-1"][..], "--seed", "-1"),
        (&["sample", "--walks", "x"][..], "--walks", "x"),
    ] {
        let (code, stderr) = cnetverifier(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains(value),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn flags_missing_their_value_are_rejected() {
    for args in [&["diagnose", "--seed"][..], &["sample", "--walks"][..]] {
        let (code, stderr) = cnetverifier(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(args[1]), "{args:?}: {stderr}");
    }
}

#[test]
fn unknown_flags_and_commands_are_rejected() {
    for (args, named) in [
        (&["screen", "--remedy"][..], "--remedy"),
        (&["report", "--json"][..], "--json"),
        (&["scren"][..], "scren"),
    ] {
        let (code, stderr) = cnetverifier(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
}
