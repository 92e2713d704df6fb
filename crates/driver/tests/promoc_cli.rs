//! `promoc` as a pipeline stage: a reader that hangs up early must end the
//! program quietly, not with a panic and a backtrace.

use std::process::{Command, Stdio};

/// Runs `promoc ARGS examples/figure2.c`, closes the read end of its
/// stdout before it writes anything, and returns its status and stderr.
fn with_stdout_closed(cmd: &str) -> (std::process::ExitStatus, String) {
    let example = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/figure2.c");
    let mut child = Command::new(env!("CARGO_BIN_EXE_promoc"))
        .args([cmd, example])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn promoc");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for promoc");
    (
        out.status,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn closed_stdout_ends_run_and_compile_without_a_panic() {
    for cmd in ["run", "compile"] {
        let (status, stderr) = with_stdout_closed(cmd);
        assert!(
            !stderr.contains("panicked"),
            "promoc {cmd} panicked on a closed stdout:\n{stderr}"
        );
        assert!(status.success(), "promoc {cmd} exited {status}:\n{stderr}");
    }
}
