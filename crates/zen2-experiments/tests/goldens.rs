//! The quick-scale reports are pinned byte for byte: `all` (stdout and
//! `--json`), `ablations` and the pinned `torture` soak (whose `digest:`
//! line hashes every run) must reproduce the files in `tests/golden/`
//! at the workspace root. A change that moves a result
//! fails here and must regenerate the golden from the release binary
//! (e.g. `./target/release/all > tests/golden/all.txt`) and say why.

use std::path::Path;
use std::process::{Child, Command, Stdio};

/// Starts `bin` with `args`, its stdout piped back.
fn start(bin: &str, args: &[&str]) -> Child {
    Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn the experiment binary")
}

/// Waits for `child` and returns its stdout, failing on a non-zero exit.
fn stdout_of(child: Child) -> String {
    let out = child.wait_with_output().expect("wait for the experiment binary");
    assert!(out.status.success(), "experiment binary exited with {}", out.status);
    String::from_utf8(out.stdout).expect("reports are UTF-8")
}

/// Asserts `actual` equals the golden `name`, naming the first line that
/// differs.
fn assert_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name);
    let expected = std::fs::read_to_string(&path).expect("read the golden file");
    if actual == expected {
        return;
    }
    let mut pairs = expected.lines().zip(actual.lines()).enumerate();
    let line = match pairs.find(|(_, (e, a))| e != a) {
        Some((i, (e, a))) => format!("line {}:\n  golden: {e}\n  actual: {a}", i + 1),
        None => format!(
            "golden has {} lines, actual {}",
            expected.lines().count(),
            actual.lines().count()
        ),
    };
    panic!("{name} differs from its golden, first at {line}");
}

#[test]
fn all_report_matches_its_goldens() {
    let all = env!("CARGO_BIN_EXE_all");
    // A debug `all` takes seconds, so both processes run side by side.
    let (text, json) = (start(all, &[]), start(all, &["--json"]));
    let (text, json) = (stdout_of(text), stdout_of(json));
    assert_golden("all.txt", &text);
    assert_golden("all.json", &json);
}

#[test]
fn ablations_report_matches_its_golden() {
    assert_golden("ablations.txt", &stdout_of(start(env!("CARGO_BIN_EXE_ablations"), &[])));
}

#[test]
fn torture_soak_matches_its_golden() {
    let args = ["--seed", "1", "--cases", "500", "--differential"];
    assert_golden("torture.txt", &stdout_of(start(env!("CARGO_BIN_EXE_torture"), &args)));
}
