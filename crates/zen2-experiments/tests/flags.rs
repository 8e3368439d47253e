//! A flag a binary does not take is a usage error at the process level:
//! exit 2, nothing on stdout, and no checkpoint written.

use std::process::Command;

#[test]
fn misspelt_or_unsupported_flags_exit_2_with_empty_stdout() {
    let dir = std::env::temp_dir().join(format!("zen2-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    let ck = dir.join("ck");
    let ck = ck.to_str().expect("UTF-8 temp path");
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_tab1"), &["--chekpoint", ck][..]),
        (env!("CARGO_BIN_EXE_fig07"), &["--jsn"][..]),
        (env!("CARGO_BIN_EXE_fig10"), &["--checkpoint", ck, "--halt-after", "1"][..]),
        (env!("CARGO_BIN_EXE_fig04"), &["--checkpoint", ck][..]),
    ] {
        let out = Command::new(bin).args(args).output().expect("run the binary");
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed to stdout");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{bin} {args:?}");
    }
    let written: Vec<_> = std::fs::read_dir(&dir).expect("list the scratch directory").collect();
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
    assert!(written.is_empty(), "a rejected run wrote {written:?}");
}
