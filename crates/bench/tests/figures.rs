//! The `figures` binary checks every id before it runs anything.

use std::process::Command;

#[test]
fn unknown_id_exits_2_before_running_anything() {
    for args in [
        &["fig8a", "fig9z"][..],
        &["vary_shards"],
        &["--json", "x.json"],
        &["--json", "x.json", "all"],
        &["all", "fig9z"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .arg("--quick")
            .args(args)
            .output()
            .expect("run figures");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} ran something: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(err.contains("valid ids: all fig8a"), "{args:?}: {err}");
    }
}
