//! The `aimq-eval` binary: its name dispatch, usage errors and output.

use std::process::{Command, Output};

use aimq_eval::{experiments, Scale};

fn aimq_eval(args: &[&str]) -> Output {
    aimq_eval_at("quick", args)
}

fn aimq_eval_at(scale: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aimq-eval"))
        .args(args)
        .env("AIMQ_SCALE", scale)
        .output()
        .expect("aimq-eval runs")
}

#[test]
fn a_missing_or_unknown_name_exits_2_and_lists_every_name() {
    for args in [&[][..], &["fig10"], &["fig5", "fig8"]] {
        let out = aimq_eval(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(out.stdout.is_empty(), "args {args:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        for name in experiments::NAMES {
            assert!(
                stderr.split_whitespace().any(|word| word == name),
                "args {args:?}: {name} missing from {stderr:?}"
            );
        }
    }
}

#[test]
fn a_bad_scale_exits_2_and_names_the_value() {
    for scale in ["quik", "0"] {
        let out = aimq_eval_at(scale, &["fig5"]);
        assert_eq!(out.status.code(), Some(2), "AIMQ_SCALE={scale}");
        assert!(out.stdout.is_empty(), "AIMQ_SCALE={scale}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(
            stderr.contains(&format!("`{scale}`")),
            "AIMQ_SCALE={scale}: {stderr:?}"
        );
    }
}

#[test]
fn the_binary_prints_the_report() {
    let out = aimq_eval(&["fig5"]);
    assert_eq!(out.status.code(), Some(0));
    let expected = experiments::report("fig5", Scale::quick(), 42).expect("fig5 is a name");
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        expected
    );
}
