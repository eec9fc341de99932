//! CLI for the workspace's static-analysis suite.
//!
//! ```text
//! cargo xtask lint                 # lint the workspace, exit 1 on findings
//! cargo xtask lint --root DIR      # lint a workspace-shaped tree (fixtures)
//! cargo xtask lint --json          # machine-readable findings on stdout
//! cargo xtask lint --explain RULE  # print a rule's rationale and remedy
//! cargo xtask probes               # print the probing entry-point list
//! cargo xtask probes --write       # regenerate results/PROBE_ENTRYPOINTS.txt
//! cargo xtask annotate lint.json   # GitHub ::error annotations from --json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(args.collect()),
        Some("probes") => probes(args.collect()),
        Some("annotate") => annotate(args.collect()),
        Some(other) => {
            eprintln!("unknown xtask command `{other}`");
            usage();
            ExitCode::from(2)
        }
        None => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "usage: cargo xtask lint [--root DIR] [--json] [--explain RULE]\n\
         \x20      cargo xtask probes [--root DIR] [--write]\n\
         \x20      cargo xtask annotate <lint.json>"
    );
}

fn default_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn explain(rule: &str) -> ExitCode {
    let Some(info) = xtask::rule_info(rule) else {
        eprintln!(
            "unknown rule `{rule}` (known: {})",
            xtask::RULES
                .iter()
                .map(|r| r.id)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::from(2);
    };
    println!("aimq::{}", info.id);
    println!("  catches:   {}", info.summary);
    println!("  rationale: {}", info.rationale);
    println!("  remedy:    {}", info.remedy);
    ExitCode::SUCCESS
}

fn lint(args: Vec<String>) -> ExitCode {
    let mut root = default_root();
    let mut json = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--explain" => match it.next() {
                Some(rule) => return explain(&rule),
                None => {
                    eprintln!("--explain requires a rule id");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
                return ExitCode::from(2);
            }
        }
    }

    let report = match xtask::lint_root(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("error: failed to lint {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", report.to_json().to_string_compact());
    } else {
        for diag in &report.diagnostics {
            print!("{}", xtask::render(diag));
            println!();
        }
        match report.errors() {
            0 => println!("aimq-lint: clean"),
            1 => println!("aimq-lint: 1 error"),
            n => println!("aimq-lint: {n} errors"),
        }
    }
    if report.errors() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Print the sorted probing entry-point list (`<path> <fn>` per line),
/// the format checked into `results/PROBE_ENTRYPOINTS.txt`; CI diffs
/// the two so a new probe path requires an explicit commit.
fn probes(args: Vec<String>) -> ExitCode {
    let mut root = default_root();
    let mut write = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--write" => write = true,
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
                return ExitCode::from(2);
            }
        }
    }
    match xtask::probe_summary(&root) {
        Ok(summary) => {
            let mut rendered = String::new();
            for entry in &summary.entries {
                rendered.push_str(&format!("{} {}\n", entry.path.display(), entry.fn_name));
            }
            if write {
                let pin = root.join("results").join("PROBE_ENTRYPOINTS.txt");
                if let Err(err) = std::fs::write(&pin, &rendered) {
                    eprintln!("error: failed to write {}: {err}", pin.display());
                    return ExitCode::from(2);
                }
                eprintln!(
                    "wrote {} entries to {}",
                    summary.entries.len(),
                    pin.display()
                );
            } else {
                print!("{rendered}");
            }
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: failed to scan {}: {err}", root.display());
            ExitCode::from(2)
        }
    }
}

/// Turn `--json` output into GitHub Actions annotations. Exit status
/// reflects only I/O and parse health — CI fails via the lint step
/// itself, so annotating never masks (or doubles) that signal.
fn annotate(args: Vec<String>) -> ExitCode {
    let [path] = args.as_slice() else {
        eprintln!("usage: cargo xtask annotate <lint.json>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("error: cannot read {path}: {err}");
            return ExitCode::from(2);
        }
    };
    let doc = match aimq_catalog::Json::parse(&text) {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!("error: {path} is not valid lint JSON: {err}");
            return ExitCode::from(2);
        }
    };
    match xtask::json::annotations(&doc) {
        Ok(ann) => {
            print!("{ann}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::from(2)
        }
    }
}
