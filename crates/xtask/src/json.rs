//! GitHub Actions workflow-command generation (`::error file=…`) from
//! `cargo xtask lint --json` output, so findings render inline on pull
//! requests. The report is built by [`crate::LintReport::to_json`] and
//! read back with `aimq_catalog::Json::parse`, the workspace's one JSON
//! implementation.

use aimq_catalog::Json;

/// Escape a workflow-command *value* (the message after `::…::`).
fn esc_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escape a workflow-command *property* (file=, title=).
fn esc_prop(s: &str) -> String {
    esc_data(s).replace(':', "%3A").replace(',', "%2C")
}

/// Render parsed `--json` output as GitHub Actions annotations, one
/// `::error` workflow command per finding.
pub fn annotations(doc: &Json) -> Result<String, String> {
    let findings = doc
        .get("findings")
        .and_then(Json::as_array)
        .ok_or("lint JSON has no `findings` array")?;
    let mut out = String::new();
    for f in findings {
        let field = |k: &str| {
            f.get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("finding missing string field `{k}`"))
        };
        let num = |k: &str| {
            f.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("finding missing numeric field `{k}`"))
        };
        out.push_str(&format!(
            "::error file={},line={},col={},title=aimq::{}::{}\n",
            esc_prop(field("file")?),
            num("line")?,
            num("col")?,
            esc_prop(field("rule")?),
            esc_data(field("message")?),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Diagnostic, LintReport};
    use std::path::PathBuf;

    fn sample_report() -> LintReport {
        LintReport {
            diagnostics: vec![
                Diagnostic {
                    rule: "float-ordering".into(),
                    path: PathBuf::from("crates/storage/src/cache.rs"),
                    line: 40,
                    col: 12,
                    message: "`partial_cmp` on \"scores\"".into(),
                    snippet: "    a.partial_cmp(&b)".into(),
                    help: "use `total_cmp`".into(),
                },
                Diagnostic {
                    rule: "indexing".into(),
                    path: PathBuf::from("crates/core/src/engine.rs"),
                    line: 7,
                    col: 3,
                    message: "direct indexing".into(),
                    snippet: String::new(),
                    help: String::new(),
                },
            ],
        }
    }

    #[test]
    fn annotations_escape_workflow_metacharacters() {
        let report = sample_report();
        let doc = Json::parse(&report.to_json().to_string_compact()).expect("parse");
        let ann = annotations(&doc).expect("annotate");
        let lines: Vec<&str> = ann.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with("::error file=crates/storage/src/cache.rs,line=40,col=12,"),
            "{ann}"
        );
        assert!(
            lines[1].starts_with("::error file=crates/core/src/engine.rs,"),
            "{ann}"
        );
        // Message text rides after the `::` separator unescaped except
        // for %, CR, LF.
        assert!(lines[0].contains("`partial_cmp` on \"scores\""), "{ann}");
    }
}
