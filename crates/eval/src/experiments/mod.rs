//! One runner per table/figure of the paper's evaluation section.
//!
//! Runners are deterministic functions of `(Scale, seed)`. They build the
//! synthetic corpora, train the systems under test and return typed
//! results with a `render()` producing the same rows/series the paper
//! reports. [`report`] runs one by name and adds its verdict lines; it
//! is what the `aimq-eval` binary prints. See `EXPERIMENTS.md` at the
//! repository root for the paper-vs-measured record.

pub mod ablation;
pub mod cache;
pub mod common;
pub mod faults;
pub mod federation;
pub mod feedback;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig67;
pub mod fig8;
pub mod fig9;
pub mod postings;
pub mod table2;
pub mod table3;

use crate::Scale;

/// The experiment names `aimq-eval` accepts: the paper's Section 6 in
/// order, then the extensions.
pub const NAMES: [&str; 14] = [
    "table2",
    "fig3",
    "fig4",
    "table3",
    "fig5",
    "fig6_7",
    "fig8",
    "fig9",
    "feedback",
    "ablation",
    "faults",
    "cache",
    "postings",
    "federation",
];

/// Runs experiment `name` and returns its report: a `== <title>
/// (scale: <scale>) ==` line, the rendered table and the experiment's
/// verdict lines. `None` when `name` is not one of [`NAMES`].
pub fn report(name: &str, scale: Scale, seed: u64) -> Option<String> {
    let (title, body) = experiment(name)?;
    Some(format!(
        "== {title} (scale: {scale}) ==\n{}\n",
        body(scale, seed)
    ))
}

/// A report body: the rendered table, then one line per verdict.
type Body = fn(Scale, u64) -> String;

/// The title and the report body of experiment `name`.
fn experiment(name: &str) -> Option<(&'static str, Body)> {
    let entry: (&str, Body) = match name {
        "table2" => ("Table 2: offline computation time", |scale, seed| {
            let r = table2::run(scale, seed);
            format!(
                "{}\nAIMQ cheaper than ROCK on both datasets: {}",
                r.render(),
                r.aimq_cheaper()
            )
        }),
        "fig3" => (
            "Figure 3: robustness of attribute ordering",
            |scale, seed| {
                let r = fig3::run(scale, seed);
                format!(
                    "{}\nRelative ordering of substantially dependent attributes stable \
                 across samples: {}",
                    r.render(),
                    r.order_consistent(0.5)
                )
            },
        ),
        "fig4" => ("Figure 4: robustness in mining keys", |scale, seed| {
            let r = fig4::run(scale, seed);
            let mut out = r.render().to_string();
            for (i, (size, key)) in r.sample_sizes.iter().zip(&r.best_key).enumerate() {
                out.push_str(&format!(
                    "\n{size} tuples: best key {key}, {} full-data keys missing",
                    r.missing_in(i)
                ));
            }
            out + &format!("\nBest key stable across samples: {}", r.best_key_stable())
        }),
        "table3" => ("Table 3: robust similarity estimation", |scale, seed| {
            let r = table3::run(scale, seed);
            format!(
                "{}\nTop similar value agrees between sample and full data: {}",
                r.render(),
                r.top_value_agrees()
            )
        }),
        "fig5" => ("Figure 5: similarity graph for Make", |scale, seed| {
            let r = fig5::run(scale, seed);
            let mut out = r.render().to_string();
            if let (Some(fc), Some(fb)) = (r.sim("Ford", "Chevrolet"), r.sim("Ford", "BMW")) {
                out.push_str(&format!("\nFord~Chevrolet = {fc:.3}, Ford~BMW = {fb:.3}"));
            }
            out
        }),
        "fig6_7" => (
            "Figures 6 & 7: query relaxation efficiency",
            |scale, seed| fig67::run(scale, seed).render().to_string(),
        ),
        "fig8" => ("Figure 8: simulated user study (MRR)", |scale, seed| {
            let r = fig8::run(scale, seed);
            format!(
                "{}\n{}\nGuidedRelax wins on MRR: {}\n\
                 GuidedRelax extracts the most relevant answers: {}",
                r.render(),
                r.render_quality(),
                r.guided_wins(),
                r.guided_extracts_most_relevant()
            )
        }),
        "fig9" => ("Figure 9: CensusDB top-k accuracy", |scale, seed| {
            let r = fig9::run(scale, seed);
            format!(
                "{}\navg answers per query: AIMQ {:.1}, ROCK {:.1}\n\
                 AIMQ dominates ROCK at every k: {}",
                r.render(),
                r.avg_aimq_answers,
                r.avg_rock_answers,
                r.aimq_dominates()
            )
        }),
        "feedback" => ("Extension: relevance feedback", |scale, seed| {
            let r = feedback::run(scale, seed);
            format!(
                "{}\nFeedback improves the ranking: {} (gain {:+.3})",
                r.render(),
                r.improves(),
                r.gain()
            )
        }),
        "ablation" => ("Extension: importance-source ablation", |scale, seed| {
            ablation::run(scale, seed).render().to_string()
        }),
        "faults" => (
            "Fault matrix: degradation under source failures",
            |scale, seed| faults::run(scale, seed).render().to_string(),
        ),
        "cache" => (
            "Probe economy: dedup + cache vs the seed engine",
            |scale, seed| cache::run(scale, seed).render().to_string(),
        ),
        "postings" => (
            "Posting-list executor: shared-plan work vs one-shot",
            |scale, seed| postings::run(scale, seed).render().to_string(),
        ),
        "federation" => (
            "Federation: recall vs number of failed sources",
            |scale, seed| federation::run(scale, seed).render().to_string(),
        ),
        _ => return None,
    };
    Some(entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_has_a_report_and_nothing_else_does() {
        for name in NAMES {
            assert!(experiment(name).is_some(), "{name} has no report");
        }
        for name in ["", "fig6", "fig67", "Table2", "all"] {
            assert!(experiment(name).is_none(), "{name:?} should be unknown");
        }
    }
}
