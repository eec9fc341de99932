//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <census_plan|cardb_cold|cardb_http|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process. The run generates its inputs
//! from `--seed`, times the workload, checks every answer against the
//! single-threaded engine on the bare source, prints every metric by name
//! with its unit, and ends with one JSON line: `correct`, `attempted`,
//! `failed` and the metrics (`--trace 0`: end-to-end; `--trace 1`:
//! per-layer). It exits nonzero when any check fails. `all` runs every
//! workload, each in a child process.

mod check;
mod client;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use workloads::{Options, Workload};

/// End-to-end metrics, measured with tracing off.
const END_TO_END: &[&str] = &[
    "setup_s",
    "latency_p50_ms",
    "latency_p99_ms",
    "throughput_qps",
    "peak_rss_mb",
];

/// Per-layer metrics of the traced run.
const PER_LAYER: &[&str] = &[
    "data.generate_s",
    "afd.mine_s",
    "sim.build_s",
    "storage.busy_ms",
    "storage.plan_calls",
    "storage.single_calls",
    "storage.rows_returned",
    "storage.posting_terms",
    "storage.intersections",
    "storage.term_memo_hit_ratio",
    "storage.prefix_memo_hit_ratio",
    "storage.cache_busy_ms",
    "storage.cache_hit_ratio",
    "storage.cache_evictions",
    "core.answer_ms",
    "core.self_ms",
    "core.base_set_ms",
    "core.base_probes",
    "core.plan_compile_ms",
    "core.plan_steps",
    "core.probes_attempted",
    "core.probes_deduped",
    "core.base_set_size",
    "core.tuples_examined",
    "core.relevant_found",
    "core.work_per_relevant",
    "sim.tuple_sim_evals",
    "sim.tuple_sim_us",
    "sim.rank_us",
    "serve.overhead_ms",
    "serve.max_queue_depth",
    "serve.replies_dropped",
    "http.overhead_ms",
    "http.decode_us",
    "catalog.json_parse_us",
    "catalog.json_encode_us",
    "http.response_bytes",
    "error_rate",
    "source_probes_per_query",
    "trace.overhead_ms",
    "trace.queries",
];

const USAGE: &str = "usage: perfbench --workload <census_plan|cardb_cold|cardb_http|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line; `workload` is `None` for `all`.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    raw: Vec<String>,
}

fn parse_args(raw: Vec<String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(if value == "all" {
                    None
                } else {
                    Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        raw,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1).collect()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(Options {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
        }),
        None => run_all(&args.raw),
    }
}

fn run_one(opts: Options) -> ExitCode {
    let outcome = workloads::run(&opts);
    println!(
        "{} seed={} trace={} attempted={} failed={}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        outcome.attempted,
        outcome.failed
    );
    for line in outcome.report.lines() {
        println!("{line}");
    }
    for problem in &outcome.problems {
        println!("  CHECK FAILED: {problem}");
    }
    let keep = if opts.trace { PER_LAYER } else { END_TO_END };
    let correct = outcome.correct();
    println!(
        "{}",
        outcome
            .report
            .result_line(keep, correct, outcome.attempted, outcome.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, each in its own process, with the same options.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let mut args = raw.to_vec();
        if let Some(i) = args.iter().position(|a| a == "--workload") {
            args[i + 1] = workload.name().to_string();
        }
        match Command::new(&exe).args(&args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("{}: {e}", workload.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aimq_catalog::Json;

    /// The metric and workload names the program emits are exactly the
    /// ones `BENCHMARK.json` declares, in the same order.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_array)
                .expect("list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names("workloads"), workloads);
        assert!(END_TO_END
            .iter()
            .chain(PER_LAYER)
            .all(|n| stats::valid_metric_name(n)));
    }
}
