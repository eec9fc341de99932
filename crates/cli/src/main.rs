//! `aimq` — command-line interface to the AIMQ imprecise-query system.
//!
//! ```text
//! aimq demo  [--size N] [--seed S]
//! aimq mine  --csv FILE --schema SPEC [--terr X] [--max-lhs N]
//! aimq query --csv FILE --schema SPEC --query "Attr like V, ..."
//!            [--tsim X] [--k N] [--sample N] [--seed S]
//! ```
//!
//! `SPEC` is `Name:cat,Name:num,...` in column order; the CSV's header
//! row must match the attribute names. See `aimq help`.

mod args;
mod query_lang;
mod schema_spec;

use std::io::BufReader;
use std::process::ExitCode;

use aimq::{AimqSystem, EngineConfig, TrainConfig};
use aimq_afd::TaneConfig;
use aimq_catalog::Schema;
use aimq_data::CarDb;
use aimq_storage::{
    read_csv, AccessStats, CachedWebDb, FaultInjectingWebDb, FaultProfile, FederatedWebDb,
    FederationPolicy, InMemoryWebDb, Relation, ResilientWebDb, RetryPolicy, SourceSpec,
    WebDatabase, DEFAULT_CACHE_CAPACITY,
};

use args::Args;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some(command) = argv.first() else {
        print_help();
        return Ok(());
    };
    let args = Args::parse(&argv[1..])?;
    match command.as_str() {
        "demo" => demo(&args),
        "describe" => describe(&args),
        "mine" => mine(&args),
        "query" => query(&args),
        "serve-bench" => serve_bench(&args),
        "serve-http" => serve_http(&args),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `aimq help`)")),
    }
}

fn print_help() {
    println!(
        "aimq — answering imprecise queries over autonomous databases\n\
         (reproduction of Nambiar & Kambhampati, ICDE 2006)\n\n\
         USAGE:\n\
         \x20 aimq demo     [--size N] [--seed S]\n\
         \x20 aimq describe --csv FILE --schema SPEC\n\
         \x20 aimq mine  --csv FILE --schema SPEC [--terr X] [--max-lhs N]\n\
         \x20            [--save MODEL]\n\
         \x20 aimq query --csv FILE --schema SPEC --query \"Attr like V, ...\"\n\
         \x20            [--tsim X] [--k N] [--sample N] [--seed S] [--model MODEL]\n\
         \x20            [--faults none|flaky|hostile] [--fault-seed S]\n\
         \x20            [--cache-capacity N] [--no-cache true]\n\
         \x20            [--sources N] [--fault-profile-per-source p0,p1,...]\n\
         \x20            [--replication R] [--hedge-delay T]\n\
         \x20 aimq serve-bench [--scale full|quick|N] [--seed S]\n\
         \x20 aimq serve-http [--addr A] [--size N] [--seed S] [--workers W]\n\
         \x20            [--queue Q] [--deadline-ticks T] [--tsim X] [--k N]\n\
         \x20            [--once true]\n\n\
         SPEC:  Name:cat,Name:num,...  (column order; CSV header must match)\n\
         QUERY: the paper's notation, e.g. \"Model like Camry, Price like 10000\"\n\
         FAULTS: inject a deterministic fault schedule into the source and\n\
         \x20       answer through the retry/breaker stack; the degradation\n\
         \x20       line reports what failed and how complete the answer is\n\
         CACHE: repeated probes are answered from a memoizing cache in\n\
         \x20      front of the source (default capacity {}); `--no-cache\n\
         \x20      true` sends every probe to the source\n\
         SOURCES: `--sources N` shards the relation into N simulated\n\
         \x20      autonomous sources (R-way replicated fragments, default\n\
         \x20      R=2) and scatter-gathers every probe across them; each\n\
         \x20      source gets its own fault profile from the per-source\n\
         \x20      list (padded with `--faults`), its own resilience stack,\n\
         \x20      and a mirror that absorbs hedged probes after T virtual\n\
         \x20      ticks; the degradation line grows a per-source breakdown\n\
         SERVE-BENCH: replay a CarDB query log through the concurrent\n\
         \x20      serving runtime at 1/2/4/8 workers over a shared striped\n\
         \x20      cache and a simulated source round-trip; reports\n\
         \x20      throughput, speedup and per-query identity against the\n\
         \x20      single-threaded engine\n\
         SERVE-HTTP: train on a synthetic CarDB and expose it over HTTP\n\
         \x20      (default 127.0.0.1:7700): POST /indexes/cardb/search,\n\
         \x20      GET /health, GET /stats, GET|PATCH /config. Serves until\n\
         \x20      stdin closes (ctrl-D drains gracefully); `--once true`\n\
         \x20      self-checks /health and one search, then shuts down",
        DEFAULT_CACHE_CAPACITY
    );
}

/// Run the concurrent-serving throughput ladder (the eval crate's
/// `serve` experiment) and print its table.
fn serve_bench(args: &Args) -> Result<(), String> {
    use aimq_eval::{experiments::serve, Scale};
    let scale = match args.required("scale").ok().as_deref() {
        None | Some("full") => Scale::full(),
        Some("quick") => Scale::quick(),
        Some(raw) => raw
            .parse::<usize>()
            .map(Scale::with_divisor)
            .map_err(|_| format!("flag --scale has invalid value `{raw}`"))?,
    };
    let seed = args.u64_or("seed", 42)?;
    println!(
        "serve bench (scale {scale}, seed {seed}); workers {:?}",
        serve::WORKERS
    );
    let result = serve::run(scale, seed);
    println!("{}", result.render());
    if !result.all_identical() {
        return Err("concurrent answers diverged from the single-threaded engine".to_owned());
    }
    println!("speedup at 8 workers: {:.2}x", result.speedup(8));
    println!("{}", result.counters_line());
    Ok(())
}

/// Train on a synthetic CarDB and serve it over HTTP until stdin
/// closes (or immediately after a self-check with `--once true`).
fn serve_http(args: &Args) -> Result<(), String> {
    use aimq_http::{client, AimqHttpServer, HttpConfig};
    use aimq_serve::ServeConfig;
    use std::sync::Arc;

    let addr = args
        .required("addr")
        .unwrap_or_else(|_| "127.0.0.1:7700".to_owned());
    let size = args.usize_or("size", 20_000)?;
    let seed = args.u64_or("seed", 42)?;
    let workers = args.usize_or("workers", 4)?;
    let queue = args.usize_or("queue", 64)?;
    let deadline_ticks = args.u64_or("deadline-ticks", 0)?;
    let once = args.bool_or("once", false)?;
    let engine = EngineConfig {
        t_sim: args.f64_or("tsim", 0.5)?,
        top_k: args.usize_or("k", 10)?,
        ..EngineConfig::default()
    };

    println!("generating CarDB with {size} tuples (seed {seed}) and training...");
    let db = InMemoryWebDb::new(CarDb::generate(size, seed));
    let sample = db.relation().random_sample(size / 4, 1);
    let system = AimqSystem::train(&sample, &train_config(args)?).map_err(|e| e.to_string())?;
    let stack: Arc<dyn WebDatabase> =
        Arc::new(CachedWebDb::with_stripes(db, DEFAULT_CACHE_CAPACITY, 8));

    let server = AimqHttpServer::start(
        Arc::new(system),
        stack,
        HttpConfig {
            addr: addr.clone(),
            index: "cardb".to_owned(),
            serve: ServeConfig {
                workers,
                queue_capacity: queue,
                deadline_ticks,
                ticks_per_probe: 1,
                engine,
            },
        },
    )
    .map_err(|e| format!("cannot serve on {addr}: {e}"))?;
    let bound = server.addr();
    println!(
        "serving index `cardb` on http://{bound} ({workers} workers, queue {queue})\n\
         try:  curl -s http://{bound}/health\n\
         \x20     curl -s -X POST http://{bound}/indexes/cardb/search \\\n\
         \x20       -d '{{\"query\":{{\"Model\":\"Camry\",\"Price\":10000}}}}'"
    );

    if once {
        let health = client::request(bound, "GET", "/health", None)
            .map_err(|e| format!("self-check /health failed: {e}"))?;
        let search = client::request(
            bound,
            "POST",
            "/indexes/cardb/search",
            Some(r#"{"query":{"Model":"Camry"}}"#),
        )
        .map_err(|e| format!("self-check search failed: {e}"))?;
        if health.status != 200 || search.status != 200 {
            return Err(format!(
                "self-check failed: /health {} search {}",
                health.status, search.status
            ));
        }
        println!("self-check ok: /health 200, search 200");
    } else {
        println!("serving until stdin closes (ctrl-D to drain and exit)");
        let mut sink = Vec::new();
        use std::io::Read;
        #[expect(
            clippy::let_underscore_must_use,
            clippy::let_underscore_untyped,
            reason = "a stdin read error means the terminal is gone; either way the answer is \"drain and exit\""
        )]
        let _ = std::io::stdin().lock().read_to_end(&mut sink);
    }

    let stats = server.shutdown();
    println!(
        "drained: {} admitted, {} completed, {} deadline-missed, {} rejected, {} replies dropped",
        stats.admitted,
        stats.completed,
        stats.deadline_missed,
        stats.rejected,
        stats.replies_dropped
    );
    Ok(())
}

/// One-line summary of the memoizing cache's work during a query.
fn cache_summary(stats: &AccessStats) -> String {
    format!(
        "cache: {} hits, {} misses, {} evictions ({} probes reached the source)",
        stats.cache_hits, stats.cache_misses, stats.cache_evictions, stats.queries_issued
    )
}

/// Load the relation + schema a data-driven command needs.
fn load(args: &Args) -> Result<(Schema, Relation), String> {
    let csv_path = args.required("csv")?;
    let spec = args.required("schema")?;
    let schema = schema_spec::parse_schema("R", &spec)?;
    let file =
        std::fs::File::open(&csv_path).map_err(|e| format!("cannot open {csv_path}: {e}"))?;
    let relation =
        read_csv(&schema, BufReader::new(file)).map_err(|e| format!("{csv_path}: {e}"))?;
    if relation.is_empty() {
        return Err(format!("{csv_path} holds no tuples"));
    }
    Ok((schema, relation))
}

fn train_config(args: &Args) -> Result<TrainConfig, String> {
    Ok(TrainConfig {
        tane: TaneConfig {
            error_threshold: args.f64_or("terr", 0.15)?,
            max_lhs_size: args.usize_or("max-lhs", 3)?,
            ..TaneConfig::default()
        },
        smoothing: 0.05,
        ..TrainConfig::default()
    })
}

fn describe(args: &Args) -> Result<(), String> {
    use aimq_catalog::Domain;
    let (schema, relation) = load(args)?;
    println!("relation: {} ({} tuples)\n", schema, relation.len());
    for attr in schema.attr_ids() {
        let column = relation.column(attr);
        match schema.domain(attr) {
            Domain::Categorical => {
                // Top values by frequency, via the inverted index.
                let dict = column.dictionary().expect("categorical column");
                let mut freq: Vec<(usize, &str)> = (0..dict.len() as u32)
                    .map(|code| {
                        (
                            relation.rows_with_code(attr, code).len(),
                            dict.value_of(code).expect("dense code"),
                        )
                    })
                    .collect();
                freq.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
                let top: Vec<String> = freq
                    .iter()
                    .take(5)
                    .map(|(n, v)| format!("{v} ({n})"))
                    .collect();
                println!(
                    "  {:22} categorical, {} distinct: {}",
                    schema.attr_name(attr),
                    dict.len(),
                    top.join(", ")
                );
            }
            Domain::Numeric => {
                let values = column.numbers().expect("numeric column");
                let finite: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
                if finite.is_empty() {
                    println!("  {:22} numeric, all null", schema.attr_name(attr));
                    continue;
                }
                let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
                let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let mean = finite.iter().sum::<f64>() / finite.len() as f64;
                println!(
                    "  {:22} numeric, {} distinct, min {min}, mean {mean:.1}, max {max}",
                    schema.attr_name(attr),
                    column.distinct_count(),
                );
            }
        }
    }
    Ok(())
}

fn mine(args: &Args) -> Result<(), String> {
    let (schema, relation) = load(args)?;
    let system = AimqSystem::train(&relation, &train_config(args)?).map_err(|e| e.to_string())?;

    if let Ok(model_path) = args.required("save") {
        system
            .save(&model_path)
            .map_err(|e| format!("cannot save model to {model_path}: {e}"))?;
        println!("saved trained model to {model_path}");
    }

    println!("relation: {} ({} tuples)\n", schema, relation.len());

    let mined = system.mined();
    println!("minimal AFDs (g3 ≤ {}):", args.f64_or("terr", 0.15)?);
    let mut afds = mined.minimal_afds();
    afds.sort_by(|a, b| a.error.total_cmp(&b.error));
    for afd in &afds {
        println!(
            "  {} → {}   support {:.3}",
            afd.lhs.display_with(&schema),
            schema.attr_name(afd.rhs),
            afd.support()
        );
    }
    if afds.is_empty() {
        println!("  (none — try a looser --terr)");
    }

    println!("\napproximate keys:");
    let mut keys = mined.keys().to_vec();
    keys.sort_by(|a, b| b.quality().total_cmp(&a.quality()));
    for key in keys.iter().take(10) {
        println!(
            "  {}   quality {:.3}",
            key.attrs.display_with(&schema),
            key.quality()
        );
    }
    if keys.is_empty() {
        println!("  (none — try a looser --terr)");
    }

    println!("\nattribute relaxation order (least important first):");
    let ordering = system.ordering();
    for &attr in ordering.relaxation_order() {
        println!(
            "  {:2}. {:20} Wimp {:.4}",
            ordering.relax_position(attr),
            schema.attr_name(attr),
            ordering.importance(attr)
        );
    }
    Ok(())
}

fn query(args: &Args) -> Result<(), String> {
    let (schema, relation) = load(args)?;
    let query_text = args.required("query")?;
    let query = query_lang::parse_query(&schema, &query_text)?;

    let sample_size = args.usize_or("sample", (relation.len() / 4).max(500))?;
    let seed = args.u64_or("seed", 1)?;
    let db = InMemoryWebDb::new(relation);
    let system = match args.required("model") {
        Ok(model_path) => AimqSystem::load(&model_path)
            .map_err(|e| format!("cannot load model from {model_path}: {e}"))?,
        Err(_) => {
            let sample = db.relation().random_sample(sample_size, seed);
            AimqSystem::train(&sample, &train_config(args)?).map_err(|e| e.to_string())?
        }
    };

    let config = EngineConfig {
        t_sim: args.f64_or("tsim", 0.5)?,
        top_k: args.usize_or("k", 10)?,
        ..EngineConfig::default()
    };
    let profile_name = args
        .required("faults")
        .unwrap_or_else(|_| "none".to_owned());
    let profile = FaultProfile::by_name(&profile_name)
        .ok_or_else(|| format!("unknown fault profile `{profile_name}` (none|flaky|hostile)"))?;
    let fault_seed = args.u64_or("fault-seed", seed)?;
    let no_cache = args.bool_or("no-cache", false)?;
    let cache_capacity = args.usize_or("cache-capacity", DEFAULT_CACHE_CAPACITY)?;
    let sources = args.usize_or("sources", 1)?;
    if sources == 0 {
        return Err("--sources must be at least 1".to_owned());
    }
    let replication = args.usize_or("replication", 2)?;
    let hedge_delay = args.u64_or("hedge-delay", 4)?;

    // The memoizing cache always sits OUTERMOST so that hits cost
    // nothing: no probe-budget charge, no breaker state, no fault
    // ordinal (see DESIGN.md, "Probe caching & dedup semantics").
    let (result, cache_note) = if sources >= 2 {
        // Federated path: shard the relation into simulated autonomous
        // sources, each with its own profile, seed, and resilience stack
        // (member caches included — FederationPolicy::cache_capacity).
        let mut profiles: Vec<FaultProfile> = Vec::with_capacity(sources);
        if let Ok(list) = args.required("fault-profile-per-source") {
            for name in list.split(',') {
                let p = FaultProfile::by_name(name.trim()).ok_or_else(|| {
                    format!("unknown fault profile `{name}` in --fault-profile-per-source")
                })?;
                profiles.push(p);
            }
            if profiles.len() > sources {
                return Err(format!(
                    "--fault-profile-per-source lists {} profiles for {sources} sources",
                    profiles.len()
                ));
            }
        }
        profiles.resize(sources, profile);
        let specs: Vec<SourceSpec> = profiles
            .into_iter()
            .enumerate()
            .map(|(i, p)| SourceSpec {
                profile: p,
                fault_seed: fault_seed.wrapping_add(i as u64),
                ..SourceSpec::benign(format!("s{i}"))
            })
            .collect();
        let policy = FederationPolicy {
            hedge_delay: (hedge_delay > 0).then_some(hedge_delay),
            cache_capacity: if no_cache { 0 } else { cache_capacity },
            ..FederationPolicy::default()
        };
        let federated = FederatedWebDb::shard(db.relation(), &specs, replication, policy)
            .ok_or("could not shard the relation into federation members")?;
        let result = system.answer(&federated, &query, &config);
        let note = (!no_cache).then(|| cache_summary(&federated.stats()));
        (result, note)
    } else if profile.is_benign() {
        if no_cache {
            (system.answer(&db, &query, &config), None)
        } else {
            let cached = CachedWebDb::new(db, cache_capacity);
            let result = system.answer(&cached, &query, &config);
            let note = cache_summary(&cached.stats());
            (result, Some(note))
        }
    } else {
        let faulty = FaultInjectingWebDb::new(db, profile, fault_seed);
        let resilient = ResilientWebDb::new(faulty, RetryPolicy::default());
        if no_cache {
            (system.answer(&resilient, &query, &config), None)
        } else {
            let cached = CachedWebDb::new(resilient, cache_capacity);
            let result = system.answer(&cached, &query, &config);
            let note = cache_summary(&cached.stats());
            (result, Some(note))
        }
    };

    println!("query: {}", query.display_with(&schema));
    println!(
        "base query: {} ({} base tuples; {} tuples examined)",
        result.base_query.display_with(&schema),
        result.base_set_size,
        result.stats.tuples_examined
    );
    println!("degradation: {}", result.degradation);
    for source in &result.degradation.sources {
        println!("  source {source}");
    }
    if let Some(note) = &cache_note {
        println!("{note}");
    }
    println!();
    if result.answers.is_empty() {
        match result.degradation.completeness {
            aimq::Completeness::Empty => println!(
                "no answers — but the source faulted; re-run or relax --tsim \
                 before concluding nothing matches"
            ),
            aimq::Completeness::Full | aimq::Completeness::Partial => {
                println!("no answers above Tsim {}", config.t_sim)
            }
        }
    }
    for (i, answer) in result.answers.iter().enumerate() {
        println!(
            "{:2}. sim={:.3}  {}",
            i + 1,
            answer.similarity,
            answer.tuple.display_with(&schema)
        );
    }
    Ok(())
}

fn demo(args: &Args) -> Result<(), String> {
    let size = args.usize_or("size", 20_000)?;
    let seed = args.u64_or("seed", 42)?;
    println!("generating CarDB with {size} tuples (seed {seed})...");
    let db = InMemoryWebDb::new(CarDb::generate(size, seed));
    let schema = db.relation().schema().clone();
    let sample = db.relation().random_sample(size / 4, 1);
    let system = AimqSystem::train(&sample, &train_config(args)?).map_err(|e| e.to_string())?;

    let query = query_lang::parse_query(&schema, "Model like Camry, Price like 10000")?;
    let result = system.answer(
        &db,
        &query,
        &EngineConfig {
            t_sim: 0.5,
            top_k: 10,
            ..EngineConfig::default()
        },
    );
    println!("\n{} →", query.display_with(&schema));
    for (i, answer) in result.answers.iter().enumerate() {
        println!(
            "{:2}. sim={:.3}  {}",
            i + 1,
            answer.similarity,
            answer.tuple.display_with(&schema)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    /// Best-effort cleanup of a temp artifact. A missing file is fine
    /// (the test may have failed before creating it); anything else —
    /// permissions, a directory in the way — is worth a note, because
    /// a leaked artifact can poison the next run's assertions.
    fn remove_artifact(path: &std::path::Path) {
        if let Err(err) = std::fs::remove_file(path) {
            if err.kind() != std::io::ErrorKind::NotFound {
                eprintln!("warning: failed to remove {}: {err}", path.display());
            }
        }
    }

    /// Writes the mini CSV to a path of its own: tests run on parallel
    /// threads of one process, so a per-process name would let one
    /// test truncate or delete the file another is reading.
    fn write_mini_csv() -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("aimq_cli_test_{}_{n}.csv", std::process::id()));
        std::fs::write(
            &path,
            "Make,Model,Price\n\
             Toyota,Camry,9500\nToyota,Camry,10100\nToyota,Corolla,7800\n\
             Honda,Accord,9700\nHonda,Accord,10400\nHonda,Civic,7200\n\
             Ford,Focus,8100\nFord,F150,24000\n",
        )
        .unwrap();
        path
    }

    #[test]
    fn help_and_no_args_succeed() {
        assert!(run(&[]).is_ok());
        assert!(run(&argv(&["help"])).is_ok());
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = run(&argv(&["frobnicate"])).unwrap_err();
        assert!(err.contains("frobnicate"));
    }

    #[test]
    fn serve_bench_rejects_a_bad_scale() {
        let err = run(&argv(&["serve-bench", "--scale", "tiny"])).unwrap_err();
        assert!(err.contains("--scale"), "{err}");
    }

    #[test]
    fn serve_bench_runs_at_a_heavy_divisor() {
        // Divisor 2000 floors every size (50-tuple CarDB, 3 queries),
        // so the whole 1/2/4/8 ladder runs in well under a second.
        assert_eq!(
            run(&argv(&["serve-bench", "--scale", "2000", "--seed", "5"])),
            Ok(())
        );
    }

    #[test]
    fn serve_http_once_self_checks_and_drains() {
        // Port 0 avoids collisions; --once exercises bind → serve →
        // self-check (health + one search) → graceful drain.
        assert_eq!(
            run(&argv(&[
                "serve-http",
                "--addr",
                "127.0.0.1:0",
                "--size",
                "400",
                "--seed",
                "7",
                "--once",
                "true",
            ])),
            Ok(())
        );
    }

    #[test]
    fn serve_http_rejects_an_unbindable_address() {
        let err = run(&argv(&[
            "serve-http",
            "--addr",
            "256.0.0.1:99999",
            "--size",
            "400",
            "--once",
            "true",
        ]))
        .unwrap_err();
        assert!(err.contains("cannot serve"), "{err}");
    }

    #[test]
    fn mine_describe_and_query_run_end_to_end() {
        let path = write_mini_csv();
        let csv = path.to_str().unwrap();
        let schema = "Make:cat,Model:cat,Price:num";
        assert_eq!(
            run(&argv(&["describe", "--csv", csv, "--schema", schema])),
            Ok(())
        );
        assert_eq!(
            run(&argv(&[
                "mine", "--csv", csv, "--schema", schema, "--terr", "0.3"
            ])),
            Ok(())
        );
        assert_eq!(
            run(&argv(&[
                "query",
                "--csv",
                csv,
                "--schema",
                schema,
                "--query",
                "Model like Camry, Price like 10000",
                "--tsim",
                "0.2",
                "--sample",
                "8",
            ])),
            Ok(())
        );
        remove_artifact(&path);
    }

    #[test]
    fn saved_model_round_trips_through_query() {
        let path = write_mini_csv();
        let csv = path.to_str().unwrap();
        let schema = "Make:cat,Model:cat,Price:num";
        let model_path =
            std::env::temp_dir().join(format!("aimq_cli_model_{}.bin", std::process::id()));
        let model = model_path.to_str().unwrap();
        assert_eq!(
            run(&argv(&[
                "mine", "--csv", csv, "--schema", schema, "--terr", "0.3", "--save", model,
            ])),
            Ok(())
        );
        assert_eq!(
            run(&argv(&[
                "query",
                "--csv",
                csv,
                "--schema",
                schema,
                "--query",
                "Model like Camry",
                "--tsim",
                "0.2",
                "--model",
                model,
            ])),
            Ok(())
        );
        remove_artifact(&path);
        remove_artifact(&model_path);
    }

    #[test]
    fn query_under_fault_profiles_never_errors() {
        let path = write_mini_csv();
        let csv = path.to_str().unwrap();
        let schema = "Make:cat,Model:cat,Price:num";
        for profile in ["none", "flaky", "hostile"] {
            assert_eq!(
                run(&argv(&[
                    "query",
                    "--csv",
                    csv,
                    "--schema",
                    schema,
                    "--query",
                    "Model like Camry",
                    "--tsim",
                    "0.2",
                    "--sample",
                    "8",
                    "--faults",
                    profile,
                    "--fault-seed",
                    "7",
                ])),
                Ok(()),
                "profile {profile} must degrade gracefully, not error"
            );
        }
        remove_artifact(&path);
    }

    #[test]
    fn cache_flags_are_accepted_in_every_combination() {
        let path = write_mini_csv();
        let csv = path.to_str().unwrap();
        let schema = "Make:cat,Model:cat,Price:num";
        for extra in [
            &["--no-cache", "true"][..],
            &["--cache-capacity", "4"][..],
            &["--cache-capacity", "0"][..],
            &["--faults", "flaky", "--cache-capacity", "64"][..],
        ] {
            let mut cmd = argv(&[
                "query",
                "--csv",
                csv,
                "--schema",
                schema,
                "--query",
                "Model like Camry",
                "--tsim",
                "0.2",
                "--sample",
                "8",
            ]);
            cmd.extend(extra.iter().map(|s| (*s).to_owned()));
            assert_eq!(run(&cmd), Ok(()), "flags {extra:?}");
        }
        remove_artifact(&path);
    }

    #[test]
    fn federated_query_runs_across_profile_mixes() {
        let path = write_mini_csv();
        let csv = path.to_str().unwrap();
        let schema = "Make:cat,Model:cat,Price:num";
        for extra in [
            &["--sources", "3"][..],
            &[
                "--sources",
                "4",
                "--fault-profile-per-source",
                "hostile,none",
            ][..],
            &["--sources", "2", "--replication", "1", "--hedge-delay", "0"][..],
            &["--sources", "3", "--faults", "flaky", "--no-cache", "true"][..],
        ] {
            let mut cmd = argv(&[
                "query",
                "--csv",
                csv,
                "--schema",
                schema,
                "--query",
                "Model like Camry",
                "--tsim",
                "0.2",
                "--sample",
                "8",
            ]);
            cmd.extend(extra.iter().map(|s| (*s).to_owned()));
            assert_eq!(run(&cmd), Ok(()), "flags {extra:?}");
        }
        remove_artifact(&path);
    }

    #[test]
    fn federation_flag_misuse_is_reported() {
        let path = write_mini_csv();
        let csv = path.to_str().unwrap();
        let schema = "Make:cat,Model:cat,Price:num";
        let base = |extra: &[&str]| {
            let mut cmd = argv(&[
                "query",
                "--csv",
                csv,
                "--schema",
                schema,
                "--query",
                "Model like Camry",
            ]);
            cmd.extend(extra.iter().map(|s| (*s).to_owned()));
            cmd
        };
        let err = run(&base(&["--sources", "0"])).unwrap_err();
        assert!(err.contains("--sources"), "{err}");
        let err = run(&base(&[
            "--sources",
            "2",
            "--fault-profile-per-source",
            "none,chaotic",
        ]))
        .unwrap_err();
        assert!(err.contains("chaotic"), "{err}");
        let err = run(&base(&[
            "--sources",
            "2",
            "--fault-profile-per-source",
            "none,none,none",
        ]))
        .unwrap_err();
        assert!(err.contains("3 profiles for 2 sources"), "{err}");
        remove_artifact(&path);
    }

    #[test]
    fn unknown_fault_profile_is_reported() {
        let path = write_mini_csv();
        let csv = path.to_str().unwrap();
        let err = run(&argv(&[
            "query",
            "--csv",
            csv,
            "--schema",
            "Make:cat,Model:cat,Price:num",
            "--query",
            "Model like Camry",
            "--faults",
            "chaotic",
        ]))
        .unwrap_err();
        assert!(err.contains("chaotic"));
        remove_artifact(&path);
    }

    #[test]
    fn missing_flags_are_reported() {
        let err = run(&argv(&["query", "--csv", "x.csv"])).unwrap_err();
        assert!(err.contains("--schema"));
    }

    #[test]
    fn missing_file_is_reported() {
        let err = run(&argv(&[
            "mine",
            "--csv",
            "/definitely/not/here.csv",
            "--schema",
            "A:cat",
        ]))
        .unwrap_err();
        assert!(err.contains("cannot open"));
    }
}
