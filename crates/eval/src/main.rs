//! `aimq-eval <experiment>`: runs one table or figure of the paper's
//! evaluation (or one extension) and prints its report.
//!
//! ```text
//! cargo run -p aimq-eval --release -- fig6_7
//! AIMQ_SCALE=quick cargo run -p aimq-eval --release -- fig6_7
//! ```
//!
//! `AIMQ_SCALE` (`full`, `quick` or an integer divisor) sets the dataset
//! sizes; the seed is fixed at 42. A missing or unknown experiment name
//! prints the names to stderr and exits 2.

use std::process::ExitCode;

use aimq_eval::{experiments, Scale};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let report = match args.as_slice() {
        [name] => experiments::report(name, Scale::from_env(), 42),
        _ => None,
    };
    match report {
        Some(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "usage: aimq-eval <experiment>\nexperiments: {}",
                experiments::NAMES.join(" ")
            );
            ExitCode::from(2)
        }
    }
}
