//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Diagnostics go to standard error. Exits non-zero on bad arguments or
//! when the result line cannot be formed.

use std::process::ExitCode;

use perfbench::{metrics, workloads, Args};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = workloads::run(&args);
    for p in &outcome.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    match outcome.render(metrics::defs(args.trace)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
