//! `promips_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a run log and, as the last line of standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exits
//! non-zero after that line when an operation failed or a correctness
//! check was violated, and without it when the run could not be carried
//! out at all.

use std::process::ExitCode;

use promips_benchmark::spec::{Scale, Workload};
use promips_benchmark::workload;

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {names:?}")
                })?)
            }
            "--seed" => seed = number()?,
            // Part of the command line the driver sends. The run length is
            // fixed by the pass counts in `spec.rs`, never by this value.
            "--seconds" => {
                number()?;
            }
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload <name> is required")?,
        seed,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match workload::run(args.workload, &Scale::full(), args.seed, args.trace) {
        Ok(report) => {
            print!("{}", report.to_table());
            println!("{}", report.to_json());
            if report.is_correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
