//! `pimbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON result object as the
//! last line of standard output. Exits non-zero (without a result) on
//! bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use pimbench::workloads::{RunArgs, WORKLOADS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut run =
        RunArgs { seed: 1, seconds: 10.0, trace: false, out_dir: PathBuf::from("pimbench-out") };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        let ok = match (args[i].as_str(), value) {
            ("--workload", Some(v)) => {
                workload = Some(v.to_string());
                true
            }
            ("--seed", Some(v)) => v.parse().map(|s| run.seed = s).is_ok(),
            ("--seconds", Some(v)) => v.parse().map(|s| run.seconds = s).is_ok(),
            ("--trace", Some(v)) => {
                run.trace = v == "1";
                v == "0" || v == "1"
            }
            _ => false,
        };
        if !ok {
            eprintln!("bad argument {:?}; usage: pimbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>", args[i], WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
        i += 2;
    }
    let Some(name) = workload else {
        eprintln!("--workload is required: one of {}", WORKLOADS.join(", "));
        return ExitCode::from(2);
    };
    let Some(report) = pimbench::run(&name, &run) else {
        eprintln!("unknown workload {name}: one of {}", WORKLOADS.join(", "));
        return ExitCode::from(2);
    };
    for line in report.lines(run.trace) {
        println!("{line}");
    }
    println!("{}", report.json(run.trace));
    ExitCode::SUCCESS
}
