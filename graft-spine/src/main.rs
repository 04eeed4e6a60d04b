//! `graft-spine run --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!  [--smoke] [--out DIR]` runs one workload and prints every metric;
//! `graft-spine compare A_DIR B_DIR` judges two sets of runs;
//! `graft-spine list` prints the workload names.

use std::path::PathBuf;
use std::process::ExitCode;

use graft_spine::pipeline::{run, RunArgs};
use graft_spine::{compare, report, workloads};

fn usage() -> ExitCode {
    eprintln!(
        "usage: graft-spine run --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--out DIR]\n       graft-spine compare A_DIR B_DIR\n       graft-spine list"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run") => run_command(&argv[1..]),
        Some("compare") if argv.len() == 3 => {
            if compare::compare(&PathBuf::from(&argv[1]), &PathBuf::from(&argv[2])) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("list") => {
            for workload in &workloads::WORKLOADS {
                println!("{}", workload.name);
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn run_command(argv: &[String]) -> ExitCode {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (1u64, 10.0f64, false, false);
    let mut out_dir = PathBuf::from("target/spine-out");
    let mut args = argv.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().map(String::as_str);
        let parsed = match flag.as_str() {
            "--workload" => value().and_then(workloads::by_name).map(|w| workload = Some(w)),
            "--seed" => value().and_then(|v| v.parse().ok()).map(|v| seed = v),
            "--seconds" => value().and_then(|v| v.parse().ok()).map(|v| seconds = v),
            "--trace" => value().and_then(|v| v.parse::<u8>().ok()).map(|v| trace = v != 0),
            "--out" => value().map(|v| out_dir = PathBuf::from(v)),
            "--smoke" => {
                smoke = true;
                Some(())
            }
            _ => None,
        };
        if parsed.is_none() {
            eprintln!("bad or incomplete argument {flag:?}");
            return usage();
        }
    }
    let Some(workload) = workload else { return usage() };

    // Scratch for LocalFs stores sits beside the output, inside the
    // checkout, and is removed when the run ends.
    let work_dir = out_dir.join(format!(".work-{}-{}", workload.name, std::process::id()));
    if let Err(error) = std::fs::create_dir_all(&work_dir) {
        eprintln!("cannot create {}: {error}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let args = RunArgs { workload, seed, seconds, trace, smoke, work_dir };
    let result = run(&args, report::golden_for(workload.name, smoke, seed));
    let _ = std::fs::remove_dir_all(&args.work_dir);

    report::print_table(&args, &result);
    if let Err(error) = report::write_files(&args, &result, &out_dir) {
        eprintln!("cannot write results to {}: {error}", out_dir.display());
        return ExitCode::FAILURE;
    }
    println!("{}", report::result_line(&args, &result));
    if result.ops.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
