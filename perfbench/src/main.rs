//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run record as one JSON line, then the result as the last
//! line of standard output. Exits non-zero without a result when the run
//! cannot produce every metric.

use perfbench::{run, Options};

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        perfbench::workload::WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let mut opts = Options::new("", 1, 10.0, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if opts.trace {
        opts.spans_out =
            Some(format!(".perfbench/spans-{}-{}.jsonl", opts.workload, opts.seed).into());
    }
    match run(&opts) {
        Ok(outcome) => {
            println!("{}", outcome.record);
            println!("{}", outcome.result_line());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
