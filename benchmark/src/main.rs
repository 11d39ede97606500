//! Command-line entry point of the repository benchmark; see the library
//! docs for the workloads, metrics and checks.

use iotsan_perfbench::{run, Args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&args) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("bench: {error}");
            eprintln!("usage: bench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(outcome) => print!("{}", outcome.render()),
        Err(error) => {
            eprintln!("bench: {error}");
            std::process::exit(1);
        }
    }
}
