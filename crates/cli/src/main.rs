//! `cbtc` — command-line interface to the cone-based topology control
//! reproduction.
//!
//! ```text
//! cbtc run        run CBTC on a random network and print/emit the topology
//! cbtc construct  build the paper's Example 2.1 / Theorem 2.4 point sets
//! cbtc compare    compare optimization levels on one network
//! cbtc lifetime   simulate traffic + battery drain, report lifetime factors
//! cbtc churn      run the §4 reconfiguration protocol under mobility + churn
//! cbtc phy        sweep shadowing σ: CBTC robustness off the unit disk
//! cbtc serve      stream churn events through the incremental engine, report latency percentiles
//! cbtc replay     render a recorded trace as an animated SVG / HTML player
//! cbtc analyze    validate and summarize a recorded trace
//! cbtc help       show usage
//! ```

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::FAILURE;
    };
    let args = args::Args::new(rest.to_vec());
    let result = match command.as_str() {
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        name => commands::dispatch(name, &args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
