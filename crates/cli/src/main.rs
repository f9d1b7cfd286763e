//! `causalformer` — temporal causal discovery on CSV time series.
//! Thin shell over [`cf_cli`]; see `causalformer --help`.

use cf_cli::{
    parse, run_analyze, run_discover, run_generate, run_monitor, run_report, CliError, Command,
    USAGE,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&args) {
        Ok(Command::Help) => {
            println!("{USAGE}");
            return;
        }
        Ok(Command::Discover(a)) => run_discover(&a),
        Ok(Command::Generate(a)) => run_generate(&a),
        Ok(Command::Report(a)) => run_report(&a),
        Ok(Command::Analyze(a)) => match run_analyze(&a) {
            // A gate violation (--max-serial-fraction) is a successful
            // analysis with a failing verdict: print it, then exit 1.
            Ok((report, violations)) => {
                print!("{report}");
                std::process::exit(if violations == 0 { 0 } else { 1 });
            }
            Err(e) => Err(e),
        },
        Ok(Command::Monitor(a)) => run_monitor(&a),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match outcome {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("error: {e}");
            // Usage-class errors exit 2 whether caught at parse time or
            // during validation inside a run_* function.
            std::process::exit(match e {
                CliError::Usage(_) => 2,
                CliError::Run(_) => 1,
            });
        }
    }
}
