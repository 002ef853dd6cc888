//! `meshsim` binary shell: parse, execute, print.

use meshsim::args::{Cli, ParseError, USAGE};

fn main() {
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(ParseError(msg)) if msg == "help" => {
            print!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    match meshsim::execute(&cli) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
