//! `graphkeys` — command-line entity matching with keys for graphs.
//!
//! ```text
//! graphkeys stats    <graph.triples>
//! graphkeys keys     <keys.gk>
//! graphkeys validate <graph.triples> <keys.gk>
//! graphkeys match    <graph.triples> <keys.gk> [--algo ref|mr|mr-opt|mr-vf2|vc|vc-opt]
//!                    [-p N] [-k K] [--normalize casefold|alphanum] [--explain A,B]
//! graphkeys chase    <graph.triples> <keys.gk> [--engine reference|parallel]
//!                    [--threads N] [--seed S]
//! graphkeys gen      --flavor google|dbpedia|synthetic [--scale F] [--keys N]
//!                    [--chain C] [--radius D] [--seed S] --out DIR
//! graphkeys serve    <graph.triples> <keys.gk> [--port P] [--threads N]
//!                    [--engine reference|incremental|parallel]
//!                    [--data-dir DIR] [--fsync always|batch|never]
//!                    [--metrics-addr HOST:PORT] [--slow-query-ms N]
//! graphkeys metrics  <addr>
//! graphkeys recover  --data-dir DIR [--engine E] [--threads N] [--verify]
//! graphkeys query    <addr> <verb> [args...]
//! graphkeys query    <addr> --stdin [--depth N]
//! ```
//!
//! Graphs use the triple text format of `gk-graph` (`entity:Type pred
//! "value"` lines); keys use the DSL of `gk-core` (`key "Q" type(x) {...}`).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match gk_cli::run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // The usage dump helps with argument mistakes, not with errors
            // the running system answered.
            if !gk_cli::is_runtime_error(&e) {
                eprintln!();
                eprintln!("{}", gk_cli::USAGE);
            }
            ExitCode::FAILURE
        }
    }
}
