//! Experiment driver: regenerates the data behind every figure of the Smoke
//! evaluation and prints it as aligned tables.
//!
//! Usage:
//!
//! ```text
//! experiments [<experiment>...|all] [--scale <factor>] [--runs <n>]
//! ```
//!
//! Run `experiments --help` for the experiment list (it is generated from
//! the same registry that dispatches them, so it cannot drift). The default
//! scale keeps the full suite at laptop/CI runtimes; pass `--scale 10` (or
//! more) to approach the paper's dataset sizes.

use std::collections::HashMap;
use std::process::ExitCode;

use smoke_bench::{apps_exp, micro, query_exp, render_table, tpch_exp, ExpRow, Scale};

/// One runnable experiment: its CLI name, the one-line description shown by
/// `--help` and above its output table, and the function that produces its
/// rows. This table is the single source of truth for the subcommand list —
/// the `all` expansion, usage text, and dispatch all derive from it.
///
/// Figures 11+12 and 13+14 are measured by one shared run each; every row
/// names the figure it belongs to, so `main` runs the shared function once
/// and hands each figure its own rows.
struct Experiment {
    name: &'static str,
    describe: &'static str,
    run: fn(&Scale) -> Vec<ExpRow>,
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig5",
        describe: "Figure 5: group-by aggregation lineage capture",
        run: micro::fig5,
    },
    Experiment {
        name: "fig6",
        describe: "Figure 6: pk-fk join lineage capture",
        run: micro::fig6,
    },
    Experiment {
        name: "fig7",
        describe: "Figure 7: m:n join lineage capture",
        run: micro::fig7,
    },
    Experiment {
        name: "fig8",
        describe: "Figure 8: TPC-H capture overhead (Smoke-I vs Logic-Idx)",
        run: tpch_exp::fig8,
    },
    Experiment {
        name: "fig9",
        describe: "Figure 9: backward lineage query latency vs skew",
        run: query_exp::fig9,
    },
    Experiment {
        name: "fig10",
        describe: "Figure 10: data skipping for lineage-consuming queries",
        run: tpch_exp::fig10,
    },
    Experiment {
        name: "fig11",
        describe: "Figure 11: aggregation push-down query latency",
        run: tpch_exp::fig11_12,
    },
    Experiment {
        name: "fig12",
        describe: "Figure 12: aggregation push-down capture overhead",
        run: tpch_exp::fig11_12,
    },
    Experiment {
        name: "fig13",
        describe: "Figure 13: crossfilter cumulative latency",
        run: apps_exp::fig13_14,
    },
    Experiment {
        name: "fig14",
        describe: "Figure 14: crossfilter per-interaction latency",
        run: apps_exp::fig13_14,
    },
    Experiment {
        name: "fig15",
        describe: "Figure 15: FD-violation profiling latency",
        run: apps_exp::fig15,
    },
    Experiment {
        name: "fig21",
        describe: "Figure 21: selection capture across selectivities",
        run: micro::fig21,
    },
    Experiment {
        name: "fig22",
        describe: "Figure 22: instrumentation pruning per input relation",
        run: tpch_exp::fig22,
    },
    Experiment {
        name: "fig23",
        describe: "Figure 23: selection push-down capture latency",
        run: tpch_exp::fig23,
    },
];

const USAGE: &str = "Usage: experiments [<experiment>...|all] [--scale <factor>] [--runs <n>]";

fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// What the command line asked for.
enum Command {
    Help,
    Run(Vec<&'static Experiment>, Scale),
}

/// Parses the command line; `Err` carries the usage error to report.
fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut names: Vec<&str> = Vec::new();
    let mut scale = Scale::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--scale" => {
                scale.factor = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|f: &f64| f.is_finite() && *f > 0.0)
                    .ok_or("--scale requires a positive number")?;
            }
            "--runs" => {
                scale.runs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| *n > 0)
                    .ok_or("--runs requires a positive integer")?;
            }
            name => names.push(name),
        }
    }
    if names.is_empty() || names.contains(&"all") {
        return Ok(Command::Run(EXPERIMENTS.iter().collect(), scale));
    }
    let which = names
        .into_iter()
        .map(|name| find(name).ok_or(format!("unknown experiment `{name}`")))
        .collect::<Result<_, _>>()?;
    Ok(Command::Run(which, scale))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (which, scale) = match parse_args(&args) {
        Ok(Command::Help) => {
            print_usage();
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run(which, scale)) => (which, scale),
        Err(message) => {
            eprintln!("{message}\n{USAGE}\n(run --help for the experiment list)");
            return ExitCode::from(2);
        }
    };

    // Rows by the figure they name: a shared run fills two figures at once,
    // and the second one is then printed without running again.
    let mut by_figure: HashMap<String, Vec<ExpRow>> = HashMap::new();
    let mut total = 0;
    for exp in which {
        if !by_figure.contains_key(exp.name) {
            for row in (exp.run)(&scale) {
                by_figure
                    .entry(row.experiment.clone())
                    .or_default()
                    .push(row);
            }
        }
        let Some(rows) = by_figure.get(exp.name) else {
            continue;
        };
        println!("\n== {} ==", exp.describe);
        println!("{}", render_table(rows));
        total += rows.len();
    }
    println!("\ntotal measurements: {total}");
    ExitCode::SUCCESS
}

fn print_usage() {
    println!("{USAGE}");
    println!();
    println!("Experiments:");
    for exp in EXPERIMENTS {
        println!("  {:<12} {}", exp.name, exp.describe);
    }
    println!(
        "\nRegenerates the data behind the figures of the Smoke evaluation and\n\
         prints it as aligned tables. The default scale keeps the full suite at\n\
         laptop/CI runtimes; pass --scale 10 (or more) to approach the paper's\n\
         dataset sizes.\n\
         \n\
         Options:\n\
         \x20 --scale <factor>  multiply every default dataset size\n\
         \x20 --runs <n>        timed runs per measurement"
    );
}
