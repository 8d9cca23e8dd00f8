//! Regenerate the paper's evaluation figures (§5.2, Figure 6a/b/c), the
//! ablations and the engine experiments as text tables, writing each
//! experiment's JSON artifact (tracked by CI) to the working directory.
//!
//! ```text
//! repro [fig6a|fig6b|fig6c|ablations|scaling|durability|recovery|readscale|pointmix|rangemix|sharding|hotcycle|auditgraph|all] [--full]
//! ```
//!
//! Every subcommand is an entry of `youtopia_bench::EXPERIMENTS`; its
//! documentation lists what each measures and its acceptance figure.
//! `--full` uses a larger transaction count per point (slower, smoother
//! curves). Tables mirror the paper's series: the swept value, then one
//! column per curve.

use youtopia_bench::{Scale, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map_or("all", String::as_str);
    let scale = if full { Scale::full() } else { Scale::quick() };

    let chosen: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|e| what == "all" || e.name == what)
        .collect();
    if chosen.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        eprintln!(
            "unknown experiment `{what}`; expected {}|all",
            names.join("|")
        );
        std::process::exit(2);
    }
    for exp in chosen {
        let rows = exp.run(&scale);
        print!("{}", exp.table(&scale, &rows));
        if let Some(file) = exp.artifact {
            std::fs::write(file, exp.json(&scale, &rows))
                .unwrap_or_else(|e| panic!("write {file}: {e}"));
            println!("# baseline written to {file}");
        }
        println!();
    }
}
