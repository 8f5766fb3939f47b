//! Regenerates the paper's figures and tables.
//!
//! ```text
//! experiments <id>... [--quick] [--jobs N]   run the named experiments
//! experiments all [--quick] [--jobs N]       run everything
//! experiments list                           list experiment ids
//! ```
//!
//! Every selected experiment contributes its simulation cells to one
//! shared bounded worker pool (`--jobs N`, or `DOPHY_JOBS`, default: the
//! machine's cores); byte-equal scenarios execute once via the
//! content-addressed run cache. Results print as aligned text tables and
//! are saved as JSON under `target/experiments/`, together with
//! `BENCH_harness.json` (pool/cache/per-experiment execution telemetry,
//! plus the engine telemetry of every simulation the suite executed).

use dophy_bench::executor::{execute_plans, resolve_jobs};
use dophy_bench::figures::{registry, Experiment};
use dophy_bench::plan::Plan;

fn parse_args(args: &[String]) -> (Vec<&str>, bool, Option<usize>) {
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let mut jobs = None;
    let mut names = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a == "--jobs" || a == "-j" {
            i += 1;
            jobs = args.get(i).and_then(|v| v.parse::<usize>().ok());
            if jobs.is_none() {
                eprintln!("--jobs needs a positive integer");
                std::process::exit(2);
            }
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            jobs = v.parse::<usize>().ok();
            if jobs.is_none() {
                eprintln!("--jobs needs a positive integer");
                std::process::exit(2);
            }
        } else if !a.starts_with('-') {
            names.push(a);
        }
        i += 1;
    }
    (names, quick, jobs)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (names, quick, jobs_flag) = parse_args(&args);

    let reg = registry();
    if names.is_empty() || names == ["list"] {
        eprintln!(
            "usage: experiments <id>... [--quick] [--jobs N] | all [--quick] [--jobs N] | list"
        );
        eprintln!("experiments:");
        for (id, _) in &reg {
            eprintln!("  {id}");
        }
        if names.is_empty() {
            std::process::exit(2);
        }
        return;
    }

    let selected: Vec<&Experiment> = if names == ["all"] {
        reg.iter().collect()
    } else {
        let mut sel = Vec::new();
        for n in &names {
            match reg.iter().find(|(id, _)| id == n) {
                Some(e) => sel.push(e),
                None => {
                    eprintln!("unknown experiment '{n}' (try 'list')");
                    std::process::exit(2);
                }
            }
        }
        sel
    };

    let plans: Vec<Plan> = selected.iter().map(|(_, f)| f(quick)).collect();
    let total_cells: usize = plans.iter().map(|p| p.cells.len()).sum();
    let jobs = resolve_jobs(jobs_flag, total_cells);
    eprintln!(
        ">>> running {} experiment(s), {} cell(s), {} worker(s){}",
        plans.len(),
        total_cells,
        jobs,
        if quick { " (quick)" } else { "" }
    );

    let outcome = execute_plans(plans, jobs);

    let mut failures = 0usize;
    for exp in &outcome.experiments {
        match &exp.result {
            Ok(fig) => {
                println!("{}", fig.render());
                match fig.save() {
                    Ok(path) => eprintln!("    saved {}", path.display()),
                    Err(e) => eprintln!("    could not save JSON: {e}"),
                }
            }
            Err(e) => {
                failures += 1;
                eprintln!("!!! {} failed: {e}", exp.id);
            }
        }
    }

    let rep = &outcome.report;
    for cell in &rep.cells {
        eprintln!(
            "    cell {}/{}: {}{:.1}s (started +{:.1}s)",
            cell.experiment,
            cell.label,
            if cell.cached { "cached, " } else { "" },
            cell.wall_seconds,
            cell.started_s,
        );
    }
    for exp in &rep.experiments {
        eprintln!(
            "    experiment {}: {} cell(s), {:.1}s{}",
            exp.id,
            exp.cells,
            exp.wall_seconds,
            if exp.ok { "" } else { " FAILED" }
        );
    }
    eprintln!(
        ">>> suite: {:.1}s wall | {} workers (peak {}) | {} unique runs, {} cache hits",
        rep.suite_wall_seconds, rep.jobs, rep.max_pool_depth, rep.unique_runs, rep.cache_hits
    );

    let out_dir = std::path::Path::new("target/experiments");
    let harness_path = out_dir.join("BENCH_harness.json");
    match serde_json::to_string_pretty(rep)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
        .and_then(|json| {
            std::fs::create_dir_all(out_dir)?;
            std::fs::write(&harness_path, json)
        }) {
        Ok(()) => eprintln!("harness report saved to {}", harness_path.display()),
        Err(e) => eprintln!("could not write {}: {e}", harness_path.display()),
    }

    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        std::process::exit(1);
    }
}
