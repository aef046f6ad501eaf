//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- compare OLD_DIR NEW_DIR
//! cargo run --release --manifest-path perfbench/Cargo.toml -- list
//! ```
//!
//! Each run builds `NerConfig::default()` from the seed, generates the
//! workload's inputs from the seed with the in-repo corpus generators,
//! measures for `--seconds`, checks every output, and prints a report, a
//! manifest line and, last, one JSON result line. With `--trace 0` the
//! result carries the end-to-end metrics; with `--trace 1` a separate
//! traced run carries the per-layer metrics, timed from outside the
//! crates around the public calls into each layer (`BENCHMARK.json` lists
//! every name; `catalog.rs` says what each measures and should move). Run
//! from the repository root.
//!
//! Exit codes: 0 measured and correct; 1 an output check failed (the
//! result line says `"correct": false`); 2 bad arguments; 3 the run could
//! not complete.

mod catalog;
mod compare;
mod inputs;
mod model;
mod offline;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::{Path, PathBuf};

/// Where a run keeps its files, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 12, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&args.seconds) {
                    return Err("--seconds must be 1..=600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let c = catalog::get();
    if c.workload(&args.workload).is_none() {
        let names: Vec<&str> = c.workloads.iter().map(|w| w.name.as_str()).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(args)
}

pub fn trace_path(args: &Args) -> PathBuf {
    Path::new(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed))
}

fn list() {
    let c = catalog::get();
    println!("workloads:");
    for w in &c.workloads {
        println!("  {:<15} {}", w.name, w.why);
    }
    println!("end-to-end metrics (--trace 0):");
    for m in &c.end_to_end {
        println!(
            "  {:<18} {:<6} {:<6} bound {:<5} {}",
            m.name,
            m.unit,
            m.better,
            m.bound.unwrap_or(0.0),
            m.note()
        );
    }
    println!("per-layer metrics (--trace 1):");
    for m in &c.per_layer {
        println!("  {:<34} {:<8} {:<6} {}", m.name, m.unit, m.better, m.note());
    }
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    let scratch = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
    let result = match args.workload.as_str() {
        "serve-open" | "serve-saturate" => serve::run(args, &scratch),
        "annotate-bulk" => offline::run(args, &scratch),
        "train-epoch" => train::run(args, &scratch),
        _ => unreachable!("workload names are checked by parse"),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("list") => return list(),
        Some("compare") => {
            let [_, old, new] = &argv[..] else {
                eprintln!("usage: compare OLD_DIR NEW_DIR");
                std::process::exit(2);
            };
            match compare::run(Path::new(old), Path::new(new)) {
                Ok(regressed) => std::process::exit(i32::from(regressed)),
                Err(e) => {
                    eprintln!("compare: {e}");
                    std::process::exit(3);
                }
            }
        }
        _ => {}
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let manifest = stats::Manifest {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        simd: ner_tensor::simd::descriptor(),
        pool_threads: ner_par::global_threads(),
        serve_config: None,
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(3);
        }
    };
    let missing = out.missing(args.trace);
    if !missing.is_empty() {
        eprintln!("perfbench: {} did not measure {}", args.workload, missing.join(", "));
        std::process::exit(3);
    }
    println!(
        "perfbench {} seed {} for {} s{} on {} cores, {}, pool of {}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { " (traced)" } else { "" },
        manifest.nproc,
        manifest.simd,
        manifest.pool_threads
    );
    out.print(args.trace);
    let manifest = stats::Manifest { serve_config: out.serve_config.clone(), ..manifest };
    println!("{}", manifest.to_json());
    println!("{}", out.result_json(args.trace));
    if !out.problems.is_empty() {
        std::process::exit(1);
    }
}
