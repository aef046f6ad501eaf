//! `compare OLD NEW`: two result sets side by side, one row per workload
//! and metric, with a verdict by the pairs rule.
//!
//! A result set is a directory holding `<workload>.jsonl`, one result line
//! per run (the last line the benchmark prints; other lines are ignored).
//! Line `i` of OLD and line `i` of NEW form a pair, so run them with the
//! same seeds in the same order and alternate which side runs first:
//!
//! ```text
//! for s in 1 2 3 4 5 6 7 8 9 10; do
//!   cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-open --seed $s --seconds 12 --trace 0 | tail -n 1 >> OLD/serve-open.jsonl
//! done
//! ```
//!
//! Verdicts, per metric and workload, in this order:
//! * `gain`: NEW is better in at least 9 of every 10 pairs (ties count for
//!   neither) and the medians differ by more than OLD's own spread (the
//!   distance between its quartiles);
//! * `regression`: NEW's median is worse than OLD's by more than the
//!   metric's bound (the bounds `BENCHMARK.json` lists), whatever the
//!   spread;
//! * `unresolved`: the spread of either side is wider than the bound, and
//!   not every NEW run is better than every OLD run;
//! * `worse` (per-layer metrics, which have no bound): NEW's median is
//!   worse by more than OLD's spread;
//! * `same`: none of these.

use crate::catalog;
use crate::stats;
use serde_json::Value;
use std::path::Path;

struct Side {
    values: Vec<f64>,
    median: f64,
    q1: f64,
    q3: f64,
}

impl Side {
    fn new(values: Vec<f64>) -> Side {
        let (q1, q3) = stats::quartiles(&values).unwrap_or((f64::NAN, f64::NAN));
        Side { median: stats::median(&values), q1, q3, values }
    }

    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

fn results(dir: &Path, workload: &str) -> Vec<Value> {
    let Ok(text) = std::fs::read_to_string(dir.join(format!("{workload}.jsonl"))) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|l| serde_json::from_str::<Value>(l.trim()).ok())
        .filter(|v| v.get("metrics").is_some())
        .collect()
}

fn metric(v: &Value, name: &str) -> Option<f64> {
    v.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// The verdict for one metric, with the pairs NEW won and the pairs run;
/// `higher` says which direction is better.
fn verdict(
    old: &Side,
    new: &Side,
    higher: bool,
    bound: Option<f64>,
) -> (&'static str, usize, usize) {
    let better = |a: f64, b: f64| if higher { a > b } else { a < b };
    let pairs = old.values.len().min(new.values.len());
    let wins = old.values.iter().zip(&new.values).filter(|(o, n)| better(**n, **o)).count();
    let all_better = new.values.iter().all(|&n| old.values.iter().all(|&o| better(n, o)));
    let moved = (new.median - old.median).abs() > old.q3 - old.q1;
    let worse_by = if better(old.median, new.median) {
        (new.median - old.median).abs() / old.median.abs()
    } else {
        0.0
    };
    let v = match bound {
        _ if pairs > 0 && wins * 10 >= pairs * 9 && moved && better(new.median, old.median) => {
            "gain"
        }
        Some(b) if worse_by > b => "regression",
        Some(b) if (old.spread() > b || new.spread() > b) && !all_better => "unresolved",
        None if moved && better(old.median, new.median) => "worse",
        _ => "same",
    };
    (v, wins, pairs)
}

/// Prints the comparison; returns whether any end-to-end metric regressed.
pub fn run(old: &Path, new: &Path) -> Result<bool, String> {
    let mut regressed = false;
    let mut any = false;
    println!(
        "{:<15} {:<34} {:>12} {:>23} {:>12} {:>23} {:>7}  verdict",
        "workload", "metric", "old median", "old [q1, q3]", "new median", "new [q1, q3]", "won"
    );
    let c = catalog::get();
    for w in &c.workloads {
        let (a, b) = (results(old, &w.name), results(new, &w.name));
        if a.is_empty() || b.is_empty() {
            continue;
        }
        any = true;
        for spec in c.end_to_end.iter().chain(&c.per_layer) {
            let va: Vec<f64> = a.iter().filter_map(|r| metric(r, &spec.name)).collect();
            let vb: Vec<f64> = b.iter().filter_map(|r| metric(r, &spec.name)).collect();
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (so, sn) = (Side::new(va), Side::new(vb));
            let (v, wins, pairs) = verdict(&so, &sn, spec.higher_is_better(), spec.bound);
            regressed |= v == "regression";
            println!(
                "{:<15} {:<34} {:>12.4} [{:>10.4}, {:>10.4}] {:>12.4} [{:>10.4}, {:>10.4}] {:>3}/{:<3}  {}",
                w.name, spec.name, so.median, so.q1, so.q3, sn.median, sn.q1, sn.q3, wins, pairs, v
            );
        }
    }
    if !any {
        return Err(format!(
            "no workload has results in both {} and {} (expected <workload>.jsonl files)",
            old.display(),
            new.display()
        ));
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_rule_verdicts() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let old = Side::new(base.clone());
        let faster = Side::new(base.iter().map(|v| v * 1.3).collect());
        assert_eq!(verdict(&old, &faster, true, Some(0.1)), ("gain", 10, 10));
        let slower = Side::new(base.iter().map(|v| v * 0.7).collect());
        assert_eq!(verdict(&old, &slower, true, Some(0.1)).0, "regression");
        assert_eq!(verdict(&old, &slower, false, Some(0.1)).0, "gain");
        assert_eq!(verdict(&old, &Side::new(base.clone()), true, Some(0.1)).0, "same");
        assert_eq!(verdict(&old, &slower, true, None).0, "worse");
        let noisy = Side::new((0..10).map(|i| if i % 2 == 0 { 60.0 } else { 150.0 }).collect());
        assert_eq!(verdict(&old, &noisy, true, Some(0.1)).0, "unresolved");
        // A median beyond the bound is a regression even when either side
        // is too noisy to resolve a smaller move.
        let noisy_slower =
            Side::new((0..10).map(|i| if i % 2 == 0 { 30.0 } else { 80.0 }).collect());
        assert_eq!(verdict(&old, &noisy_slower, true, Some(0.1)).0, "regression");
        assert_eq!(verdict(&noisy, &slower, true, Some(0.1)).0, "regression");
    }
}
