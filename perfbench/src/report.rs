//! What one workload run produces, and how it is printed.

use crate::catalog;

/// One row of the layer table: where the workload's time goes.
pub struct Row {
    pub layer: &'static str,
    /// Seconds of wall time over the traced segment, or microseconds per
    /// request on the serving workloads (see [`Outcome::table_basis`]).
    pub value: f64,
    pub share: f64,
    pub source: &'static str,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; any makes the run exit non-zero.
    pub problems: Vec<String>,
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Vec<(&'static str, f64)>,
    pub table: Vec<Row>,
    pub table_basis: String,
    pub notes: Vec<String>,
    pub serve_config: Option<String>,
}

impl Outcome {
    pub fn set_e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(catalog::get().end_to_end.iter().any(|m| m.name == name), "{name}");
        self.e2e.retain(|(n, _)| *n != name);
        self.e2e.push((name, value));
    }

    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(catalog::get().per_layer.iter().any(|m| m.name == name), "{name}");
        self.layers.retain(|(n, _)| *n != name);
        self.layers.push((name, value));
    }

    /// Records how much lower the traced segment's `tokens_per_cpu_s` was
    /// than the untraced segment's (positive: tracing cost), and says so
    /// when that is beyond the metric's bound: the traced numbers then do
    /// not describe the same work.
    pub fn set_overhead(&mut self, untraced_tps: f64, traced_tps: f64) {
        let overhead = 1.0 - traced_tps / untraced_tps;
        self.set_layer("obs.trace_overhead_frac", overhead);
        self.notes.push(format!(
            "traced segment: {traced_tps:.0} tokens per CPU second against {untraced_tps:.0} untraced in the same run"
        ));
        let bound = catalog::get().metric("tokens_per_cpu_s").and_then(|m| m.bound);
        if bound.is_some_and(|b| overhead.abs() > b) {
            self.notes.push(format!(
                "the traced segment's tokens_per_cpu_s differs from the untraced one by {:.1}%, beyond its bound: per-layer figures of this run are not comparable",
                100.0 * overhead
            ));
        }
    }

    pub fn problem(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }

    /// Human-readable report on stdout.
    pub fn print(&self, trace: bool) {
        let c = catalog::get();
        println!("end-to-end{}:", if trace { " (untraced segment)" } else { "" });
        for spec in &c.end_to_end {
            if let Some(&(_, v)) = self.e2e.iter().find(|(n, _)| *n == spec.name) {
                println!(
                    "  {:<24} {:>14.4} {:<6} ({} is better)",
                    spec.name, v, spec.unit, spec.better
                );
            }
        }
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<24} {:>14.6} {:<6} ({} failed of {} attempted)",
            "fail_frac", fail_frac, "frac", self.failed, self.attempted
        );
        if !trace {
            println!("wall clock (no bound):");
            for (name, v) in self.layers.iter().filter(|(n, _)| n.starts_with("client.")) {
                let unit = c.metric(name).map_or("", |m| m.unit.as_str());
                println!("  {name:<24} {v:>14.4} {unit:<6}");
            }
        }
        if trace {
            println!("per-layer:");
            for spec in &c.per_layer {
                match self.layers.iter().find(|(n, _)| *n == spec.name) {
                    Some(&(_, v)) => println!("  {:<34} {:>14.4} {:<8}", spec.name, v, spec.unit),
                    None => {
                        println!("  {:<34} {:>14} {:<8} (not measured)", spec.name, "-", spec.unit)
                    }
                }
            }
            println!("layer table ({}):", self.table_basis);
            for r in &self.table {
                println!(
                    "  {:<30} {:>12.4} {:>7.1}%  {}",
                    r.layer,
                    r.value,
                    100.0 * r.share,
                    r.source
                );
            }
        }
        for n in &self.notes {
            println!("note: {n}");
        }
        for p in &self.problems {
            println!("FAILED CHECK: {p}");
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, trace: bool) -> String {
        let c = catalog::get();
        let specs = if trace { &c.per_layer } else { &c.end_to_end };
        let values = if trace { &self.layers } else { &self.e2e };
        let metrics: Vec<String> = specs
            .iter()
            .filter_map(|spec| {
                let &(_, v) = values.iter().find(|(n, _)| *n == spec.name)?;
                v.is_finite().then(|| {
                    format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        spec.name,
                        num(v),
                        spec.unit
                    )
                })
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Names of metrics the result line must carry but does not.
    pub fn missing(&self, trace: bool) -> Vec<&'static str> {
        let c = catalog::get();
        let specs = if trace { &c.per_layer } else { &c.end_to_end };
        let values = if trace { &self.layers } else { &self.e2e };
        specs
            .iter()
            .filter(|s| !values.iter().any(|(n, v)| *n == s.name && v.is_finite()))
            .map(|s| s.name.as_str())
            .collect()
    }
}

/// A number with all its digits (Rust's shortest round-trip form).
fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}
