//! Order statistics, histogram deltas, memory and host facts.

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (`q` in `[0, 1]`); `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so spreads
/// printed here match the ones the acceptance check computes. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    if v.len() < 2 {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// CPU seconds this process has run so far, over all its threads
/// (`CLOCK_PROCESS_CPUTIME_ID`). Compute-bound figures are taken on this
/// clock rather than the wall clock: on a virtual machine the hypervisor's
/// steal time stretches wall time by whatever the neighbours load, while
/// the kernel leaves stolen time out of a process's CPU time.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Wall and CPU seconds of one piece of work.
#[derive(Clone, Copy, Debug)]
pub struct Took {
    pub wall: f64,
    pub cpu: f64,
}

/// Both clocks, read together at the start of some work.
pub struct Clock {
    wall: std::time::Instant,
    cpu: f64,
}

impl Clock {
    pub fn start() -> Clock {
        Clock { wall: std::time::Instant::now(), cpu: cpu_seconds() }
    }

    pub fn took(&self) -> Took {
        Took { wall: self.wall.elapsed().as_secs_f64(), cpu: cpu_seconds() - self.cpu }
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A bucket-level snapshot of one `ner-obs` histogram: cumulative counts
/// per upper bound, plus the total count and sum.
#[derive(Clone, Debug, Default)]
pub struct Hist {
    pub buckets: Vec<(f64, u64)>,
    pub count: u64,
    pub sum: f64,
}

impl Hist {
    /// The named histogram as it stands now (empty if never observed).
    pub fn read(name: &str) -> Hist {
        ner_obs::histogram_snapshots()
            .into_iter()
            .find(|h| h.name == name)
            .map_or_else(Hist::default, |h| Hist { buckets: h.buckets, count: h.count, sum: h.sum })
    }

    /// What was observed between `earlier` and `self`.
    pub fn since(&self, earlier: &Hist) -> Hist {
        let before =
            |le: f64| earlier.buckets.iter().find(|(b, _)| *b == le).map_or(0, |&(_, c)| c);
        Hist {
            buckets: self.buckets.iter().map(|&(le, c)| (le, c - before(le))).collect(),
            count: self.count - earlier.count,
            sum: self.sum - earlier.sum,
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile, interpolated linearly inside the bucket that holds
    /// the target rank. The server's histograms have ×2 buckets, so this is
    /// an estimate at that resolution.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut prev = (0.0, 0u64);
        for &(le, cum) in &self.buckets {
            if cum as f64 >= rank {
                let in_bucket = (cum - prev.1) as f64;
                let frac = (rank - prev.1 as f64) / in_bucket.max(1.0);
                return prev.0 + (le - prev.0) * frac;
            }
            prev = (le, cum);
        }
        // Beyond the last finite bound: report that bound.
        prev.0
    }
}

/// The host and run facts stamped on every result.
pub struct Manifest {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub nproc: usize,
    pub simd: String,
    pub pool_threads: usize,
    pub serve_config: Option<String>,
}

impl Manifest {
    pub fn to_json(&self) -> String {
        let serve = match &self.serve_config {
            Some(c) => json_str(c),
            None => "null".into(),
        };
        format!(
            "{{\"manifest\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"simd\": {}, \"pool_threads\": {}, \"serve_config\": {}}}}}",
            json_str(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            self.nproc,
            json_str(&self.simd),
            self.pool_threads,
            serve
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    serde_json::to_string(&serde_json::Value::Str(s.to_string())).expect("string serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = cpu_seconds();
        let mut spins = 0u64;
        while cpu_seconds() - t0 < 0.01 {
            spins = std::hint::black_box(spins + 1);
        }
        assert!(spins > 0 && cpu_seconds() >= t0 + 0.01);
    }

    #[test]
    fn histogram_delta_quantiles_stay_in_bucket() {
        let h0 = Hist { buckets: vec![(1.0, 0), (2.0, 5), (4.0, 5)], count: 5, sum: 8.0 };
        let h1 = Hist { buckets: vec![(1.0, 0), (2.0, 5), (4.0, 15)], count: 15, sum: 38.0 };
        let d = h1.since(&h0);
        assert_eq!(d.count, 10);
        assert_eq!(d.mean(), 3.0);
        let p50 = d.quantile(0.5);
        assert!((2.0..=4.0).contains(&p50), "{p50}");
    }
}
