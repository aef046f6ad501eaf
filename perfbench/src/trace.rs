//! In-memory spans recorded around the public calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it. Spans
//! stay in memory while the workload runs and are written out when it
//! ends. A span's self time is its duration minus the part of that
//! interval its children cover. Spans recorded on worker threads hang
//! under a *parallel* parent; their self times are scaled so that the
//! parent's covered wall time is split among them in proportion to their
//! busy time. With that, the wall-equivalent self times of all spans sum
//! to the wall time of the root spans, and a layer's share is its part of
//! that wall time.

use std::io::Write;
use std::time::Instant;

pub const NONE: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
    /// Children run concurrently on worker threads.
    pub parallel: bool,
}

/// One thread's span buffer. Worker threads record into their own
/// [`Tracer`] (sharing the origin) and the driving thread
/// [`Tracer::adopt`]s them.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// A buffer for another thread, on the same clock.
    pub fn fork(&self) -> Tracer {
        Tracer { origin: self.origin, spans: Vec::new(), open: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start = self.ns(Instant::now());
        self.spans.push(Span { name, parent, start, end: start, parallel: false });
        let id = (self.spans.len() - 1) as u32;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit matches an enter") as usize;
        self.spans[id].end = self.ns(Instant::now());
    }

    /// Marks the innermost open span as the parent of worker spans.
    pub fn mark_parallel(&mut self) {
        let id = *self.open.last().expect("an open span") as usize;
        self.spans[id].parallel = true;
    }

    /// Times `f` as a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.enter(name);
        let r = f(self);
        self.exit();
        r
    }

    /// Records `stages` back to back from `start` as children of the span
    /// `parent` — how a call that reports its own stage split is laid out.
    pub fn record_stages(&mut self, parent: u32, start: Instant, stages: &[(&'static str, f64)]) {
        let mut at = self.ns(start);
        for &(name, us) in stages {
            let end = at + (us * 1e3) as u64;
            self.spans.push(Span { name, parent, start: at, end, parallel: false });
            at = end;
        }
    }

    /// Takes over a worker's spans, re-rooting its roots under the
    /// innermost open span.
    pub fn adopt(&mut self, worker: Tracer) {
        let base = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.spans.extend(worker.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NONE { parent } else { s.parent + base };
            s
        }));
    }

    /// Self seconds per span name, in first-seen order: wall-equivalent,
    /// busy (unscaled), and the span count.
    pub fn self_times(&self) -> Vec<(&'static str, f64, f64, u64)> {
        let n = self.spans.len();
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != NONE {
                children[s.parent as usize].push(i as u32);
            }
        }
        let own: Vec<f64> = (0..n)
            .map(|i| {
                let s = &self.spans[i];
                let mut iv: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| {
                        let c = &self.spans[c as usize];
                        (c.start.max(s.start), c.end.min(s.end))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut cur: Option<(u64, u64)> = None;
                for (a, b) in iv {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        _ => {
                            if let Some((ca, cb)) = cur {
                                covered += cb - ca;
                            }
                            cur = Some((a, b));
                        }
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                (s.end - s.start).saturating_sub(covered) as f64 / 1e9
            })
            .collect();
        // Scale factors: 1 on the driving thread; under a parallel span,
        // its covered time over the busy time of everything below it.
        let mut scale = vec![1.0f64; n];
        for i in 0..n {
            if !self.spans[i].parallel {
                continue;
            }
            let mut below = Vec::new();
            let mut stack = children[i].clone();
            while let Some(c) = stack.pop() {
                below.push(c as usize);
                stack.extend(&children[c as usize]);
            }
            let busy: f64 = below.iter().map(|&c| own[c]).sum();
            let covered = (self.spans[i].end - self.spans[i].start) as f64 / 1e9 - own[i];
            let f = if busy > 0.0 { covered / busy } else { 0.0 };
            for c in below {
                scale[c] = scale[i] * f;
            }
        }
        let mut out: Vec<(&'static str, f64, f64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let w = own[i] * scale[i];
            match out.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += w;
                    e.2 += own[i];
                    e.3 += 1;
                }
                None => out.push((s.name, w, own[i], 1)),
            }
        }
        out
    }

    /// Writes the spans as JSON lines (name, parent, start and end in ns),
    /// at most `cap` of them, and returns how many were written.
    pub fn write(&self, path: &std::path::Path, cap: usize) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let n = self.spans.len().min(cap);
        for (i, s) in self.spans[..n].iter().enumerate() {
            let parent = if s.parent == NONE { -1 } else { s.parent as i64 };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start, s.end
            )?;
        }
        w.flush()?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start: u64, end: u64, parallel: bool) -> Span {
        Span { name, parent, start, end, parallel }
    }

    #[test]
    fn self_times_sum_to_root_wall_with_parallel_children() {
        let mut t = Tracer::new();
        // root 0..100; a leaf 0..20; a parallel section 20..90 with two
        // overlapping worker spans (busy 60 + 40) and 10 ns uncovered.
        t.spans = vec![
            span("root", NONE, 0, 100, false),
            span("leaf", 0, 0, 20, false),
            span("par", 0, 20, 90, true),
            span("w", 2, 20, 80, false),
            span("w", 2, 30, 70, false),
        ];
        let st = t.self_times();
        let get = |n: &str| st.iter().find(|e| e.0 == n).unwrap().1 * 1e9;
        assert!((get("root") - 10.0).abs() < 1e-6);
        assert!((get("leaf") - 20.0).abs() < 1e-6);
        assert!((get("par") - 10.0).abs() < 1e-6);
        assert!((get("w") - 60.0).abs() < 1e-6);
        let total: f64 = st.iter().map(|e| e.1).sum::<f64>() * 1e9;
        assert!((total - 100.0).abs() < 1e-6);
    }
}
