//! The traced pass's span sink and the self-time arithmetic over it.
//!
//! Spans are kept in memory while the workload runs and written out only
//! when the run ends, in the JSONL format `obstool profile` reads. A span's
//! self time is its duration minus the durations of its direct children on
//! the same thread. Spans opened inside itrust-par workers have no parent
//! on their thread (the span stack is thread-local), so they are counted as
//! orphans and kept out of the main thread's sums.

use itrust_obs::{SpanEvent, SpanSink};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// One completed span as the sink saw it.
#[derive(Debug)]
pub struct Span {
    pub name: String,
    pub path: String,
    pub depth: u32,
    pub end_ns: u64,
    pub duration_ns: u64,
    /// Closed on the thread that created the sink (the benchmark's only
    /// caller thread).
    pub main: bool,
}

/// In-memory span sink for the traced pass.
pub struct Collector {
    epoch: Instant,
    main: ThreadId,
    spans: Mutex<Vec<Span>>,
}

impl Collector {
    /// A collector whose main thread is the calling thread.
    pub fn new() -> Self {
        Collector {
            epoch: Instant::now(),
            main: std::thread::current().id(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Drain every span recorded so far, in completion order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("collector lock poisoned by a panicking span"),
        )
    }
}

impl SpanSink for Collector {
    fn record(&self, event: &SpanEvent) {
        let main = std::thread::current().id() == self.main;
        let mut spans = self
            .spans
            .lock()
            .expect("collector lock poisoned by a panicking span");
        // Stamped under the lock, so end times never decrease in file order.
        let now = self.epoch.elapsed().as_nanos() as u64;
        let end_ns = spans.last().map_or(now, |s: &Span| s.end_ns.max(now));
        spans.push(Span {
            name: event.name.clone(),
            path: event.path.clone(),
            depth: event.depth,
            end_ns,
            duration_ns: event.duration_ns,
            main,
        });
    }
}

/// Write spans as the JSONL trace `obstool profile` accepts.
pub fn write_jsonl(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        // Span names are ASCII identifiers with dots, so no JSON escaping
        // is needed.
        writeln!(
            out,
            "{{\"name\":\"{}\",\"path\":\"{}\",\"depth\":{},\"start_ns\":{},\"end_ns\":{},\"duration_ns\":{}}}",
            s.name,
            s.path,
            s.depth,
            s.end_ns.saturating_sub(s.duration_ns),
            s.end_ns,
            s.duration_ns
        )?;
    }
    out.flush()
}

/// Self-time breakdown of one measured phase: a root span on the main
/// thread and everything nested under it there.
#[derive(Debug, Default)]
pub struct Phase {
    pub name: String,
    pub wall_ns: u64,
    /// Self time per span name, the root excluded.
    pub self_ns: BTreeMap<String, u64>,
}

impl Phase {
    /// Share of the phase's wall time that its child spans account for:
    /// 1 minus the root's own self time over its duration.
    pub fn coverage(&self) -> f64 {
        self.self_ns.values().sum::<u64>() as f64 / self.wall_ns.max(1) as f64
    }
}

/// Everything the traced pass derives from its spans.
#[derive(Debug, Default)]
pub struct Report {
    pub phases: Vec<Phase>,
    /// Root spans closed on itrust-par worker threads, and their summed
    /// duration.
    pub orphans: usize,
    pub orphan_ns: u64,
}

/// Split main-thread spans into phases (one per root span) and compute
/// self times. Relies on spans of one thread completing innermost first.
pub fn analyze(spans: &[Span]) -> Report {
    let mut report = Report::default();
    // child_ns[d]: summed durations of completed spans at depth d whose
    // parent (at depth d-1) has not closed yet.
    let mut child_ns: Vec<u64> = Vec::new();
    let mut pending: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        if !s.main {
            if s.depth == 0 {
                report.orphans += 1;
                report.orphan_ns += s.duration_ns;
            }
            continue;
        }
        let d = s.depth as usize;
        if child_ns.len() < d + 2 {
            child_ns.resize(d + 2, 0);
        }
        let self_ns = s
            .duration_ns
            .saturating_sub(std::mem::take(&mut child_ns[d + 1]));
        if d == 0 {
            report.phases.push(Phase {
                name: s.name.clone(),
                wall_ns: s.duration_ns,
                self_ns: std::mem::take(&mut pending),
            });
        } else {
            child_ns[d] += s.duration_ns;
            *pending.entry(s.name.clone()).or_default() += self_ns;
        }
    }
    report
}

/// Durations in microseconds of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns as f64 / 1e3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use itrust_obs::ObsCtx;
    use std::sync::Arc;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_partition_each_phase() {
        let sink = Arc::new(Collector::new());
        let ctx = ObsCtx::with_sink(sink.clone());
        {
            let _phase = ctx.span("bench.test.phase");
            for _ in 0..3 {
                let _call = ctx.span("bench.test.call");
                spin(200_000);
                let _inner = ctx.span("lib.inner");
                spin(300_000);
            }
        }
        // Worker-thread spans are orphans, not part of the phase.
        std::thread::scope(|s| {
            s.spawn(|| drop(ctx.span("lib.worker")));
        });
        let spans = sink.take();
        assert_eq!(spans.len(), 8);
        assert!(spans.windows(2).all(|w| w[0].end_ns <= w[1].end_ns));
        let report = analyze(&spans);
        assert_eq!((report.orphans, report.phases.len()), (1, 1));
        let phase = &report.phases[0];
        assert_eq!(phase.name, "bench.test.phase");
        assert!(phase.self_ns["bench.test.call"] >= 3 * 200_000);
        assert!(phase.self_ns["lib.inner"] >= 3 * 300_000);
        let total: u64 = spans
            .iter()
            .filter(|s| s.depth == 1)
            .map(|s| s.duration_ns)
            .sum();
        assert_eq!(phase.self_ns.values().sum::<u64>(), total);
        assert!(
            phase.coverage() > 0.9 && phase.coverage() <= 1.0,
            "{}",
            phase.coverage()
        );
        assert_eq!(durations_us(&spans, "lib.inner").len(), 3);
    }
}
