//! Structured spans: RAII scope timers recording into a context's
//! histograms, with per-(thread, context) span stacks and an optional
//! per-context event sink.

use crate::ctx::CtxInner;
use crate::registry::Histogram;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

thread_local! {
    // One stack per context active on this thread, keyed by context id.
    // Entries are removed when their stack empties, so short-lived contexts
    // don't accumulate. Linear scan is fine: a thread rarely interleaves
    // more than a couple of contexts.
    static SPAN_STACKS: RefCell<Vec<(u64, Vec<&'static str>)>> = const { RefCell::new(Vec::new()) };
}

fn with_stack<T>(ctx_id: u64, f: impl FnOnce(&mut Vec<&'static str>) -> T) -> T {
    SPAN_STACKS.with(|stacks| {
        let mut stacks = stacks.borrow_mut();
        // Take this context's stack out (or start an empty one); put it
        // back only while it holds spans.
        let mut stack = match stacks.iter().position(|(id, _)| *id == ctx_id) {
            Some(i) => stacks.swap_remove(i).1,
            None => Vec::new(),
        };
        let out = f(&mut stack);
        if !stack.is_empty() {
            stacks.push((ctx_id, stack));
        }
        out
    })
}

/// The span path (slash-joined) of context `ctx_id` on the current thread.
pub(crate) fn current_span_path(ctx_id: u64) -> String {
    with_stack(ctx_id, |stack| stack.join("/"))
}

/// One completed span, as delivered to a [`SpanSink`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Span (and histogram) name, e.g. `trustdb.wal.append`.
    pub name: String,
    /// Slash-joined path of enclosing spans in the same context on this
    /// thread, ending with this span: `bench.d5/trustdb.store.put`.
    pub path: String,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Nesting depth (0 = root span of its context on its thread).
    pub depth: u32,
}

/// Receives completed spans from every context it is attached to (via
/// [`crate::ObsCtx::with_sink`]).
pub trait SpanSink: Send + Sync {
    fn record(&self, event: &SpanEvent);
}

/// A sink that buffers events in memory; drain with
/// [`CollectingSink::take`]. Useful in tests and for bundling a span trace
/// into an experiment artifact.
#[derive(Default)]
pub struct CollectingSink {
    events: Mutex<Vec<SpanEvent>>,
}

impl CollectingSink {
    pub fn take(&self) -> Vec<SpanEvent> {
        // itrust-lint: allow(panic-reachable) — a poisoned sink means a holder already panicked; re-panicking just propagates it
        std::mem::take(&mut self.events.lock().expect("collecting sink poisoned"))
    }
}

impl SpanSink for CollectingSink {
    fn record(&self, event: &SpanEvent) {
        // itrust-lint: allow(panic-reachable) — a poisoned sink means a holder already panicked; re-panicking just propagates it
        self.events.lock().expect("collecting sink poisoned").push(event.clone());
    }
}

struct ActiveSpan {
    name: &'static str,
    histogram: Arc<Histogram>,
    ctx: Arc<CtxInner>,
    start: Instant,
}

/// RAII span from [`crate::ObsCtx::span`]: times from construction to drop,
/// records the elapsed nanoseconds into the context's histogram of the same
/// name, and (if the context carries a sink) emits a [`SpanEvent`]. The
/// guard from a null context does nothing at all.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    pub(crate) fn noop() -> Self {
        SpanGuard { active: None }
    }

    pub(crate) fn enter(ctx: &Arc<CtxInner>, name: &'static str) -> Self {
        let histogram = ctx.registry.histogram(name);
        with_stack(ctx.id, |stack| stack.push(name));
        SpanGuard {
            active: Some(ActiveSpan { name, histogram, ctx: ctx.clone(), start: Instant::now() }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else { return };
        let elapsed = span.start.elapsed();
        span.histogram.record_duration(elapsed);
        if let Some(flight) = &span.ctx.flight {
            let ns = elapsed.as_nanos().min(i64::MAX as u128) as i64;
            flight.record(crate::flight::FlightKind::Span, span.name, ns);
        }
        let (depth, parent_path) = with_stack(span.ctx.id, |stack| {
            // Pop our own entry. Guards are scope-bound so LIFO order holds;
            // defend anyway against a mem::forget-ed sibling.
            if let Some(pos) = stack.iter().rposition(|&n| std::ptr::eq(n, span.name)) {
                stack.truncate(pos);
            }
            (stack.len() as u32, if span.ctx.sink.is_some() { stack.join("/") } else { String::new() })
        });
        if let Some(sink) = &span.ctx.sink {
            let mut path = parent_path;
            if !path.is_empty() {
                path.push('/');
            }
            path.push_str(span.name);
            sink.record(&SpanEvent {
                name: span.name.to_string(),
                path,
                duration_ns: elapsed.as_nanos().min(u64::MAX as u128) as u64,
                depth,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsCtx;

    #[test]
    fn spans_record_into_histograms_and_nest() {
        let sink = Arc::new(CollectingSink::default());
        let ctx = ObsCtx::with_sink(sink.clone());
        {
            let _outer = ctx.span("test.span.outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _inner = ctx.span("test.span.inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
                assert_eq!(ctx.span_path(), "test.span.outer/test.span.inner");
            }
        }

        let events = sink.take();
        assert_eq!(events.len(), 2);
        // Inner drops first.
        assert_eq!(events[0].name, "test.span.inner");
        assert_eq!(events[0].path, "test.span.outer/test.span.inner");
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[1].name, "test.span.outer");
        assert_eq!(events[1].depth, 0);
        assert!(events.iter().all(|e| e.duration_ns >= 1_000_000));

        let h = ctx.histogram("test.span.inner");
        assert_eq!(h.count(), 1);
        assert!(h.p50() >= 1_000_000);
        assert!(ctx.span_path().is_empty());
    }

    #[test]
    fn interleaved_contexts_keep_separate_stacks() {
        let a = ObsCtx::new();
        let b = ObsCtx::new();
        let _sa = a.span("test.span.a_outer");
        let _sb = b.span("test.span.b_outer");
        let _sa2 = a.span("test.span.a_inner");
        assert_eq!(a.span_path(), "test.span.a_outer/test.span.a_inner");
        assert_eq!(b.span_path(), "test.span.b_outer");
    }
}
