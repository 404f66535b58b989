//! Deterministic parallel substrate for the workspace's hot paths.
//!
//! Design contract: **the result of every operation here is a pure function
//! of its inputs — never of the thread count or the scheduler.** Work is
//! split into chunks at deterministic boundaries, each chunk is computed
//! independently, and results are merged back in submission order. Callers
//! are responsible for the complementary half of the contract: chunk
//! computations must not communicate through shared mutable state.
//!
//! Thread count resolution, in priority order:
//!
//! 1. a scoped [`with_threads`] override (used by the serial-equivalence
//!    test suite to compare 1-thread and N-thread runs in one process),
//! 2. the `ITRUST_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! The pool is *scoped* ([`std::thread::scope`]): a call spawns
//! `threads − 1` helpers, works through chunks itself alongside them, and
//! joins them before return, so borrowed inputs work, no global worker
//! state can leak between operations, and panic-propagation is free.
//!
//! The price is the spawns: a call that splits costs ~30–55 µs of dispatch
//! on a 2-core x86_64 host, on the order of a whole PergaNet stage. So
//! parallelise over whole items — batch items, stored objects, shard
//! groups — never inside one item. A call with a single chunk runs inline
//! on the caller, spawns nothing and skips the thread-count lookup (without
//! `ITRUST_THREADS`, [`std::thread::available_parallelism`] re-reads the
//! cgroup quota on every call, ~20 µs on that host).

#![deny(unsafe_code)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The thread count parallel operations on this thread will use.
pub fn current_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|o| o.get()) {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("ITRUST_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run `f` with the thread count pinned to `n` on this thread (overrides
/// `ITRUST_THREADS`). Restores the previous value on exit, including on
/// panic. The override is thread-local: the caller's own share of a
/// parallel call sees it, but helper threads do not, so nested parallel
/// calls inside helpers see the environment default. Results are identical
/// either way, by the crate's contract — keep parallel regions non-nested
/// all the same.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|o| o.replace(Some(n))));
    f()
}

/// Map `f` over chunks of `items` of size `chunk_size` (the final chunk may
/// be shorter), in parallel, concatenating the per-chunk outputs **in
/// submission order** regardless of which worker finished first.
///
/// `f` receives the chunk's starting index into `items` plus the chunk
/// itself, and returns any number of output elements. Chunk boundaries are
/// fixed by `chunk_size` alone, so the output is identical for every thread
/// count — that is the substrate's determinism guarantee.
pub fn par_map_chunks<T: Sync, U: Send>(
    items: &[T],
    chunk_size: usize,
    f: impl Fn(usize, &[T]) -> Vec<U> + Sync,
) -> Vec<U> {
    assert!(chunk_size > 0, "chunk_size must be positive");
    // A single chunk runs inline whatever the thread count, so skip the
    // lookup.
    let threads = if items.len() > chunk_size { current_threads() } else { 1 };
    run_chunks(items, chunk_size, threads, f)
}

/// [`par_map_chunks`] on at most `threads` threads, for callers that have
/// already resolved the thread count.
fn run_chunks<T: Sync, U: Send>(
    items: &[T],
    chunk_size: usize,
    threads: usize,
    f: impl Fn(usize, &[T]) -> Vec<U> + Sync,
) -> Vec<U> {
    let n_chunks = items.len().div_ceil(chunk_size);
    let threads = threads.min(n_chunks);
    if threads <= 1 {
        let mut out = Vec::new();
        for (i, chunk) in items.chunks(chunk_size).enumerate() {
            out.extend(f(i * chunk_size, chunk));
        }
        return out;
    }
    // The caller and `threads − 1` helpers pull chunk indices from a shared
    // counter and deposit (index, output) pairs; the merge sorts by index,
    // so scheduling order can never reorder results. The scope joins every
    // helper before it returns or re-raises a panic, the caller's included.
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Vec<U>)>> = Mutex::new(Vec::with_capacity(n_chunks));
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n_chunks {
            break;
        }
        let start = i * chunk_size;
        let end = (start + chunk_size).min(items.len());
        // itrust-lint: allow(panic-reachable) — chunk bounds are derived from the slice length being split
        let out = f(start, &items[start..end]);
        // itrust-lint: allow(panic-reachable) — a poisoned results mutex means a worker already panicked; re-panicking just propagates it
        results.lock().unwrap().push((i, out));
    };
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(work);
        }
        work();
    });
    // itrust-lint: allow(panic-reachable) — a poisoned results mutex means a worker already panicked; re-panicking just propagates it
    let mut collected = results.into_inner().unwrap();
    collected.sort_unstable_by_key(|&(i, _)| i);
    let mut out = Vec::with_capacity(collected.iter().map(|(_, v)| v.len()).sum());
    for (_, v) in collected {
        out.extend(v);
    }
    out
}

/// Parallel element-wise map with results in input order. Chunking is
/// internal; because `f` is applied per element, chunk boundaries cannot
/// affect the output.
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    if items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let threads = current_threads();
    // ~4 chunks per thread keeps the tail balanced without oversplitting.
    let chunk = items.len().div_ceil(threads * 4).max(1);
    run_chunks(items, chunk, threads, |_, c| c.iter().map(&f).collect())
}

/// Parallel map over an index range `0..n`, results in index order.
/// Convenience for loops that index into several slices at once.
pub fn par_map_indices<U: Send>(n: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
    let indices: Vec<usize> = (0..n).collect();
    par_map(&indices, |&i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    #[test]
    fn map_preserves_order_at_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|v| v * 3).collect();
        for threads in [1, 2, 3, 4, 8] {
            let got = with_threads(threads, || par_map(&items, |v| v * 3));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn chunked_map_sees_correct_offsets_and_merges_in_order() {
        let items: Vec<u32> = (0..103).collect();
        for threads in [1, 4] {
            let got = with_threads(threads, || {
                par_map_chunks(&items, 10, |start, chunk| {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| {
                            assert_eq!(v as usize, start + i, "offset bookkeeping");
                            v
                        })
                        .collect()
                })
            });
            assert_eq!(got, items, "threads={threads}");
        }
    }

    #[test]
    fn chunk_outputs_may_differ_in_length() {
        // Each chunk emits a variable number of elements; order must hold.
        let items: Vec<usize> = (0..40).collect();
        let got = with_threads(4, || {
            par_map_chunks(&items, 7, |_, chunk| {
                chunk.iter().flat_map(|&v| std::iter::repeat_n(v, v % 3)).collect()
            })
        });
        let expect: Vec<usize> =
            items.iter().flat_map(|&v| std::iter::repeat_n(v, v % 3)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, |v| *v).is_empty());
        assert_eq!(par_map(&[9u8], |v| *v + 1), vec![10]);
        assert_eq!(par_map_indices(3, |i| i * i), vec![0, 1, 4]);
    }

    #[test]
    fn with_threads_restores_on_exit_and_panic() {
        let outer = current_threads();
        with_threads(3, || assert_eq!(current_threads(), 3));
        assert_eq!(current_threads(), outer);
        let caught = std::panic::catch_unwind(|| {
            with_threads(5, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(current_threads(), outer, "override must unwind");
    }

    #[test]
    fn nested_override_shadows_and_unshadows() {
        with_threads(4, || {
            assert_eq!(current_threads(), 4);
            with_threads(2, || assert_eq!(current_threads(), 2));
            assert_eq!(current_threads(), 4);
        });
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(&items, |&v| {
                    if v == 13 {
                        panic!("unlucky");
                    }
                    v
                })
            })
        });
        assert!(caught.is_err(), "a panicking chunk must fail the whole map");
    }

    #[test]
    fn caller_runs_one_of_two_chunks() {
        // Both chunks wait on a two-party barrier, so neither thread can
        // take the other's chunk: each runs on its own thread, and one of
        // those threads must be the caller.
        let caller = std::thread::current().id();
        let barrier = Barrier::new(2);
        let ran_on = with_threads(2, || {
            par_map_chunks(&[0u8, 1], 1, |_, _| {
                barrier.wait();
                vec![std::thread::current().id()]
            })
        });
        assert_eq!(ran_on.len(), 2);
        assert_ne!(ran_on[0], ran_on[1], "the barrier forces two threads");
        assert_eq!(ran_on.iter().filter(|&&id| id == caller).count(), 1);
    }

    #[test]
    fn caller_chunk_panic_propagates_after_helper_finishes() {
        // The caller's chunk panics once both chunks have started, and its
        // unwinding waits at a second barrier until the helper is there too;
        // only then does the helper record that it finished. The panic may
        // reach the caller only after the scope has joined the helper.
        struct WaitOnDrop<'a>(&'a Barrier);
        impl Drop for WaitOnDrop<'_> {
            fn drop(&mut self) {
                self.0.wait();
            }
        }
        let caller = std::thread::current().id();
        let (started, unwinding) = (Barrier::new(2), Barrier::new(2));
        let helper_done = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            with_threads(2, || {
                par_map_chunks(&[0u8, 1], 1, |_, chunk| {
                    if std::thread::current().id() == caller {
                        let _guard = WaitOnDrop(&unwinding);
                        started.wait();
                        panic!("caller chunk");
                    }
                    started.wait();
                    unwinding.wait();
                    helper_done.store(true, Ordering::SeqCst);
                    chunk.to_vec()
                })
            })
        }));
        let payload = caught.expect_err("the caller's panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller chunk"));
        assert!(helper_done.load(Ordering::SeqCst), "helper joined before the panic resumed");
    }

    #[test]
    fn heavy_uneven_work_still_merges_in_order() {
        // Uneven per-chunk latency exercises out-of-order completion.
        let items: Vec<u64> = (0..256).collect();
        let got = with_threads(4, || {
            par_map_chunks(&items, 16, |start, chunk| {
                if start % 64 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                chunk.to_vec()
            })
        });
        assert_eq!(got, items);
    }
}
