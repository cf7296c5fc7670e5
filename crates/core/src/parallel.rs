//! A minimal scoped-thread parallel map.
//!
//! The container has no rayon; the embarrassingly parallel loops in this
//! workspace (per-node growth in [`crate::run_basic`], per-seed lifetime
//! trials in `cbtc-energy`, the service's streams in `cbtc-workloads`)
//! need nothing more than a chunked fan-out over `std::thread::scope`.
//! [`par_map`] packages it once, and every fan-out goes through it:
//! deterministic output order, graceful sequential fallback when the input
//! is small or the machine has a single core, and panic propagation from
//! worker threads.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cbtc_metrics::{Counter, Gauge, Histogram, MetricsRegistry};

/// Session-wide cap on worker threads; `0` means "no cap" (use every
/// detected core). Set by [`set_thread_cap`] — the hook the construction
/// benchmark's thread-scaling sweep uses.
static THREAD_CAP: AtomicUsize = AtomicUsize::new(0);

/// Caps the number of worker threads every subsequent [`par_map`] /
/// [`par_map_with`] may use (`None` removes the cap). Caps above the
/// detected core count are clamped to it — oversubscribing cores never
/// demonstrates real scaling.
pub fn set_thread_cap(cap: Option<usize>) {
    THREAD_CAP.store(cap.unwrap_or(0), Ordering::Relaxed);
}

/// The current cap, if any — see [`set_thread_cap`].
pub fn thread_cap() -> Option<usize> {
    match THREAD_CAP.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// Fast-path flag for [`install_metrics`]: an uninstrumented fan-out
/// pays one relaxed load, never the mutex.
static PAR_METRICS_ON: AtomicBool = AtomicBool::new(false);

/// The installed fan-out instruments (pre-resolved handles).
static PAR_METRICS: Mutex<Option<ParMetrics>> = Mutex::new(None);

#[derive(Clone)]
struct ParMetrics {
    /// Parallel fan-outs executed.
    fan_outs: Counter,
    /// Per-worker wall-clock busy time, one sample per worker per
    /// fan-out.
    busy: Histogram,
    /// Chunks each worker pulled from the shared cursor (its "steal
    /// count"), one sample per worker per fan-out.
    chunks: Histogram,
    /// Hardware cores visible to the fan-out.
    cores: Gauge,
    /// Workers the most recent fan-out planned.
    planned: Gauge,
}

/// Installs process-wide fan-out instruments: every subsequent parallel
/// [`par_map`] / [`par_map_with`] records its worker busy times and
/// chunk (steal) counts to `registry`, and publishes
/// `par.detected_cores` / `par.planned_threads` gauges. A disabled
/// registry uninstalls (same as [`uninstall_metrics`]). The hooks only
/// time workers — results are unchanged, so instrumented runs stay
/// bit-identical.
pub fn install_metrics(registry: &MetricsRegistry) {
    if !registry.is_enabled() {
        uninstall_metrics();
        return;
    }
    let instruments = ParMetrics {
        fan_outs: registry.counter("par.fan_outs"),
        busy: registry.histogram("par.worker_busy_nanos"),
        chunks: registry.histogram("par.worker_chunks"),
        cores: registry.gauge("par.detected_cores"),
        planned: registry.gauge("par.planned_threads"),
    };
    *PAR_METRICS.lock().expect("par metrics poisoned") = Some(instruments);
    PAR_METRICS_ON.store(true, Ordering::Release);
}

/// Removes the instruments installed by [`install_metrics`].
pub fn uninstall_metrics() {
    PAR_METRICS_ON.store(false, Ordering::Release);
    *PAR_METRICS.lock().expect("par metrics poisoned") = None;
}

fn par_metrics() -> Option<ParMetrics> {
    if PAR_METRICS_ON.load(Ordering::Acquire) {
        PAR_METRICS.lock().expect("par metrics poisoned").clone()
    } else {
        None
    }
}

/// The number of hardware cores the fan-out can see.
pub fn detected_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker-thread budget after applying the [`set_thread_cap`] cap:
/// `min(detected cores, cap)`.
pub fn effective_parallelism() -> usize {
    let cores = detected_cores();
    match thread_cap() {
        Some(cap) => cores.min(cap).max(1),
        None => cores,
    }
}

/// How many worker threads a [`par_map`] over `len` items with this
/// `min_chunk` would use right now — the number the benchmarks record.
/// (A call made from inside another fan-out runs inline regardless.)
pub fn planned_threads(len: usize, min_chunk: usize) -> usize {
    effective_parallelism().min(len / min_chunk.max(1)).max(1)
}

std::thread_local! {
    /// Whether this thread is already inside a parallel fan-out; nested
    /// [`par_map`] calls run inline instead of oversubscribing the CPU.
    static IN_FAN_OUT: Cell<bool> = const { Cell::new(false) };
}

/// Restores the thread's fan-out flag on drop (panic-safe).
struct FanOutGuard(bool);

impl FanOutGuard {
    fn enter() -> Self {
        FanOutGuard(IN_FAN_OUT.replace(true))
    }
}

impl Drop for FanOutGuard {
    fn drop(&mut self) {
        IN_FAN_OUT.set(self.0);
    }
}

/// Runs `f` with any [`par_map`] it calls on this thread forced inline.
///
/// Every [`par_map`] worker runs its items under it, so nested parallel
/// maps never multiply threads beyond the core count; tests use it to
/// get the single-threaded run they compare a fanned-out one against.
pub fn without_nested_fan_out<T>(f: impl FnOnce() -> T) -> T {
    let _guard = FanOutGuard::enter();
    f()
}

/// Maps `f` over `items`, splitting the work across OS threads when it is
/// large enough to amortize thread spawns, and returns the results in
/// input order.
///
/// `min_chunk` is the smallest slice worth giving a thread: the fan-out
/// uses `min(available cores, items.len() / min_chunk)` workers, so inputs
/// shorter than `2 × min_chunk` (and all inputs on a single-core host) run
/// inline on the caller's thread. Calls made from inside another fan-out
/// (a `par_map` worker, or a [`without_nested_fan_out`] scope) also run
/// inline — the outer fan-out already owns the cores. Results are
/// deterministic either way — output `i` is `f(&items[i])`.
///
/// # Panics
///
/// Propagates panics from `f` (the panic payload of the first failing
/// worker).
///
/// # Example
///
/// ```
/// use cbtc_core::parallel::par_map;
///
/// let squares = par_map(&[1u64, 2, 3, 4], 1, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, U, F>(items: &[T], min_chunk: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with(items, min_chunk, || (), move |(), t| f(t))
}

/// How many work chunks each worker thread should see on average: more
/// chunks than workers lets the atomic-cursor stealing loop absorb skew
/// in per-item cost (boundary nodes scan many more grid rings than
/// interior ones), at the price of one `fetch_add` per chunk.
const CHUNKS_PER_THREAD: usize = 8;

/// [`par_map`] with per-worker scratch state: `init` runs once on each
/// worker thread (and once for an inline run), and `f` receives that
/// worker's `&mut` state alongside each item.
///
/// This is the allocation-amortizing form the construction hot loop
/// uses — a [`crate::GrowScratch`] per worker instead of fresh buffers
/// per node. Chunking is adaptive: the input is carved into roughly
/// `CHUNKS_PER_THREAD` × threads chunks (never smaller than
/// `min_chunk`) which workers pull from a shared atomic cursor, so a
/// worker that lands on cheap items simply pulls more chunks. Output
/// order is deterministic regardless of which worker computes what —
/// output `i` is `f(state, &items[i])` — but *which* worker's state an
/// item sees is not; `f` must not smuggle cross-item information through
/// the state beyond reusable buffers.
///
/// # Panics
///
/// Propagates panics from `f` (the panic payload of the first failing
/// worker).
pub fn par_map_with<T, U, S, I, F>(items: &[T], min_chunk: usize, init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    let threads = planned_threads(items.len(), min_chunk);
    if threads <= 1 || IN_FAN_OUT.get() {
        let mut state = init();
        return items.iter().map(|t| f(&mut state, t)).collect();
    }
    let chunk_size = (items.len() / (threads * CHUNKS_PER_THREAD)).max(min_chunk.max(1));
    let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
    let cursor = AtomicUsize::new(0);
    let metrics = par_metrics();
    if let Some(m) = &metrics {
        m.fan_outs.inc();
        m.cores.set(detected_cores() as f64);
        m.planned.set(threads as f64);
    }
    let mut parts: Vec<(usize, Vec<U>)> = Vec::with_capacity(chunks.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (f, init, chunks, cursor, metrics) = (&f, &init, &chunks, &cursor, &metrics);
                scope.spawn(move || {
                    without_nested_fan_out(|| {
                        let start = metrics.as_ref().map(|_| Instant::now());
                        let mut state = init();
                        let mut pulled = 0u64;
                        let mut done: Vec<(usize, Vec<U>)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(chunk) = chunks.get(i) else { break };
                            pulled += 1;
                            done.push((i, chunk.iter().map(|t| f(&mut state, t)).collect()));
                        }
                        if let (Some(start), Some(m)) = (start, metrics) {
                            let nanos = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                            m.busy.record(nanos);
                            m.chunks.record(pulled);
                        }
                        done
                    })
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => parts.extend(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    parts.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(parts.len(), chunks.len(), "every chunk claimed once");
    parts.into_iter().flat_map(|(_, part)| part).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Serializes the tests here that fan out: the installed metrics are
    /// process-wide, so a concurrent test's workers would record into the
    /// registry another test is asserting on.
    fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn preserves_order_and_covers_all_items() {
        let _serial = exclusive();
        let items: Vec<u32> = (0..1000).collect();
        let out = par_map(&items, 16, |&x| x + 1);
        assert_eq!(out, (1..=1000).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_and_tiny_inputs_run_inline() {
        assert!(par_map::<u32, u32, _>(&[], 8, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], 8, |&x| x * 2), vec![14]);
    }

    #[test]
    fn zero_min_chunk_is_tolerated() {
        let out = par_map(&[1u32, 2, 3], 0, |&x| x);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn matches_sequential_map() {
        let _serial = exclusive();
        let items: Vec<u64> = (0..257).map(|i| i * 31).collect();
        let parallel = par_map(&items, 4, |&x| x.wrapping_mul(x) ^ 0xabcd);
        let sequential: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xabcd).collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn nested_calls_run_inline_and_stay_correct() {
        let _serial = exclusive();
        let outer: Vec<u32> = (0..512).collect();
        let expected: Vec<u32> = outer.iter().map(|&x| x * 3).collect();
        // par_map inside par_map, and inside an explicit no-fan-out
        // scope: results must match the flat map either way.
        let nested = par_map(&outer, 1, |&x| {
            let inner = par_map(&[x; 4], 1, |&y| y);
            inner[0] * 3
        });
        assert_eq!(nested, expected);
        let scoped = without_nested_fan_out(|| par_map(&outer, 1, |&x| x * 3));
        assert_eq!(scoped, expected);
    }

    #[test]
    fn par_map_with_reuses_worker_state() {
        let _serial = exclusive();
        // The per-worker buffer must not leak data between items: each
        // item clears and refills it, so results are order-exact.
        let items: Vec<u32> = (0..500).collect();
        let out = par_map_with(&items, 8, Vec::<u32>::new, |buf, &x| {
            buf.clear();
            buf.extend(0..=x % 7);
            buf.iter().sum::<u32>() + x
        });
        let expected: Vec<u32> = items
            .iter()
            .map(|&x| (0..=x % 7).sum::<u32>() + x)
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn thread_cap_clamps_planned_threads() {
        let _serial = exclusive();
        assert!(detected_cores() >= 1);
        assert_eq!(planned_threads(0, 8), 1);
        assert_eq!(planned_threads(10_000, usize::MAX), 1);
        set_thread_cap(Some(1));
        assert_eq!(thread_cap(), Some(1));
        assert_eq!(effective_parallelism(), 1);
        assert_eq!(planned_threads(10_000, 1), 1);
        // Capped to one thread, the map still runs (inline) and is exact.
        let out = par_map(&[1u32, 2, 3], 1, |&x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
        set_thread_cap(None);
        assert_eq!(thread_cap(), None);
        assert_eq!(effective_parallelism(), detected_cores());
        // A cap above the core count clamps down to it.
        set_thread_cap(Some(usize::MAX));
        assert_eq!(effective_parallelism(), detected_cores());
        set_thread_cap(None);
    }

    #[test]
    fn installed_metrics_observe_fan_outs_without_changing_results() {
        let _serial = exclusive();
        let registry = MetricsRegistry::enabled();
        install_metrics(&registry);
        let items: Vec<u32> = (0..4096).collect();
        let out = par_map(&items, 1, |&x| x ^ 0x55);
        uninstall_metrics();
        let expected: Vec<u32> = items.iter().map(|&x| x ^ 0x55).collect();
        assert_eq!(out, expected, "instrumentation never perturbs results");
        let snap = registry.snapshot();
        // Single-core hosts (or a concurrent test holding the thread
        // cap) run inline and record nothing — only assert the details
        // when a parallel fan-out actually happened.
        if snap.counter("par.fan_outs").unwrap_or(0) >= 1 {
            let busy = snap.histogram("par.worker_busy_nanos").unwrap();
            assert!(busy.count >= 2, "one busy sample per worker");
            let chunks = snap.histogram("par.worker_chunks").unwrap();
            assert_eq!(chunks.count, busy.count);
            assert!(snap.gauge("par.detected_cores").unwrap() >= 1.0);
            assert!(snap.gauge("par.planned_threads").unwrap() >= 2.0);
        }
        // After uninstall, nothing further is recorded.
        let before = registry.snapshot().counter("par.fan_outs");
        let _ = par_map(&items, 1, |&x| x);
        assert_eq!(registry.snapshot().counter("par.fan_outs"), before);
        // A disabled registry is an uninstall, not an error.
        install_metrics(&MetricsRegistry::disabled());
        let _ = par_map(&items, 1, |&x| x);
        assert_eq!(registry.snapshot().counter("par.fan_outs"), before);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        let _serial = exclusive();
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map(&items, 1, |&x| {
            if x == 63 {
                panic!("worker boom");
            }
            x
        });
    }
}
