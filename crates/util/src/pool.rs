//! A persistent worker-pool engine for the workspace's parallel regions.
//!
//! The hot parallel regions of the DSE pipeline — CG mat-vecs, multigrid
//! smoother sweeps, reduction partials — last tens of microseconds at
//! production grid sizes. Spawning `std::thread::scope` threads per region
//! (the previous design) costs more than that, which is why the thermal
//! kernels used to stay serial below 64k nodes. This module keeps one set
//! of warm threads per process instead:
//!
//! * Workers are created once (lazily, on first use of [`global`]) and
//!   **parked** between jobs — they spin briefly for the next broadcast,
//!   yield, then block on a condvar. Dispatching to already-spinning
//!   workers costs on the order of a microsecond.
//! * A job is **broadcast**: the submitter publishes one closure through a
//!   generation-stamped slot (`seq` bump ⇒ new job), every worker runs it
//!   with its lane index, and an atomic countdown (`remaining`) tells the
//!   submitter when all lanes finished. The submitter itself runs lane 0,
//!   so a pool with `lanes() == n` uses exactly `n` threads.
//! * The worker count comes from the `TESA_THREADS` environment variable
//!   when set (clamped to `[1, 256]`; invalid values fall back), otherwise
//!   from [`std::thread::available_parallelism`]. `TESA_THREADS=1` is the
//!   serial-fallback switch: every entry point runs inline on the caller.
//! * Jobs submitted from *inside* a pool job run inline on the calling
//!   lane — nested parallelism degrades to serial instead of deadlocking
//!   on the single broadcast slot.
//! * A panic inside a job is caught on the worker, the broadcast completes
//!   (so the pool stays usable), and the submitter re-panics.
//! * Dropping a non-global [`Pool`] signals shutdown, wakes every parked
//!   worker, and joins them. The global pool lives for the process.
//!
//! # Safety
//!
//! Broadcasting a *borrowed* closure to persistent threads is the one
//! place in the workspace that needs `unsafe` (the crate is otherwise
//! `#![deny(unsafe_code)]`): the job slot stores a lifetime-erased
//! pointer. The submit protocol makes it sound by the same argument as
//! scoped threads — [`Pool::broadcast`] does not return until the atomic
//! countdown proves every worker has returned from the closure, and the
//! slot is cleared before the submit lock is released, so no worker can
//! observe the pointer after the closure's referent is gone.
//!
//! # Determinism
//!
//! The engine itself never reorders anything observable:
//! [`Pool::broadcast`]
//! runs `f(lane)` for every lane of a caller-chosen partition, and
//! [`Pool::scatter`] hands item *i* of a caller-built list to exactly one
//! lane.
//! As long as the caller's partition is a pure function of the problem
//! size (the thermal kernels use fixed chunk boundaries; see
//! `DESIGN.md`), results are bit-identical for any `TESA_THREADS`,
//! including 1.
//!
//! [`map_dynamic`] keeps the work-stealing index map from the previous
//! design for coarse irregular items (design sweeps, the pre-thermal
//! stage of evaluation batches) — same in-order output guarantee, now
//! dispatched onto the persistent workers instead of fresh threads.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Hard cap on the lane count (`TESA_THREADS` is clamped to this).
const MAX_LANES: usize = 256;

/// Busy-spin iterations before a waiting thread starts yielding.
const SPIN_ROUNDS: u32 = 4096;

/// Yield iterations (after spinning) before a worker parks on the condvar.
/// Yielding matters when lanes exceed cores (`TESA_THREADS` above the
/// machine width): pure spinning would steal the timeslice from the lane
/// that still has work.
const YIELD_ROUNDS: u32 = 32;

thread_local! {
    /// Set while this thread is executing a pool job (including the
    /// submitter's own lane 0); nested entry points run inline.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// A lifetime-erased pointer to the current broadcast's job closure.
///
/// Soundness: a `JobPtr` is only ever read by workers between the `seq`
/// bump that publishes it and the countdown hitting zero, and
/// [`Pool::broadcast`] keeps the closure alive (and the submit lock held)
/// until after that point — see the module docs.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

#[allow(unsafe_code)]
// SAFETY: the pointer is dereferenced only while the submitter provably
// keeps the referent alive (see `JobPtr` and the module docs); the
// pointee is `Sync`, so shared access from worker threads is fine.
unsafe impl Send for JobPtr {}

/// Erases the closure's lifetime so it fits the job slot. Sound only
/// under the broadcast protocol: the referent outlives every possible
/// dereference because [`Pool::broadcast`] blocks until the countdown
/// proves all workers are done with it.
#[allow(unsafe_code)]
fn erase<'a>(f: &'a (dyn Fn(usize) + Sync + 'a)) -> JobPtr {
    let short: *const (dyn Fn(usize) + Sync + 'a) = f;
    // SAFETY: pure lifetime erasure of a fat raw pointer; layout is
    // unchanged and the dereference discipline is enforced by the
    // broadcast protocol (see above).
    JobPtr(unsafe {
        std::mem::transmute::<
            *const (dyn Fn(usize) + Sync + 'a),
            *const (dyn Fn(usize) + Sync + 'static),
        >(short)
    })
}

/// State shared between the submitter side and the worker threads.
struct Shared {
    /// Total lanes including the submitter's lane 0 (worker count + 1).
    lanes: usize,
    /// Job generation stamp; a change tells workers a new job is out.
    seq: AtomicU64,
    /// The published job for the current generation.
    job: Mutex<Option<JobPtr>>,
    /// Workers that have not yet finished the current generation.
    remaining: AtomicUsize,
    /// Set by a worker whose job closure panicked.
    panicked: AtomicBool,
    /// Set by `Drop`; workers exit at the next wait-loop iteration.
    shutdown: AtomicBool,
    /// Pairs with `work_cv`: guards the park/notify handshake. The
    /// seq-recheck under this lock is what makes parking race-free.
    idle: Mutex<()>,
    work_cv: Condvar,
    /// Pairs with `done_cv`: wakes a parked submitter when the countdown
    /// hits zero.
    done: Mutex<()>,
    done_cv: Condvar,
}

/// A persistent pool of parked worker threads. Most callers want
/// [`global`]; tests and benchmarks build private pools with
/// [`Pool::new`].
pub struct Pool {
    shared: Arc<Shared>,
    /// Serializes broadcasts: there is one job slot, and the soundness
    /// argument needs "no new job until the previous one fully drained".
    submit: Mutex<()>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("lanes", &self.shared.lanes).finish_non_exhaustive()
    }
}

/// The process-wide pool, created on first use with [`default_lanes`]
/// lanes. Never dropped; its workers park when idle.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::new(default_lanes()))
}

/// The lane count [`global`] uses: `TESA_THREADS` when it parses to an
/// integer in `[1, 256]` (larger values clamp to 256), otherwise
/// [`std::thread::available_parallelism`].
pub fn default_lanes() -> usize {
    std::env::var("TESA_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
        .min(MAX_LANES)
}

impl Pool {
    /// A pool with `lanes` total lanes (the calling thread is lane 0, so
    /// this spawns `lanes - 1` worker threads; `lanes` is clamped to
    /// `[1, 256]`). With one lane every entry point runs inline.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn a worker thread.
    #[must_use]
    pub fn new(lanes: usize) -> Self {
        let lanes = lanes.clamp(1, MAX_LANES);
        let shared = Arc::new(Shared {
            lanes,
            seq: AtomicU64::new(0),
            job: Mutex::new(None),
            remaining: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            idle: Mutex::new(()),
            work_cv: Condvar::new(),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        let workers = (1..lanes)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tesa-pool-{lane}"))
                    .spawn(move || worker_loop(&shared, lane))
                    .expect("failed to spawn pool worker thread")
            })
            .collect();
        Self { shared, submit: Mutex::new(()), workers }
    }

    /// Total concurrent lanes, including the submitter's. `1` means the
    /// pool is effectively serial (single-core machine or
    /// `TESA_THREADS=1`).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.shared.lanes
    }

    /// Runs `f(lane, lanes)` once per lane in `0..lanes`, concurrently,
    /// where `lanes = max_lanes.min(self.lanes()).max(1)`. Returns after
    /// every lane has finished.
    ///
    /// The caller partitions its work by `(lane, lanes)`; for
    /// deterministic results the partition must depend only on the problem
    /// size, never on `lanes` (fixed chunks assigned `lane, lane + lanes,
    /// …` are the usual shape — see the module docs).
    ///
    /// Runs inline on the caller when only one lane is available or when
    /// called from inside another pool job (nested parallelism is serial).
    ///
    /// # Panics
    ///
    /// Re-panics if `f` panicked on any lane; the pool itself survives and
    /// the broadcast still completes on every other lane first.
    pub fn broadcast<F: Fn(usize, usize) + Sync>(&self, max_lanes: usize, f: F) {
        let lanes = max_lanes.min(self.shared.lanes).max(1);
        if lanes == 1 || IN_JOB.with(Cell::get) {
            f(0, 1);
            return;
        }
        let guard = self.submit.lock().expect("pool submit lock poisoned");
        // Erase the closure's lifetime for the job slot. `wrapper` lives
        // until the end of this function; the protocol below guarantees no
        // worker touches the pointer after `remaining` hits zero, which
        // happens before the slot is cleared and the submit lock released.
        let wrapper = |worker_lane: usize| {
            if worker_lane < lanes {
                f(worker_lane, lanes);
            }
        };
        let job = erase(&wrapper);
        self.shared.panicked.store(false, Ordering::Relaxed);
        *self.shared.job.lock().expect("pool job slot poisoned") = Some(job);
        self.shared.remaining.store(self.shared.lanes - 1, Ordering::Relaxed);
        self.shared.seq.fetch_add(1, Ordering::Release);
        {
            // Taking `idle` orders this notify against the workers'
            // check-seq-then-park (both under the same lock), so a worker
            // either sees the new seq or is parked and gets the notify.
            let _idle = self.shared.idle.lock().expect("pool idle lock poisoned");
            self.shared.work_cv.notify_all();
        }

        // The submitter is lane 0.
        IN_JOB.with(|c| c.set(true));
        let mine = panic::catch_unwind(AssertUnwindSafe(|| f(0, lanes)));
        IN_JOB.with(|c| c.set(false));

        // Wait for the countdown: spin (the common case — worker lanes are
        // sized like lane 0's share), then park on `done_cv`.
        let mut spins = 0u32;
        while self.shared.remaining.load(Ordering::Acquire) > 0 {
            if spins < SPIN_ROUNDS {
                spins += 1;
                std::hint::spin_loop();
            } else if spins < SPIN_ROUNDS + YIELD_ROUNDS {
                spins += 1;
                std::thread::yield_now();
            } else {
                let done = self.shared.done.lock().expect("pool done lock poisoned");
                if self.shared.remaining.load(Ordering::Acquire) > 0 {
                    // Workers notify under `done`, so this cannot miss.
                    drop(self.shared.done_cv.wait(done).expect("pool done lock poisoned"));
                }
            }
        }
        *self.shared.job.lock().expect("pool job slot poisoned") = None;
        drop(guard);
        if let Err(payload) = mine {
            panic::resume_unwind(payload);
        }
        assert!(
            !self.shared.panicked.load(Ordering::Acquire),
            "tesa_util::pool: a pool job panicked on a worker thread"
        );
    }

    /// Distributes the `items` of a caller-built partition across up to
    /// `max_lanes` lanes: item `i` is passed to exactly one call
    /// `f(i, item_i)`, and all calls have returned when `scatter` returns.
    ///
    /// This is the safe way to hand out disjoint `&mut` workspace per
    /// lane: split the buffers *before* the call, make each item own its
    /// slices, and let `f` consume them. Item order in `items` is the
    /// caller's chunk order; which lane runs which item is unobservable
    /// as long as `f`'s effect depends only on `(i, item_i)`.
    ///
    /// Runs inline (in index order) when only one lane is available, when
    /// there are fewer than two items, or when nested inside another pool
    /// job — so the call's observable effect never depends on the lane
    /// count.
    ///
    /// # Panics
    ///
    /// Re-panics if `f` panicked for any item (see [`Pool::broadcast`]).
    pub fn scatter<I: Send, F: Fn(usize, I) + Sync>(
        &self,
        max_lanes: usize,
        items: Vec<I>,
        f: F,
    ) {
        let lanes = max_lanes.min(self.shared.lanes).min(items.len()).max(1);
        if lanes == 1 || IN_JOB.with(Cell::get) {
            for (i, item) in items.into_iter().enumerate() {
                f(i, item);
            }
            return;
        }
        let n = items.len();
        let slots: Vec<Mutex<Option<I>>> =
            items.into_iter().map(|item| Mutex::new(Some(item))).collect();
        self.broadcast(lanes, |lane, lanes| {
            let mut i = lane;
            while i < n {
                let item = slots[i].lock().expect("pool scatter slot poisoned").take();
                if let Some(item) = item {
                    f(i, item);
                }
                i += lanes;
            }
        });
    }

    /// Maps `f` over `0..n` with dynamic (work-stealing) scheduling and
    /// returns the results in index order — exactly what a serial
    /// `(0..n).map(f).collect()` would produce. See [`map_dynamic`] (the
    /// same map on the global pool) for when to prefer this over
    /// [`Pool::broadcast`].
    pub fn map_dynamic<T, F>(&self, threads: usize, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let lanes = threads.clamp(1, n).min(self.shared.lanes);
        if lanes == 1 || IN_JOB.with(Cell::get) {
            return (0..n).map(f).collect();
        }

        // Per-lane deques of index ranges: the owner pops small chunks off
        // the front, a dry lane steals the back half of the fullest
        // victim. Work only shrinks, so "every queue empty" terminates.
        let queues: Vec<Mutex<Range>> =
            (0..lanes).map(|w| Mutex::new((w * n / lanes, (w + 1) * n / lanes))).collect();
        // Front chunks are capped so the tail of a long queue stays
        // stealable: at most 1/16th of an even share per pop, and exactly
        // one item per pop once fewer than ~2 items per lane remain
        // (expensive-item sweeps want maximal granularity).
        let chunk_cap = (n / (16 * lanes)).max(1);
        let parts: Vec<Mutex<Vec<(usize, T)>>> =
            (0..lanes).map(|_| Mutex::new(Vec::new())).collect();
        self.broadcast(lanes, |lane, _| {
            let mut local: Vec<(usize, T)> = Vec::new();
            loop {
                let chunk = match pop_front(&queues[lane], chunk_cap) {
                    Some(c) => c,
                    None => match steal(&queues, lane) {
                        Some(range) => {
                            // Adopt the stolen range so other thieves can
                            // split it further, then pop like any owner.
                            // Our own queue is empty here (only the owner
                            // refills it), so overwriting is safe.
                            *queues[lane].lock().expect("pool queue poisoned") = range;
                            continue;
                        }
                        None => break,
                    },
                };
                for i in chunk.0..chunk.1 {
                    local.push((i, f(i)));
                }
            }
            // One lock per lane per broadcast; a lane that runs again
            // after a steal round-trip appends instead of overwriting.
            parts[lane].lock().expect("pool part poisoned").append(&mut local);
        });

        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for part in &parts {
            for (i, v) in part.lock().expect("pool part poisoned").drain(..) {
                debug_assert!(out[i].is_none(), "index {i} computed twice");
                out[i] = Some(v);
            }
        }
        out.into_iter().map(|v| v.expect("every index computed exactly once")).collect()
    }
}

impl Drop for Pool {
    /// Graceful shutdown: signals the workers, wakes any that are parked,
    /// and joins them. A worker that is mid-job finishes the job first
    /// (broadcasts borrow the pool, so by the time `Drop` can run no
    /// broadcast is in flight — shutdown can only interleave with jobs
    /// *finishing*, never abandon one).
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _idle = self.shared.idle.lock().expect("pool idle lock poisoned");
            self.shared.work_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            drop(handle.join());
        }
    }
}

/// The wait-run loop of one worker thread (lane `lane >= 1`).
fn worker_loop(shared: &Shared, lane: usize) {
    // Start from generation 0, NOT from a fresh `seq` load: a broadcast
    // published before this thread gets scheduled must still be run (its
    // countdown includes us, so the submitter cannot finish — and no
    // further generation can start — until we do).
    let mut seen = 0u64;
    loop {
        // Phase 1: wait for a generation bump (or shutdown). Spin first —
        // back-to-back broadcasts from a CG iteration arrive within
        // microseconds — then yield, then park.
        let mut spins = 0u32;
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let seq = shared.seq.load(Ordering::Acquire);
            if seq != seen {
                seen = seq;
                break;
            }
            if spins < SPIN_ROUNDS {
                spins += 1;
                std::hint::spin_loop();
            } else if spins < SPIN_ROUNDS + YIELD_ROUNDS {
                spins += 1;
                std::thread::yield_now();
            } else {
                let idle = shared.idle.lock().expect("pool idle lock poisoned");
                // Recheck under the lock: the submitter notifies while
                // holding it, so either we see the new seq here or we are
                // parked before the notify fires.
                if shared.seq.load(Ordering::Acquire) == seen
                    && !shared.shutdown.load(Ordering::Acquire)
                {
                    drop(shared.work_cv.wait(idle).expect("pool idle lock poisoned"));
                }
                spins = 0;
            }
        }

        // Phase 2: run the published job for this generation. The slot is
        // always `Some` here — it is cleared only after `remaining` (which
        // includes us) reaches zero.
        let job = *shared.job.lock().expect("pool job slot poisoned");
        if let Some(job) = job {
            run_job(job, lane, shared);
        }
        // Persistent threads never hit the scope-join trace flush; drain
        // the TLS event buffer while the events are still this job's.
        crate::trace::flush_current_thread();
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _done = shared.done.lock().expect("pool done lock poisoned");
            shared.done_cv.notify_all();
        }
    }
}

/// Dereferences the published job pointer and runs it for `lane`,
/// catching panics into `shared.panicked`.
#[allow(unsafe_code)]
fn run_job(job: JobPtr, lane: usize, shared: &Shared) {
    // SAFETY: the submitter keeps the closure alive until the countdown
    // this lane has not yet decremented reaches zero, and `seq` changes
    // only after a fresh pointer is published — so `job.0` points to the
    // live closure of the current generation (see the module docs).
    let f = unsafe { &*job.0 };
    IN_JOB.with(|c| c.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(|| f(lane)));
    IN_JOB.with(|c| c.set(false));
    if result.is_err() {
        shared.panicked.store(true, Ordering::Release);
    }
}

/// Per-lane share of an index space: a half-open `[start, end)` range.
/// The owner pops from the front; thieves split off the back.
type Range = (usize, usize);

/// Maps `f` over `0..n` on up to `threads` lanes of the [`global`] pool
/// with dynamic (work-stealing) scheduling; results come back in index
/// order — exactly what a serial `(0..n).map(f).collect()` would produce.
///
/// This is the right entry point for *irregular, coarse* items (a full
/// design evaluation next to a cache hit). For fine-grained numeric
/// kernels with a fixed partition, use [`Pool::broadcast`] /
/// [`Pool::scatter`] directly.
///
/// `threads` is clamped to `[1, n]` and to the pool's lane count; with
/// one lane the map runs inline on the caller with no pool overhead,
/// which keeps single-threaded callers bit-identical and cheap.
///
/// `f` must be safe to call concurrently from multiple threads; items are
/// computed exactly once each.
///
/// ```
/// let squares = tesa_util::pool::map_dynamic(4, 10, |i| i * i);
/// assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
/// ```
pub fn map_dynamic<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    global().map_dynamic(threads, n, f)
}

/// Pops a chunk off the front of `q`, or `None` when the range is empty.
/// Chunks shrink with the remaining work (a quarter, capped by
/// `chunk_cap`) so the tail of a range stays stealable while lock traffic
/// stays low on long runs of cheap items.
fn pop_front(q: &Mutex<Range>, chunk_cap: usize) -> Option<Range> {
    let mut g = q.lock().expect("pool queue poisoned");
    let (start, end) = *g;
    if start >= end {
        return None;
    }
    let take = ((end - start) / 4).clamp(1, chunk_cap);
    g.0 = start + take;
    Some((start, start + take))
}

/// Steals the back half of the fullest victim's range. Locks are taken one
/// queue at a time (never nested), so the scan can race with the victim
/// draining its own queue; a victim found empty on the second look just
/// triggers a rescan. Returns `None` only after a full scan finds every
/// other queue empty.
fn steal(queues: &[Mutex<Range>], thief: usize) -> Option<Range> {
    loop {
        let mut best: Option<(usize, usize)> = None; // (victim, remaining)
        for (v, q) in queues.iter().enumerate() {
            if v == thief {
                continue;
            }
            let g = q.lock().expect("pool queue poisoned");
            let len = g.1.saturating_sub(g.0);
            if len > 0 && best.is_none_or(|(_, bl)| len > bl) {
                best = Some((v, len));
            }
        }
        let (victim, _) = best?;
        let mut g = queues[victim].lock().expect("pool queue poisoned");
        let (start, end) = *g;
        if start >= end {
            continue; // the victim drained it since the scan; rescan
        }
        // Victim keeps the front half, thief takes the back half. With one
        // item left the thief takes it whole (mid == start).
        let mid = start + (end - start) / 2;
        g.1 = mid;
        return Some((mid, end));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn matches_serial_map_in_order() {
        let pool = Pool::new(8);
        let expected: Vec<usize> = (0..1000).map(|i| i * i).collect();
        for threads in [1, 2, 3, 4, 8] {
            assert_eq!(pool.map_dynamic(threads, 1000, |i| i * i), expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(map_dynamic(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(map_dynamic(8, 1, |i| i + 41), vec![41]);
        assert_eq!(map_dynamic(0, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = Pool::new(8);
        let n = 4096;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let out = pool.map_dynamic(8, n, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..n).collect::<Vec<_>>());
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn imbalanced_costs_still_produce_ordered_results() {
        // Early indices are ~1000x more expensive than late ones — the
        // shape that starves a statically chunked pool. Correctness here
        // exercises the steal path; balance is covered by the benches.
        let pool = Pool::new(8);
        let cost = |i: usize| if i < 8 { 50_000u64 } else { 50 };
        let work = |i: usize| {
            let mut acc = 0u64;
            for k in 0..cost(i) {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i as u64) ^ (acc & 1)
        };
        let expected: Vec<u64> = (0..256).map(work).collect();
        assert_eq!(pool.map_dynamic(8, 256, work), expected);
    }

    #[test]
    fn broadcast_runs_every_lane_exactly_once() {
        let pool = Pool::new(4);
        for max_lanes in [1, 2, 3, 4, 9] {
            let lanes_expected = max_lanes.clamp(1, 4);
            let hits: Vec<AtomicUsize> =
                (0..lanes_expected).map(|_| AtomicUsize::new(0)).collect();
            pool.broadcast(max_lanes, |lane, lanes| {
                assert_eq!(lanes, lanes_expected);
                hits[lane].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "max_lanes={max_lanes}"
            );
        }
    }

    #[test]
    fn broadcasts_reuse_the_same_workers() {
        // Many back-to-back broadcasts through one pool: exercises the
        // spin → yield → park → wake cycle and the generation stamping.
        let pool = Pool::new(3);
        let total = AtomicUsize::new(0);
        for round in 0..200 {
            pool.broadcast(3, |lane, _| {
                total.fetch_add(round + lane, Ordering::Relaxed);
            });
            if round % 10 == 0 {
                // Let workers reach the parked state sometimes.
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let expected: usize = (0..200).map(|r| 3 * r + 3).sum();
        assert_eq!(total.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn nested_broadcast_runs_inline() {
        let pool = Pool::new(4);
        let inner_lanes = Mutex::new(Vec::new());
        pool.broadcast(4, |_, _| {
            pool.broadcast(4, |lane, lanes| {
                assert_eq!(lane, 0);
                inner_lanes.lock().unwrap().push(lanes);
            });
        });
        // Every outer lane ran its nested broadcast inline with 1 lane.
        assert_eq!(*inner_lanes.lock().unwrap(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn nested_map_dynamic_runs_inline_and_complete() {
        let pool = Pool::new(4);
        let outer = pool.map_dynamic(4, 6, |i| {
            let inner = pool.map_dynamic(4, 5, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expected: Vec<usize> =
            (0..6).map(|i| (0..5).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(outer, expected);
    }

    #[test]
    fn scatter_consumes_each_item_exactly_once() {
        let pool = Pool::new(4);
        let n = 37;
        let mut out = vec![0usize; n];
        // Hand each lane a disjoint &mut element — the pattern the thermal
        // kernels use for per-lane workspaces.
        let items: Vec<&mut usize> = out.iter_mut().collect();
        pool.scatter(4, items, |i, slot| *slot = i * i);
        assert_eq!(out, (0..n).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn panic_in_job_propagates_and_pool_survives() {
        let pool = Pool::new(4);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(4, |lane, _| {
                assert!(lane != 2, "lane 2 goes down");
            });
        }));
        assert!(caught.is_err(), "worker panic must propagate to the submitter");
        // The broadcast still completed on every lane; the pool is usable.
        let sum = AtomicUsize::new(0);
        pool.broadcast(4, |lane, _| {
            sum.fetch_add(lane + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 1 + 2 + 3 + 4);
    }

    #[test]
    fn panic_on_submitter_lane_propagates() {
        let pool = Pool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(2, |lane, _| assert!(lane != 0, "lane 0 goes down"));
        }));
        assert!(caught.is_err());
        pool.broadcast(2, |_, _| {}); // still alive
    }

    #[test]
    fn shutdown_joins_parked_and_busy_workers() {
        // Parked: workers that never saw a job.
        drop(Pool::new(4));
        // Busy-ish: drop right after heavy use, while workers are still in
        // the spin/yield phase of their wait loop.
        let pool = Pool::new(4);
        for _ in 0..50 {
            pool.broadcast(4, |_, _| {});
        }
        drop(pool);
        // Shutdown during a slow job on another handle: the drop must wait
        // for the job to finish, not abandon it.
        let pool = std::sync::Arc::new(Pool::new(4));
        let flag = std::sync::Arc::new(AtomicUsize::new(0));
        let (p2, f2) = (Arc::clone(&pool), Arc::clone(&flag));
        let submitter = std::thread::spawn(move || {
            p2.broadcast(4, |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                f2.fetch_add(1, Ordering::Relaxed);
            });
        });
        drop(pool); // may or may not be the last Arc; either way no hang
        submitter.join().unwrap();
        assert_eq!(flag.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn single_lane_pool_runs_inline() {
        let pool = Pool::new(1);
        let count = AtomicUsize::new(0);
        pool.broadcast(8, |lane, lanes| {
            assert_eq!((lane, lanes), (0, 1));
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn default_lanes_is_positive_and_capped() {
        let lanes = default_lanes();
        assert!((1..=MAX_LANES).contains(&lanes));
    }

    #[test]
    fn map_dynamic_matches_serial_prop() {
        // Propcheck: random (n, threads, cost skew) — pool output must be
        // identical to the serial map.
        use crate::propcheck::{check, ranged, Config};
        let pool = Pool::new(6);
        check(
            Config::with_cases(40),
            (ranged(0usize..200), ranged(1usize..10), ranged(1u64..1000)),
            |(n, threads, skew)| {
                let work = move |i: usize| {
                    let mut acc = skew;
                    for k in 0..(i % 7) * (skew as usize % 13) {
                        acc = acc.wrapping_mul(0x9E37_79B9).wrapping_add(k as u64);
                    }
                    acc.wrapping_add(i as u64)
                };
                let expected: Vec<u64> = (0..n).map(work).collect();
                if pool.map_dynamic(threads, n, work) == expected {
                    Ok(())
                } else {
                    Err(format!("pool map diverged from serial at n={n} threads={threads}"))
                }
            },
        );
    }
}
