//! The persistent, deterministic worker pool.
//!
//! One [`ExecPool`] owns a set of long-lived worker threads and a shared
//! job queue.  Work arrives as *batches* ([`ExecPool::run_ordered`]): the
//! caller hands over a slice of items and a function, helper jobs are
//! queued for the pool workers, and the calling thread itself joins in as
//! an executor.  Executors claim chunks of consecutive item indices from
//! an atomic ticket counter, so a batch drains without any per-item
//! locking on the hot path; results land in per-index slots and are
//! collected in item order once the batch closes.
//!
//! The load-bearing `unsafe` of the workspace lives here (the only other
//! occurrence is `star-serve`'s one-line SIGINT binding), in one well-worn
//! shape
//! (the same lifetime erasure `rayon`/`crossbeam` scopes are built on): a
//! batch borrows the caller's stack, but pool workers are `'static`
//! threads, so the helper jobs carry a type-erased raw pointer to the
//! batch context instead of a borrow.  Safety rests on the **gate
//! protocol** documented at the private `Shared`/`Gate` types in this
//! file: a helper may only dereference the
//! context after checking in through the gate while it is open, and
//! `run_ordered` cannot return (ending the borrow) until it has closed the
//! gate and every checked-in helper has checked out.  Helper jobs that
//! reach the front of the queue after the gate closed return without ever
//! touching the context.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// A queued unit of pool work: either a batch helper or a shutdown signal
/// (represented by draining the queue while `shutdown` is set).
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolState {
    queue: Mutex<PoolQueue>,
    job_ready: Condvar,
}

/// A persistent pool of worker threads executing deterministic ordered
/// batches.
///
/// Most callers want [`ExecPool::global`] — one process-wide pool sized to
/// the available parallelism, shared by every parallel path in the
/// workspace.  Dedicated pools ([`ExecPool::new`]) exist for tests and for
/// embedding the crate elsewhere; dropping one joins its workers.
///
/// See the [crate docs](crate) for the determinism contract.
pub struct ExecPool {
    state: Arc<PoolState>,
    workers: usize,
    handles: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ExecPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPool").field("workers", &self.workers).finish()
    }
}

impl ExecPool {
    /// Spawns a pool with the given number of persistent workers; `0` means
    /// one worker per available hardware thread.
    ///
    /// Returns only once every worker is running under its `star-exec-{i}`
    /// name, so a caller (or an observer listing the process's threads)
    /// never sees a half-started pool.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let workers = if workers > 0 { workers } else { hardware_threads() };
        let state = Arc::new(PoolState {
            queue: Mutex::new(PoolQueue { jobs: VecDeque::new(), shutdown: false }),
            job_ready: Condvar::new(),
        });
        // start latch: each worker checks in from its own thread, after the
        // runtime has applied the thread name
        let started = Arc::new((Mutex::new(0usize), Condvar::new()));
        let handles = (0..workers)
            .map(|i| {
                let state = Arc::clone(&state);
                let started = Arc::clone(&started);
                thread::Builder::new()
                    .name(format!("star-exec-{i}"))
                    .spawn(move || {
                        *started.0.lock().expect("start latch poisoned") += 1;
                        started.1.notify_one();
                        drop(started);
                        worker_loop(&state);
                    })
                    .expect("spawning a pool worker must succeed")
            })
            .collect();
        let (count, all_started) = &*started;
        let mut count = count.lock().expect("start latch poisoned");
        while *count < workers {
            count = all_started.wait(count).expect("start latch poisoned");
        }
        drop(count);
        Self { state, workers, handles }
    }

    /// The process-wide shared pool (one worker per available hardware
    /// thread, spawned on first use, never torn down).
    #[must_use]
    pub fn global() -> &'static ExecPool {
        static GLOBAL: OnceLock<ExecPool> = OnceLock::new();
        GLOBAL.get_or_init(|| ExecPool::new(0))
    }

    /// Number of persistent workers.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers
    }

    /// Resolves a requested batch width: `0` means all pool workers.
    #[must_use]
    pub fn resolve_width(&self, width: usize) -> usize {
        if width > 0 {
            width
        } else {
            self.workers
        }
    }

    fn submit(&self, job: Job) {
        let mut queue = self.state.queue.lock().expect("pool queue poisoned");
        debug_assert!(!queue.shutdown, "submitting to a shut-down pool");
        queue.jobs.push_back(job);
        drop(queue);
        self.state.job_ready.notify_one();
    }

    /// [`Self::run_ordered`] on the shared [`Self::global`] pool, without
    /// instantiating it for serial work: a width of `1`, a batch of fewer
    /// than two items, or a single-hardware-thread host executes inline on
    /// the calling thread and never spawns the pool's workers.  This is
    /// the entry point the default-serial call sites (the models' blocking
    /// sums, the spectrum build, the sweep runner) go through, so a
    /// process that never actually runs anything in parallel never pays
    /// for idle worker threads.
    ///
    /// # Panics
    /// As [`Self::run_ordered`].
    pub fn global_ordered<I, T, F>(width: usize, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        if width == 1 || items.len() < 2 || hardware_threads() == 1 {
            return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        Self::global().run_ordered(width, items, f)
    }

    /// Computes `f(i, &items[i])` for every item and returns the results in
    /// item order — byte-identical for any `width` (see the
    /// [crate docs](crate) for the full determinism contract).
    ///
    /// `width` is the number of executors the batch may use: `0` means all
    /// pool workers, `1` short-circuits to a serial loop on the calling
    /// thread.  The calling thread always participates, so the effective
    /// parallelism is `min(width, items.len())` and nested batches cannot
    /// deadlock even on a saturated pool.
    ///
    /// # Panics
    /// Re-throws the first panic raised by `f` (after the whole batch has
    /// been drained, so no work item is left running when this returns).
    pub fn run_ordered<I, T, F>(&self, width: usize, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let executors = self.resolve_width(width).min(items.len()).max(1);
        if executors == 1 {
            return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }

        let mut slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let ctx = Ctx {
            items,
            f: &f,
            slots: &slots,
            next: &next,
            // ~4 chunks per executor balances ticket traffic against tail
            // imbalance; any chunking yields the same results
            chunk: (items.len() / (executors * 4)).max(1),
            panic: &panic_slot,
        };
        let shared = Arc::new(Shared {
            gate: Mutex::new(Gate { closed: false, active: 0 }),
            gate_change: Condvar::new(),
            run: run_batch::<I, T, F>,
            ctx: SendPtr(std::ptr::from_ref(&ctx).cast::<()>()),
        });
        for _ in 0..executors - 1 {
            let shared = Arc::clone(&shared);
            self.submit(Box::new(move || helper_entry(&shared)));
        }

        // the caller is always an executor: even if every pool worker is
        // busy (or the pool is this thread's own, nested), the batch drains
        ctx.run();

        // close the gate: helpers that did not check in yet will skip, and
        // the borrowed context stays alive until the checked-in ones leave
        let mut gate = shared.gate.lock().expect("batch gate poisoned");
        gate.closed = true;
        while gate.active > 0 {
            gate = shared.gate_change.wait(gate).expect("batch gate poisoned");
        }
        drop(gate);

        if let Some(payload) = panic_slot.lock().expect("panic slot poisoned").take() {
            resume_unwind(payload);
        }
        slots
            .drain(..)
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock poisoned")
                    .expect("every item of a drained batch has a result")
            })
            .collect()
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        {
            let mut queue = self.state.queue.lock().expect("pool queue poisoned");
            queue.shutdown = true;
        }
        self.state.job_ready.notify_all();
        for handle in self.handles.drain(..) {
            handle.join().expect("pool workers never panic out of a job");
        }
    }
}

/// The host's available parallelism, sampled once (the pool's `0` width and
/// the serial short-circuit of [`ExecPool::global_ordered`] both use it).
fn hardware_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

fn worker_loop(state: &PoolState) {
    loop {
        let job = {
            let mut queue = state.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break Some(job);
                }
                if queue.shutdown {
                    break None;
                }
                queue = state.job_ready.wait(queue).expect("pool queue poisoned");
            }
        };
        match job {
            // helper entries contain their own panics (the payload travels
            // back to the batch owner), but stay defensive: a worker must
            // outlive any single job
            Some(job) => {
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            None => return,
        }
    }
}

/// The gate a batch's helpers synchronise on.  Protocol:
///
/// 1. a helper locks the gate; if `closed`, it returns **without touching
///    the context pointer** (the borrow may already be over);
/// 2. otherwise it increments `active`, releases the lock, and may now
///    dereference the context — the owner is still inside `run_ordered`;
/// 3. when done it decrements `active` and signals `gate_change`;
/// 4. the owner, after finishing its own share, sets `closed` and blocks on
///    `gate_change` until `active == 0`; only then may `run_ordered`
///    return and the borrowed context die.
struct Gate {
    closed: bool,
    active: usize,
}

/// Type-erased raw pointer to a batch's stack-borrowed [`Ctx`].
///
/// Raw pointers are not `Send`/`Sync`; this wrapper asserts both because
/// the pointer is only ever dereferenced under the gate protocol above,
/// which guarantees the pointee is alive and the pointee's own
/// synchronisation (`&[I]: Sync`, per-slot mutexes, atomics) makes shared
/// access sound.
struct SendPtr(*const ());

// SAFETY: see the type docs — dereferences are confined to gate-protected
// helper executions, during which the pointee is alive and `Sync`.
unsafe impl Send for SendPtr {}
// SAFETY: as above.
unsafe impl Sync for SendPtr {}

struct Shared {
    gate: Mutex<Gate>,
    gate_change: Condvar,
    /// Monomorphised executor entry: casts the erased pointer back to the
    /// concrete `Ctx<I, T, F>` and drains tickets.
    run: unsafe fn(*const ()),
    ctx: SendPtr,
}

fn helper_entry(shared: &Shared) {
    {
        let mut gate = shared.gate.lock().expect("batch gate poisoned");
        if gate.closed {
            return;
        }
        gate.active += 1;
    }
    // SAFETY: the gate was open when we checked in, so the batch owner is
    // still blocked inside `run_ordered` and the context outlives this
    // call; the owner cannot proceed past the gate until we check out.
    unsafe { (shared.run)(shared.ctx.0) };
    let mut gate = shared.gate.lock().expect("batch gate poisoned");
    gate.active -= 1;
    if gate.active == 0 {
        shared.gate_change.notify_all();
    }
}

struct Ctx<'scope, I, T, F> {
    items: &'scope [I],
    f: &'scope F,
    slots: &'scope [Mutex<Option<T>>],
    next: &'scope AtomicUsize,
    chunk: usize,
    panic: &'scope Mutex<Option<Box<dyn Any + Send>>>,
}

impl<I: Sync, T: Send, F: Fn(usize, &I) -> T + Sync> Ctx<'_, I, T, F> {
    /// Drains chunks of item tickets until the batch is exhausted.  Never
    /// unwinds: panics from `f` are parked in the shared panic slot and the
    /// remaining tickets are cancelled so the batch closes promptly.
    fn run(&self) {
        loop {
            let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.items.len() {
                break;
            }
            let end = (start + self.chunk).min(self.items.len());
            for i in start..end {
                match catch_unwind(AssertUnwindSafe(|| (self.f)(i, &self.items[i]))) {
                    Ok(value) => {
                        *self.slots[i].lock().expect("slot lock poisoned") = Some(value);
                    }
                    Err(payload) => {
                        let mut slot = self.panic.lock().expect("panic slot poisoned");
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        drop(slot);
                        // cancel the tickets nobody claimed yet (claimed
                        // chunks still finish; the owner waits for them)
                        self.next.fetch_max(self.items.len(), Ordering::Relaxed);
                        return;
                    }
                }
            }
        }
    }
}

/// Monomorphised batch entry used by [`helper_entry`] through the erased
/// function pointer in [`Shared`].
///
/// # Safety
/// `ctx` must point to a live `Ctx<I, T, F>` with exactly these type
/// parameters — guaranteed by construction in [`ExecPool::run_ordered`],
/// which pairs the pointer with this instantiation — and the pointee must
/// outlive the call, which the gate protocol guarantees.
unsafe fn run_batch<I: Sync, T: Send, F: Fn(usize, &I) -> T + Sync>(ctx: *const ()) {
    // SAFETY: see the function docs.
    let ctx = unsafe { &*ctx.cast::<Ctx<'_, I, T, F>>() };
    ctx.run();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn ordered_results_for_any_width() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|i| i * i).collect();
        let pool = ExecPool::new(4);
        for width in [0usize, 1, 2, 3, 4, 7, 200] {
            assert_eq!(pool.run_ordered(width, &items, |_, &i| i * i), expect, "width {width}");
        }
    }

    #[test]
    fn indices_match_items() {
        let items = ["a", "b", "c", "d", "e"];
        let out = ExecPool::global().run_ordered(2, &items, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn empty_and_single_batches() {
        let pool = ExecPool::new(2);
        let empty: Vec<u32> = pool.run_ordered(4, &[] as &[u32], |_, &x| x);
        assert!(empty.is_empty());
        assert_eq!(pool.run_ordered(4, &[9u32], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..64).collect();
        let _ = ExecPool::global()
            .run_ordered(0, &items, |_, &i| counters[i].fetch_add(1, Ordering::Relaxed));
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_batches_complete_on_a_busy_pool() {
        // a 1-worker pool: the outer batch occupies the only worker, so the
        // inner batches must drain on their calling (worker/owner) threads
        let pool = ExecPool::new(1);
        let outer: Vec<usize> = (0..8).collect();
        let result = pool.run_ordered(0, &outer, |_, &i| {
            let inner: Vec<usize> = (0..4).collect();
            pool.run_ordered(0, &inner, |_, &j| i * 10 + j).iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| 4 * (i * 10) + 6).collect();
        assert_eq!(result, expect);
    }

    #[test]
    fn panic_in_worker_propagates_to_the_caller() {
        let pool = ExecPool::new(3);
        let items: Vec<usize> = (0..32).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_ordered(3, &items, |_, &i| {
                assert!(i != 17, "work item 17 exploded");
                i
            })
        }));
        let payload = result.expect_err("the batch must re-throw the item panic");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .expect("panic payload is the message");
        assert!(message.contains("work item 17 exploded"), "got {message:?}");
        // the pool survives: workers caught the unwind and keep serving
        assert_eq!(pool.run_ordered(3, &[1u32, 2, 3], |_, &x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = ExecPool::global();
        let b = ExecPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.threads() >= 1);
        assert_eq!(a.resolve_width(0), a.threads());
        assert_eq!(a.resolve_width(5), 5);
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let pool = ExecPool::new(2);
        let items: Vec<u32> = (0..16).collect();
        let doubled = pool.run_ordered(0, &items, |_, &x| x * 2);
        assert_eq!(doubled[15], 30);
        drop(pool); // must not hang or panic
    }
}
