//! A small persistent worker pool for intra-batch data parallelism.
//!
//! Design goals, in priority order:
//!
//! 1. **Bitwise determinism.** The pool never changes *what* is computed,
//!    only *who* computes it. Callers partition work so that every output
//!    element is written by exactly one job ("owner computes"), and each
//!    job performs its floating-point accumulations in the same order as
//!    the serial code. Under that contract results are bit-identical to
//!    the single-threaded path for any thread count and any job/thread
//!    interleaving — jobs race only for *which* disjoint piece they run,
//!    never for the contents of one.
//! 2. **No dependencies.** Built on `std::thread` + `Mutex`/`Condvar`
//!    only; the build environment has no access to crates.io.
//! 3. **Cheap steady state.** Workers are spawned once and parked on a
//!    condvar between batches, so per-call overhead is two lock
//!    round-trips plus wakeups — small against a mini-batch matmul.
//!
//! `Pool::new(1)` (and [`Pool::serial`]) creates a pool with no worker
//! threads at all: [`Pool::run`] then executes jobs inline on the caller,
//! making the single-threaded path literally the same code as before.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

/// Raw-pointer wrapper that asserts a parallel job's writes are disjoint.
///
/// Rust cannot see that two jobs writing different rows of the same matrix
/// never alias, so kernels share the output buffer as a `SendPtr` and take
/// responsibility for the ownership discipline themselves.
pub struct SendPtr<T>(pub *mut T);

// SAFETY: callers uphold the owner-computes contract — each element behind
// the pointer is written by at most one job per `Pool::run` call.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer offset by `i` elements.
    ///
    /// # Safety
    /// `i` must be in bounds of the original allocation (or one past the
    /// end), the allocation must outlive every use of the returned pointer,
    /// and no other job may touch the addressed element during this `run`
    /// call.
    #[inline]
    pub unsafe fn add(&self, i: usize) -> *mut T {
        // SAFETY: `i` is in bounds of the allocation per this function's
        // `# Safety` contract.
        unsafe { self.0.add(i) }
    }

    /// Mutable slice `[start, start + len)` behind the pointer.
    ///
    /// # Safety
    /// Same contract as [`SendPtr::add`], for the whole range: the entire
    /// range must lie inside the original allocation, the allocation must
    /// stay alive for the returned lifetime, and no other job (nor the
    /// caller) may read or write any element of the range while the slice
    /// exists.
    // The `&self -> &mut` shape is the point of this type: `SendPtr` is a
    // raw-pointer capability, not a borrow, and exclusivity is the caller's
    // owner-computes obligation stated above.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn slice(&self, start: usize, len: usize) -> &mut [T] {
        // SAFETY: bounds, liveness and exclusivity are the caller's
        // obligations per this function's `# Safety` contract.
        unsafe { std::slice::from_raw_parts_mut(self.0.add(start), len) }
    }
}

/// Splits `total` items into chunks sized for `threads`-way execution.
///
/// Returns `(chunk_len, num_chunks)`. Several chunks per thread keep the
/// dynamic job counter useful for load balancing; the split never affects
/// results because every chunk is owner-computed.
pub fn chunks_for(total: usize, threads: usize) -> (usize, usize) {
    if total == 0 {
        return (1, 0);
    }
    let chunk = total.div_ceil(threads.max(1) * 4).max(1);
    (chunk, total.div_ceil(chunk))
}

type Task = *const (dyn Fn(usize) + Sync);

#[derive(Clone, Copy)]
struct SendTask(Task);

/// Per-epoch preparation hook: runs exactly once on every participating
/// thread (caller and each worker) before that thread grabs any job.
type Prep = *const (dyn Fn() + Sync);

#[derive(Clone, Copy)]
struct SendPrep(Prep);

// SAFETY: same discipline as `SendTask` — the pointer is only dereferenced
// between publication and the completion barrier in `Inner::run`.
unsafe impl Send for SendPrep {}

// SAFETY: the task pointer is only dereferenced between job publication and
// the completion barrier in `Inner::run`, while the referent is alive.
unsafe impl Send for SendTask {}

struct State {
    epoch: u64,
    task: Option<SendTask>,
    prep: Option<SendPrep>,
    counter: Arc<AtomicUsize>,
    num_jobs: usize,
    /// Workers still executing (or yet to notice) the current epoch.
    running: usize,
    /// Workers that have finished OS-level thread startup.
    started: usize,
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers that a new epoch (or shutdown) is available.
    work: Condvar,
    /// Signals the caller that `running` reached zero.
    done: Condvar,
}

impl Shared {
    /// The pool's single lock site. Poisoning stance: worker panics are
    /// caught and surfaced through the `panicked` flag, so the mutex can
    /// only be poisoned by a panic inside one of the pool's own short
    /// critical sections — a pool bug whose panic should propagate.
    fn locked(&self) -> MutexGuard<'_, State> {
        // lint: allow(panic-free, reason="poisoning requires a prior panic inside a pool critical section (worker panics are caught and reported via the `panicked` flag); propagating that pool bug is the contract")
        // lint: allow(no-blocking-cone, reason="declared pool hand-off: the state mutex guards only task pickup/completion bookkeeping; scoring reaches it solely to dispatch rows to workers, and the critical sections are a few instructions")
        self.state.lock().unwrap()
    }

    /// The pool's single condvar-wait site; same poisoning stance as
    /// [`Shared::locked`].
    fn wait_on<'a>(&self, cv: &Condvar, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        // lint: allow(panic-free, reason="same poisoning stance as Shared::locked: only a prior pool-internal panic can poison the lock")
        // lint: allow(no-blocking-cone, reason="declared pool hand-off: the calling thread parks only while workers drain the dispatched batch; this is the pool's join point, not an open-ended wait")
        cv.wait(st).unwrap()
    }
}

struct Inner {
    shared: Arc<Shared>,
    workers: usize,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Inner {
    fn run(&self, num_jobs: usize, prep: Option<&(dyn Fn() + Sync)>, f: &(dyn Fn(usize) + Sync)) {
        // SAFETY: the transmute erases the closure's lifetime so it can sit
        // in shared state; the completion barrier below guarantees every
        // worker is done with it before this frame returns.
        let task = SendTask(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), Task>(
                f as *const (dyn Fn(usize) + Sync),
            )
        });
        // SAFETY: as above — the prep closure outlives the completion
        // barrier for the same reason the task closure does.
        let prep_task = prep.map(|p| {
            SendPrep(unsafe {
                std::mem::transmute::<*const (dyn Fn() + Sync + '_), Prep>(
                    p as *const (dyn Fn() + Sync),
                )
            })
        });
        let counter = {
            let mut st = self.shared.locked();
            debug_assert_eq!(st.running, 0, "pool: overlapping run calls");
            st.epoch += 1;
            st.task = Some(task);
            st.prep = prep_task;
            // Reset in place rather than allocating a fresh Arc: by the
            // time a new epoch starts, the completion barrier of the
            // previous `run` guarantees no worker still touches the
            // counter, and keeping `run` allocation-free is what lets
            // tests/alloc_steady_state.rs hold across thread counts.
            st.counter.store(0, Ordering::Relaxed);
            st.num_jobs = num_jobs;
            st.running = self.workers;
            self.shared.work.notify_all();
            st.counter.clone()
        };
        // The caller participates instead of idling.
        let caller_result = panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(p) = prep {
                p();
            }
            loop {
                let i = counter.fetch_add(1, Ordering::Relaxed);
                if i >= num_jobs {
                    break;
                }
                f(i);
            }
        }));
        // Barrier: `f` (and the buffers it borrows) must outlive every
        // worker's use of it.
        let mut st = self.shared.locked();
        while st.running > 0 {
            st = self.shared.wait_on(&self.shared.done, st);
        }
        st.task = None;
        st.prep = None;
        let worker_panicked = std::mem::replace(&mut st.panicked, false);
        drop(st);
        if let Err(payload) = caller_result {
            panic::resume_unwind(payload);
        }
        if worker_panicked {
            // lint: allow(panic-free, reason="deliberately re-raises a worker panic that already happened; the pool's contract is to propagate, not swallow")
            panic!("optinter-tensor pool: a worker thread panicked");
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        {
            let mut st = self.shared.locked();
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.get_mut().unwrap().drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut seen_epoch = 0u64;
    {
        // Report startup so `Pool::new` can wait for it: the std runtime
        // performs a few heap allocations on the *child* thread before
        // this function runs (stack-overflow handler, thread-name
        // registration), and until this point is reached they could land
        // at an arbitrary moment in the parent's timeline — including
        // inside a caller's zero-allocation measurement window
        // (tests/alloc_steady_state.rs).
        let mut st = shared.locked();
        st.started += 1;
        shared.done.notify_all();
    }
    loop {
        let (task, prep, counter, num_jobs) = {
            let mut st = shared.locked();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break (
                        st.task.expect("pool: epoch advanced without a task"),
                        st.prep,
                        st.counter.clone(),
                        st.num_jobs,
                    );
                }
                st = shared.wait_on(&shared.work, st);
            }
        };
        // SAFETY: the caller of `Inner::run` blocks until `running` drops to
        // zero, so the closures behind `task` and `prep` are alive for this
        // whole block.
        let f = unsafe { &*task.0 };
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(p) = prep {
                // SAFETY: as above — published alongside `task` and fenced
                // by the same completion barrier.
                unsafe { (*p.0)() };
            }
            loop {
                let i = counter.fetch_add(1, Ordering::Relaxed);
                if i >= num_jobs {
                    break;
                }
                f(i);
            }
        }));
        let mut st = shared.locked();
        if result.is_err() {
            st.panicked = true;
        }
        st.running -= 1;
        if st.running == 0 {
            shared.done.notify_all();
        }
    }
}

/// Handle to a worker pool; clones share the same threads.
///
/// See the module docs for the determinism contract. A pool of one thread
/// holds no OS threads and runs everything inline.
#[derive(Clone)]
pub struct Pool {
    inner: Option<Arc<Inner>>,
}

impl Pool {
    /// Creates a pool executing with `threads`-way parallelism (the caller
    /// counts as one of the threads). `threads <= 1` yields the inline
    /// serial pool.
    pub fn new(threads: usize) -> Self {
        if threads <= 1 {
            return Self { inner: None };
        }
        let workers = threads - 1;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                task: None,
                prep: None,
                counter: Arc::new(AtomicUsize::new(0)),
                num_jobs: 0,
                running: 0,
                started: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name("optinter-pool".into())
                    .spawn(move || worker_loop(shared))
                    .expect("pool: failed to spawn worker thread")
            })
            .collect();
        // Absorb worker startup before handing the pool out: after this
        // wait, every thread's lazy runtime allocations are behind us and
        // the steady state is genuinely allocation-free from the first
        // `run` call.
        {
            let mut st = shared.locked();
            while st.started < workers {
                st = shared.wait_on(&shared.done, st);
            }
        }
        Self {
            inner: Some(Arc::new(Inner {
                shared,
                workers,
                handles: Mutex::new(handles),
            })),
        }
    }

    /// The inline single-threaded pool.
    pub fn serial() -> Self {
        Self { inner: None }
    }

    /// Whether jobs run inline on the caller with no worker threads.
    #[inline]
    pub fn is_serial(&self) -> bool {
        self.inner.is_none()
    }

    /// Degree of parallelism (caller included).
    #[inline]
    pub fn threads(&self) -> usize {
        match &self.inner {
            None => 1,
            Some(inner) => inner.workers + 1,
        }
    }

    /// Executes `f(0), f(1), ..., f(num_jobs - 1)`, each exactly once, and
    /// returns once all have finished.
    ///
    /// Jobs may run on any thread in any order, so `f` must only perform
    /// writes that are disjoint across job indices (owner computes). On a
    /// serial pool the jobs run inline in index order.
    pub fn run<F: Fn(usize) + Sync>(&self, num_jobs: usize, f: F) {
        match &self.inner {
            None => {
                for i in 0..num_jobs {
                    f(i);
                }
            }
            Some(inner) => {
                if num_jobs == 0 {
                    return;
                }
                if num_jobs == 1 {
                    f(0);
                    return;
                }
                inner.run(num_jobs, None, &f);
            }
        }
    }

    /// [`run`](Self::run) with a per-thread preparation hook: `prep` runs
    /// exactly once on every thread that may execute jobs this epoch — the
    /// caller and, when the epoch is dispatched to the pool, every worker,
    /// *including workers that end up winning zero jobs* — before that
    /// thread grabs its first job.
    ///
    /// This exists for kernels with lazily-grown thread-local scratch: job
    /// assignment is dynamic (threads race on a shared counter), so which
    /// thread sees which shape is scheduling-dependent, and a worker that
    /// sat out earlier calls would otherwise grow its scratch at an
    /// arbitrary later moment — e.g. inside a caller's zero-allocation
    /// measurement window (tests/alloc_steady_state.rs). A `prep` that
    /// pre-sizes the scratch makes the growth happen deterministically on
    /// first sight of a shape, on every thread. Workers already rendezvous
    /// with every epoch for the completion barrier, so the hook adds no
    /// synchronization.
    ///
    /// Single-job and serial-pool calls run `prep` on the caller only —
    /// no other thread can touch a job, so no other scratch is needed.
    pub fn run_prepared<P, F>(&self, num_jobs: usize, prep: P, f: F)
    where
        P: Fn() + Sync,
        F: Fn(usize) + Sync,
    {
        match &self.inner {
            None => {
                prep();
                for i in 0..num_jobs {
                    f(i);
                }
            }
            Some(inner) => {
                if num_jobs == 0 {
                    return;
                }
                if num_jobs == 1 {
                    prep();
                    f(0);
                    return;
                }
                inner.run(num_jobs, Some(&prep), &f);
            }
        }
    }

    /// Row-sharded parallel loop: views `out` as rows of `row_len` elements
    /// and calls `f(r, row)` once for every row, with contiguous row chunks
    /// distributed across the pool.
    ///
    /// This is the safe face of the owner-computes contract: the pool hands
    /// each job disjoint `&mut [T]` row slices, so callers get intra-batch
    /// parallel writes without writing `unsafe` themselves. Rows are visited
    /// in ascending order within a job, and every row is visited exactly
    /// once, so results are bit-identical to the serial loop for any thread
    /// count.
    ///
    /// # Panics
    /// Panics when `row_len == 0` or `out.len()` is not a multiple of
    /// `row_len`.
    pub fn for_rows<T, F>(&self, out: &mut [T], row_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        // lint: allow(panic-free, reason="row_len and buffer length come from the matmul caller's construction-pinned shapes")
        assert!(row_len > 0, "for_rows: row_len must be positive");
        // lint: allow(panic-free, reason="row_len and buffer length come from the matmul caller's construction-pinned shapes")
        assert_eq!(out.len() % row_len, 0, "for_rows: ragged buffer");
        let rows = out.len() / row_len;
        let (chunk, njobs) = chunks_for(rows, self.threads());
        let ptr = SendPtr(out.as_mut_ptr());
        self.run(njobs, |job| {
            let r0 = job * chunk;
            let r1 = (r0 + chunk).min(rows);
            for r in r0..r1 {
                // SAFETY: row chunks are disjoint across job indices and in
                // bounds (`r < rows`), and the caller's `&mut out` borrow is
                // held for the whole `run`, so row `r` is written by exactly
                // this job with no other access to it.
                let row = unsafe { ptr.slice(r * row_len, row_len) };
                f(r, row);
            }
        });
    }

    /// Chunk-sharded variant of [`for_rows`](Self::for_rows): instead of one
    /// row at a time, each job receives its whole contiguous block of rows
    /// as a single `&mut [T]` plus the index of the block's first row.
    ///
    /// This exists for kernels that block over *groups* of rows (the
    /// register-tiled matmuls process `MR` output rows together): handing
    /// the job its full chunk lets it run the exact serial multi-row kernel
    /// on it. Chunk boundaries never affect results because the kernels
    /// guarantee per-element accumulation-order invariance under any row
    /// grouping (see `crates/tensor/src/matrix.rs`).
    ///
    /// # Panics
    /// Panics when `row_len == 0` or `out.len()` is not a multiple of
    /// `row_len`.
    pub fn for_row_chunks<T, F>(&self, out: &mut [T], row_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        self.for_row_chunks_prepared(out, row_len, || {}, f);
    }

    /// [`for_row_chunks`](Self::for_row_chunks) with a per-thread
    /// preparation hook (see [`run_prepared`](Self::run_prepared)): `prep`
    /// runs once on every thread that may receive a chunk, before that
    /// thread's first chunk.
    pub fn for_row_chunks_prepared<T, P, F>(&self, out: &mut [T], row_len: usize, prep: P, f: F)
    where
        T: Send,
        P: Fn() + Sync,
        F: Fn(usize, &mut [T]) + Sync,
    {
        // lint: allow(panic-free, reason="row_len and buffer length come from the matmul caller's construction-pinned shapes")
        assert!(row_len > 0, "for_row_chunks: row_len must be positive");
        // lint: allow(panic-free, reason="row_len and buffer length come from the matmul caller's construction-pinned shapes")
        assert_eq!(out.len() % row_len, 0, "for_row_chunks: ragged buffer");
        let rows = out.len() / row_len;
        let (chunk, njobs) = chunks_for(rows, self.threads());
        let ptr = SendPtr(out.as_mut_ptr());
        self.run_prepared(njobs, prep, |job| {
            let r0 = job * chunk;
            let r1 = (r0 + chunk).min(rows);
            if r0 >= r1 {
                return;
            }
            // SAFETY: row chunks are disjoint across job indices and in
            // bounds (`r1 <= rows`), and the caller's `&mut out` borrow is
            // held for the whole `run`, so this range is written by exactly
            // this job with no other access to it.
            let block = unsafe { ptr.slice(r0 * row_len, (r1 - r0) * row_len) };
            f(r0, block);
        });
    }

    /// Two-buffer variant of [`for_rows`](Self::for_rows): `a` and `b` are
    /// viewed as matrices with the same number of rows (of widths
    /// `a_row_len` and `b_row_len`) and `f(r, a_row, b_row)` runs once per
    /// row under the same owner-computes sharding.
    ///
    /// Either width may be zero, in which case that buffer must be empty
    /// and its row slices come out empty; the row count is then taken from
    /// the other buffer. This keeps call sites with an *optional* secondary
    /// output (e.g. generalized-product weight gradients) on the safe path.
    ///
    /// # Panics
    /// Panics when a buffer is ragged or the row counts disagree.
    pub fn for_rows2<T, U, F>(
        &self,
        a: &mut [T],
        a_row_len: usize,
        b: &mut [U],
        b_row_len: usize,
        f: F,
    ) where
        T: Send,
        U: Send,
        F: Fn(usize, &mut [T], &mut [U]) + Sync,
    {
        let rows = if a_row_len > 0 {
            assert_eq!(a.len() % a_row_len, 0, "for_rows2: ragged first buffer");
            a.len() / a_row_len
        } else {
            assert!(a.is_empty(), "for_rows2: zero-width buffer must be empty");
            assert!(b_row_len > 0, "for_rows2: both widths are zero");
            b.len() / b_row_len
        };
        if b_row_len > 0 {
            assert_eq!(b.len() % b_row_len, 0, "for_rows2: ragged second buffer");
            assert_eq!(b.len() / b_row_len, rows, "for_rows2: row count mismatch");
        } else {
            assert!(b.is_empty(), "for_rows2: zero-width buffer must be empty");
        }
        let (chunk, njobs) = chunks_for(rows, self.threads());
        let a_ptr = SendPtr(a.as_mut_ptr());
        let b_ptr = SendPtr(b.as_mut_ptr());
        self.run(njobs, |job| {
            let r0 = job * chunk;
            let r1 = (r0 + chunk).min(rows);
            for r in r0..r1 {
                // SAFETY: as in `for_rows` — rows are disjoint across jobs
                // and in bounds for both buffers; a zero-width slice is a
                // valid empty slice at the buffer's base pointer.
                let a_row = unsafe { a_ptr.slice(r * a_row_len, a_row_len) };
                // SAFETY: same disjointness argument for the second buffer.
                let b_row = unsafe { b_ptr.slice(r * b_row_len, b_row_len) };
                f(r, a_row, b_row);
            }
        });
    }

    /// Element-sharded parallel loop: calls `f(i, &mut items[i])` once per
    /// element, one job per element. Safe for the same reason as
    /// [`for_rows`](Self::for_rows): every element is owned by exactly one
    /// job.
    ///
    /// Meant for small fleets of coarse accumulators (e.g. one gradient map
    /// per lane), where each job does substantial work on its single item.
    pub fn for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let n = items.len();
        let ptr = SendPtr(items.as_mut_ptr());
        self.run(n, |i| {
            // SAFETY: job `i` is the only job addressing element `i`, the
            // index is in bounds (`i < n`), and the caller's `&mut items`
            // borrow outlives the `run`.
            let item = unsafe { &mut *ptr.add(i) };
            f(i, item);
        });
    }
}

impl Default for Pool {
    fn default() -> Self {
        Self::serial()
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_pool_runs_inline_in_order() {
        let pool = Pool::serial();
        assert!(pool.is_serial());
        assert_eq!(pool.threads(), 1);
        let seen = Mutex::new(Vec::new());
        pool.run(5, |i| seen.lock().unwrap().push(i));
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let pool = Pool::new(4);
        assert_eq!(pool.threads(), 4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "job {i}");
        }
    }

    #[test]
    fn pool_is_reusable_across_many_runs() {
        let pool = Pool::new(3);
        for round in 0..50 {
            let sum = AtomicUsize::new(0);
            pool.run(round + 1, |i| {
                sum.fetch_add(i + 1, Ordering::Relaxed);
            });
            let n = round + 1;
            assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
        }
    }

    #[test]
    fn clones_share_the_same_workers() {
        let pool = Pool::new(2);
        let clone = pool.clone();
        let sum = AtomicUsize::new(0);
        clone.run(10, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
        assert_eq!(clone.threads(), 2);
    }

    #[test]
    fn job_panic_propagates_to_the_caller() {
        let pool = Pool::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, |i| {
                if i == 13 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must survive a panicked run.
        let sum = AtomicUsize::new(0);
        pool.run(4, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn disjoint_writes_through_sendptr() {
        let pool = Pool::new(4);
        let mut out = vec![0u32; 257];
        let ptr = SendPtr(out.as_mut_ptr());
        let (chunk, njobs) = chunks_for(out.len(), pool.threads());
        let total = out.len();
        pool.run(njobs, |j| {
            let start = j * chunk;
            let end = (start + chunk).min(total);
            // SAFETY: chunks are disjoint across job indices.
            let slice = unsafe { ptr.slice(start, end - start) };
            for (off, v) in slice.iter_mut().enumerate() {
                *v = (start + off) as u32;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u32);
        }
    }

    #[test]
    fn for_rows_visits_every_row_once_with_its_own_slice() {
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            let mut out = vec![0u32; 31 * 7];
            pool.for_rows(&mut out, 7, |r, row| {
                assert_eq!(row.len(), 7);
                for (c, v) in row.iter_mut().enumerate() {
                    *v += (r * 7 + c) as u32;
                }
            });
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, i as u32, "threads={threads}");
            }
        }
    }

    #[test]
    fn for_rows2_pairs_rows_and_allows_empty_second_buffer() {
        let pool = Pool::new(3);
        let mut a = vec![0u32; 10 * 3];
        let mut b = vec![0u32; 10 * 2];
        pool.for_rows2(&mut a, 3, &mut b, 2, |r, ar, br| {
            ar.fill(r as u32);
            br.fill(r as u32 + 100);
        });
        for r in 0..10 {
            assert!(a[r * 3..(r + 1) * 3].iter().all(|&v| v == r as u32));
            assert!(b[r * 2..(r + 1) * 2].iter().all(|&v| v == r as u32 + 100));
        }
        // Zero-width second buffer: row count comes from the first.
        let mut empty: Vec<u32> = Vec::new();
        let mut seen = vec![0u8; 10];
        let seen_ptr = SendPtr(seen.as_mut_ptr());
        pool.for_rows2(&mut a, 3, &mut empty, 0, |r, _ar, br| {
            assert!(br.is_empty());
            // SAFETY: row `r` of `seen` is owned by exactly this job.
            unsafe { *seen_ptr.add(r) += 1 };
        });
        assert!(seen.iter().all(|&s| s == 1));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn for_rows_rejects_ragged_buffers() {
        Pool::serial().for_rows(&mut [0u32; 7], 3, |_, _| {});
    }

    #[test]
    fn for_row_chunks_hands_out_disjoint_contiguous_blocks() {
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            let mut out = vec![0u32; 29 * 5];
            pool.for_row_chunks(&mut out, 5, |r0, block| {
                assert_eq!(block.len() % 5, 0);
                for (off, v) in block.iter_mut().enumerate() {
                    *v += (r0 * 5 + off) as u32;
                }
            });
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, i as u32, "threads={threads}");
            }
        }
    }

    #[test]
    fn for_each_mut_owns_each_element() {
        let pool = Pool::new(4);
        let mut items: Vec<Vec<usize>> = (0..9).map(|_| Vec::new()).collect();
        pool.for_each_mut(&mut items, |i, item| {
            item.push(i);
        });
        for (i, item) in items.iter().enumerate() {
            assert_eq!(item, &vec![i]);
        }
    }

    #[test]
    fn chunks_cover_everything() {
        for total in [0usize, 1, 2, 7, 64, 1000] {
            for threads in [1usize, 2, 4, 7] {
                let (chunk, njobs) = chunks_for(total, threads);
                assert!(njobs * chunk >= total);
                assert!(njobs == 0 || (njobs - 1) * chunk < total);
            }
        }
    }
}
