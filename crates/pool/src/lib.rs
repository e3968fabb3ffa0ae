//! A dependency-free work-stealing thread pool for the workspace's
//! unit-level fan-outs: `sdfr batch` units and registry prefetching
//! (`sdfr serve --preload`).
//!
//! Parallelism stops at the unit: one analysis — including a capacity
//! search, whose probes fork one another's archived executions — runs on
//! one thread. Fanning a single Pareto sweep's probes out over the pool
//! measured 0.90–0.96× at 2–8 threads, while one task per batch unit
//! scales.
//!
//! # Why not `std::thread::scope` per call?
//!
//! Fan-outs can nest: a task may open a fan-out of its own (say, a
//! registry prefetch issued from a pool task). Spawning fresh OS threads
//! at each level oversubscribes the machine (threads multiply across
//! levels) or serializes (when an inner fan-out decides one worker is
//! warranted because the outer level already owns the cores). A shared
//! pool makes the levels *cooperate*: inner fan-outs schedule tasks onto
//! the same workers, and a thread waiting for a scope to finish executes
//! queued tasks instead of blocking.
//!
//! # Executor model
//!
//! [`Pool::new(n)`](Pool::new) spawns `n − 1` background workers; the
//! thread driving a [`Pool::scope`] participates as the n-th executor while
//! it waits. Each worker owns a deque used LIFO from its own end (good
//! locality for nested spawns) and FIFO from thieves' end (oldest —
//! biggest — tasks migrate first); tasks submitted from outside the pool
//! land in a shared FIFO injector. A **1-thread pool runs every task on the
//! scope-driving thread in submission order** — the deterministic serial
//! reference the differential tests compare against.
//!
//! # Determinism
//!
//! Work stealing randomizes *completion* order, never results: every
//! fan-out in this workspace writes results into index-addressed slots and
//! folds them in ascending index order, so pooled results are byte-identical
//! to the serial reference paths regardless of thread count or steal
//! schedule.
//!
//! # Sizing
//!
//! The lazily-created [`global`] pool sizes itself from
//! [`std::thread::available_parallelism`], overridable with the
//! `SDFR_THREADS` environment variable (a positive integer; see
//! [`env_threads`] for the validation front-ends use to reject bad values
//! up front — the lazy global itself ignores an invalid override rather
//! than panicking from library code).
//!
//! # Example
//!
//! ```
//! let pool = sdfr_pool::Pool::new(4);
//! // Index-ordered parallel map: results never depend on scheduling.
//! let squares = pool.map_indexed(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! // Scoped spawns may borrow from the enclosing frame.
//! let data = vec![1u64, 2, 3];
//! let sum = std::sync::atomic::AtomicU64::new(0);
//! pool.scope(|s| {
//!     for &x in &data {
//!         let sum = &sum;
//!         s.spawn(move |_| {
//!             sum.fetch_add(x, std::sync::atomic::Ordering::Relaxed);
//!         });
//!     }
//! });
//! assert_eq!(sum.into_inner(), 6);
//! assert!(pool.stats().executed >= 8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::time::Duration;

/// A queued unit of work. All jobs are created by [`Scope::spawn`], which
/// wraps the user closure in panic capture and completion bookkeeping, so
/// executing a job never unwinds.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// How long an idle worker sleeps before re-polling the queues (a safety
/// net; pushes notify the condvar under the idle lock, so wakeups are not
/// normally missed).
const IDLE_POLL: Duration = Duration::from_millis(50);

/// How long a scope-waiting thread sleeps between help attempts when no
/// task is currently stealable.
const WAIT_POLL: Duration = Duration::from_millis(1);

/// The shared state of one pool: queues, sleep coordination, counters.
struct Inner {
    /// Total executor count (background workers + the scope-driving
    /// thread); `queues.len() == threads - 1`.
    threads: usize,
    /// FIFO queue for tasks submitted from threads outside the pool.
    injector: Mutex<VecDeque<Job>>,
    /// Per-worker deques: owner pushes/pops at the back (LIFO), thieves
    /// and the injector-drain path pop at the front (FIFO).
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Sleep coordination: pushes notify under this lock, idle workers
    /// re-check the queues under it before sleeping.
    idle: Mutex<()>,
    work: Condvar,
    shutdown: AtomicBool,
    spawned: AtomicU64,
    stolen: AtomicU64,
    executed: AtomicU64,
}

impl Inner {
    /// Takes one job: own deque back (LIFO) when called by worker `local`,
    /// then the shared injector front, then other workers' fronts (a
    /// steal). Returns `None` when every queue is momentarily empty.
    fn find_job(&self, local: Option<usize>) -> Option<Job> {
        if let Some(i) = local {
            if let Some(job) = self.queues[i].lock().expect("pool queue").pop_back() {
                return Some(job);
            }
        }
        if let Some(job) = self.injector.lock().expect("pool injector").pop_front() {
            return Some(job);
        }
        let n = self.queues.len();
        let start = local.map_or(0, |i| i + 1);
        for k in 0..n {
            let victim = (start + k) % n;
            if Some(victim) == local {
                continue;
            }
            if let Some(job) = self.queues[victim].lock().expect("pool queue").pop_front() {
                self.stolen.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    /// Whether any queue currently holds a task (checked under the idle
    /// lock before a worker goes to sleep).
    fn has_work(&self) -> bool {
        if !self.injector.lock().expect("pool injector").is_empty() {
            return true;
        }
        self.queues
            .iter()
            .any(|q| !q.lock().expect("pool queue").is_empty())
    }

    /// Enqueues a job: onto the calling worker's own deque when the caller
    /// belongs to this pool (LIFO locality), onto the injector otherwise.
    fn push(self: &Arc<Self>, job: Job) {
        let local = WORKER.with(|w| {
            w.borrow()
                .as_ref()
                .filter(|ctx| Arc::ptr_eq(&ctx.inner, self))
                .map(|ctx| ctx.index)
        });
        match local {
            Some(i) => self.queues[i].lock().expect("pool queue").push_back(job),
            None => self.injector.lock().expect("pool injector").push_back(job),
        }
        self.spawned.fetch_add(1, Ordering::Relaxed);
        // Lock-then-notify pairs with the sleep path's re-check under the
        // same lock: a job is either visible to that re-check or its
        // notification arrives after the sleeper released the lock.
        let _guard = self.idle.lock().expect("pool idle lock");
        self.work.notify_all();
    }

    fn execute(&self, job: Job) {
        self.executed.fetch_add(1, Ordering::Relaxed);
        job();
    }
}

/// Per-thread identity of pool workers, used to route [`Scope::spawn`] to
/// the local deque and to resolve [`current`] on worker threads.
struct WorkerCtx {
    inner: Arc<Inner>,
    joiner: Weak<Joiner>,
    index: usize,
}

thread_local! {
    static WORKER: RefCell<Option<WorkerCtx>> = const { RefCell::new(None) };
    static CURRENT: RefCell<Option<Pool>> = const { RefCell::new(None) };
}

fn worker_loop(inner: Arc<Inner>, joiner: Weak<Joiner>, index: usize) {
    WORKER.with(|w| {
        *w.borrow_mut() = Some(WorkerCtx {
            inner: Arc::clone(&inner),
            joiner,
            index,
        });
    });
    loop {
        if let Some(job) = inner.find_job(Some(index)) {
            inner.execute(job);
            continue;
        }
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        let guard = inner.idle.lock().expect("pool idle lock");
        if inner.shutdown.load(Ordering::Acquire) || inner.has_work() {
            continue;
        }
        let _ = inner.work.wait_timeout(guard, IDLE_POLL);
    }
}

/// Owns the worker threads: dropping the last [`Pool`] handle signals
/// shutdown and joins them. Workers themselves hold only a [`Weak`]
/// reference, so the cycle pool → joiner → worker → pool never forms.
struct Joiner {
    inner: Arc<Inner>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Drop for Joiner {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.inner.idle.lock().expect("pool idle lock");
            self.inner.work.notify_all();
        }
        // The last handle can die on one of this pool's own workers — e.g.
        // a queued job's environment held the final `Pool` clone and the
        // worker drops it after running the job. Joining from there would
        // self-join (a panic) or block a worker on its peers; detach
        // instead — every worker exits by itself within one idle poll of
        // the shutdown flag. `try_with` also covers drops during thread
        // teardown, after the identity TLS is gone.
        let on_own_worker = WORKER
            .try_with(|w| {
                w.borrow()
                    .as_ref()
                    .is_some_and(|ctx| Arc::ptr_eq(&ctx.inner, &self.inner))
            })
            .unwrap_or(true);
        if on_own_worker {
            return;
        }
        for handle in self.handles.lock().expect("pool joiner").drain(..) {
            let _ = handle.join();
        }
    }
}

/// A work-stealing thread pool. Cheap to clone (a pair of [`Arc`]s); the
/// worker threads shut down when the last handle is dropped.
///
/// See the [module documentation](self) for the executor model.
#[derive(Clone)]
pub struct Pool {
    inner: Arc<Inner>,
    /// Keep-alive: dropping the last handle joins the workers.
    _joiner: Arc<Joiner>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads())
            .field("stats", &self.stats())
            .finish()
    }
}

/// A snapshot of a pool's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Executor count (background workers + one scope-driving thread).
    pub threads: usize,
    /// Tasks submitted via [`Scope::spawn`].
    pub spawned: u64,
    /// Tasks taken from another worker's deque (or from a worker's deque
    /// by a helping non-worker thread).
    pub stolen: u64,
    /// Tasks executed to completion (including panicked ones — the panic
    /// is captured and re-thrown from the owning scope).
    pub executed: u64,
}

impl Pool {
    /// Creates a pool with `threads` executors: `threads - 1` background
    /// workers plus the thread that drives each [`Pool::scope`]. A
    /// 1-thread pool spawns no workers and runs every task on the
    /// scope-driving thread in submission order.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` — front-ends validate user-supplied counts
    /// first (see [`env_threads`]) and report a usage error instead.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool requires at least one thread");
        let workers = threads - 1;
        let inner = Arc::new(Inner {
            threads,
            injector: Mutex::new(VecDeque::new()),
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            idle: Mutex::new(()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            spawned: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            executed: AtomicU64::new(0),
        });
        let joiner = Arc::new(Joiner {
            inner: Arc::clone(&inner),
            handles: Mutex::new(Vec::with_capacity(workers)),
        });
        for index in 0..workers {
            let inner = Arc::clone(&inner);
            let weak = Arc::downgrade(&joiner);
            let handle = std::thread::Builder::new()
                .name(format!("sdfr-pool-{index}"))
                .spawn(move || worker_loop(inner, weak, index))
                .expect("spawn pool worker thread");
            joiner.handles.lock().expect("pool joiner").push(handle);
        }
        Pool {
            inner,
            _joiner: joiner,
        }
    }

    /// The executor count this pool was created with.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// A snapshot of the lifetime spawn/steal/execute counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.inner.threads,
            spawned: self.inner.spawned.load(Ordering::Relaxed),
            stolen: self.inner.stolen.load(Ordering::Relaxed),
            executed: self.inner.executed.load(Ordering::Relaxed),
        }
    }

    /// Runs `f` with a [`Scope`] onto which tasks borrowing from the
    /// enclosing frame may be spawned, and returns only after every
    /// spawned task (including transitively spawned ones) has completed.
    ///
    /// While waiting, the calling thread executes queued tasks — its own
    /// scope's or any other's — so nested scopes cannot deadlock: a worker
    /// blocked on an inner scope keeps draining the very queue its tasks
    /// are waiting in.
    ///
    /// # Panics
    ///
    /// If `f` or any spawned task panics, the panic is re-thrown here
    /// after all tasks of the scope have completed (the first captured
    /// payload wins; every task still runs to its own completion or
    /// panic).
    pub fn scope<'scope, R>(&self, f: impl FnOnce(&Scope<'scope>) -> R + 'scope) -> R {
        let scope = Scope {
            pool: self.clone(),
            state: Arc::new(ScopeState {
                pending: AtomicUsize::new(0),
                panic: Mutex::new(None),
                lock: Mutex::new(()),
                cvar: Condvar::new(),
            }),
            _marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.wait_scope(&scope.state);
        // The driver's own panic takes precedence; a task panic is only
        // surfaced when the driver completed normally.
        match result {
            Ok(r) => {
                if let Some(payload) = scope.state.panic.lock().expect("scope panic slot").take() {
                    resume_unwind(payload);
                }
                r
            }
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Evaluates `f(0..n)` on the pool and returns the results in index
    /// order — scheduling affects wall-clock time, never the result. With
    /// one thread (or `n <= 1`) this is a plain sequential map on the
    /// calling thread.
    pub fn map_indexed<R: Send>(&self, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        if n <= 1 || self.threads() == 1 {
            return (0..n).map(f).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let slots = &slots;
        let f = &f;
        self.scope(|s| {
            for (i, slot) in slots.iter().enumerate() {
                s.spawn(move |_| {
                    let r = f(i);
                    *slot.lock().expect("result slot") = Some(r);
                });
            }
        });
        slots
            .iter()
            .map(|m| {
                m.lock()
                    .expect("result slot")
                    .take()
                    .expect("scope waits for every task")
            })
            .collect()
    }

    /// A coarse chunk size for fanning `n` items out on this pool: a few
    /// chunks per executor balances load under work stealing without
    /// paying per-item task overhead (boxing, queue locking, slot
    /// round-trips). Callers with a per-item cost model (e.g. `sdfr
    /// batch`'s firing-cap estimates) clamp their own size to this one.
    #[must_use]
    pub fn chunk_size(&self, n: usize) -> usize {
        const CHUNKS_PER_THREAD: usize = 4;
        n.div_ceil((self.threads() * CHUNKS_PER_THREAD).max(1))
            .max(1)
    }

    /// Runs `f` with this pool installed as the calling thread's
    /// [`current`] pool, so library fan-outs inside `f` route here instead
    /// of the global pool. The previous installation is restored on exit,
    /// panic included. (Worker threads are bound to their own pool and
    /// ignore installations.)
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Pool>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                CURRENT.with(|c| *c.borrow_mut() = prev);
            }
        }
        let _restore = Restore(CURRENT.with(|c| c.borrow_mut().replace(self.clone())));
        f()
    }

    /// Help-while-waiting: executes queued tasks until `state.pending`
    /// drops to zero.
    fn wait_scope(&self, state: &ScopeState) {
        let local = WORKER.with(|w| {
            w.borrow()
                .as_ref()
                .filter(|ctx| Arc::ptr_eq(&ctx.inner, &self.inner))
                .map(|ctx| ctx.index)
        });
        while state.pending.load(Ordering::Acquire) > 0 {
            if let Some(job) = self.inner.find_job(local) {
                self.inner.execute(job);
            } else {
                let guard = state.lock.lock().expect("scope lock");
                if state.pending.load(Ordering::Acquire) == 0 {
                    break;
                }
                // Timed: new stealable work elsewhere in the pool does not
                // signal this condvar, only this scope's completions do.
                let _ = state.cvar.wait_timeout(guard, WAIT_POLL);
            }
        }
    }
}

/// Completion tracking for one [`Pool::scope`] invocation.
struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    lock: Mutex<()>,
    cvar: Condvar,
}

impl ScopeState {
    fn complete_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.lock.lock().expect("scope lock");
            self.cvar.notify_all();
        }
    }
}

/// A spawn handle tied to one [`Pool::scope`] invocation. Tasks receive a
/// `&Scope` themselves, so they can spawn further tasks into the same
/// scope.
pub struct Scope<'scope> {
    pool: Pool,
    state: Arc<ScopeState>,
    /// Invariant over `'scope`, like [`std::thread::Scope`]: the scope
    /// must not be coerced to a longer or shorter task lifetime.
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl std::fmt::Debug for Scope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope")
            .field("pending", &self.state.pending.load(Ordering::Relaxed))
            .finish()
    }
}

impl<'scope> Scope<'scope> {
    /// Spawns `task` onto the pool. The closure may borrow anything that
    /// outlives the `scope` call (`'scope`) and receives a `&Scope` for
    /// nested spawns. Panics inside `task` are captured and re-thrown by
    /// the owning [`Pool::scope`] after all tasks finish.
    pub fn spawn<F>(&self, task: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let pool = self.pool.clone();
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let scope = Scope {
                pool: pool.clone(),
                state: Arc::clone(&state),
                _marker: PhantomData,
            };
            // Install the scope's pool as `current()` for the task body:
            // nested fan-outs inside the task cooperate with this pool even
            // when the task is executed by a helping non-worker thread.
            if let Err(payload) =
                catch_unwind(AssertUnwindSafe(|| scope.pool.install(|| task(&scope))))
            {
                let mut slot = state.panic.lock().expect("scope panic slot");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            state.complete_one();
        });
        // SAFETY: `Pool::scope` does not return before `pending` reaches
        // zero, i.e. before this job has run and dropped its closure; the
        // `'scope` borrows it captures therefore strictly outlive every
        // use. Only the lifetime is transmuted, the vtable is unchanged.
        let job: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
        self.pool.inner.push(job);
    }
}

/// The process-wide shared pool, created on first use. Sized by
/// `SDFR_THREADS` when that is set to a valid positive integer, by
/// [`std::thread::available_parallelism`] otherwise (an *invalid*
/// `SDFR_THREADS` is ignored here — front-ends reject it with
/// [`env_threads`] before ever reaching the pool).
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::new(default_threads()))
}

/// The pool the calling thread's fan-outs should use: the worker's own
/// pool on pool worker threads (so nested fan-outs cooperate instead of
/// oversubscribing), an [`Pool::install`]ed pool when one is active on
/// this thread, the [`global`] pool otherwise.
#[must_use]
pub fn current() -> Pool {
    let worker = WORKER.with(|w| {
        w.borrow().as_ref().and_then(|ctx| {
            ctx.joiner.upgrade().map(|joiner| Pool {
                inner: Arc::clone(&ctx.inner),
                _joiner: joiner,
            })
        })
    });
    if let Some(pool) = worker {
        return pool;
    }
    if let Some(pool) = CURRENT.with(|c| c.borrow().clone()) {
        return pool;
    }
    global().clone()
}

/// The error returned by [`env_threads`] for a malformed `SDFR_THREADS`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadsError {
    raw: String,
}

impl std::fmt::Display for ThreadsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SDFR_THREADS must be a positive integer, got '{}'",
            self.raw
        )
    }
}

impl std::error::Error for ThreadsError {}

/// Reads the `SDFR_THREADS` override: `Ok(None)` when unset, the validated
/// count when set to a positive integer, and an error (for front-ends to
/// surface as a usage error) when set to anything else — including `0`.
pub fn env_threads() -> Result<Option<NonZeroUsize>, ThreadsError> {
    match std::env::var("SDFR_THREADS") {
        Err(_) => Ok(None),
        Ok(raw) => match raw.trim().parse::<NonZeroUsize>() {
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(ThreadsError { raw }),
        },
    }
}

/// The executor count the [`global`] pool uses: a valid `SDFR_THREADS`, or
/// the machine's available parallelism.
#[must_use]
pub fn default_threads() -> usize {
    if let Ok(Some(n)) = env_threads() {
        return n.get();
    }
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn one_thread_pool_runs_tasks_in_submission_order() {
        let pool = Pool::new(1);
        let order = Mutex::new(Vec::new());
        pool.scope(|s| {
            for i in 0..16 {
                let order = &order;
                s.spawn(move |_| order.lock().unwrap().push(i));
            }
        });
        assert_eq!(*order.lock().unwrap(), (0..16).collect::<Vec<_>>());
        let stats = pool.stats();
        assert_eq!((stats.spawned, stats.executed, stats.stolen), (16, 16, 0));
    }

    #[test]
    fn map_indexed_matches_serial_on_any_width() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let got = pool.map_indexed(37, |i| i * 3 + 1);
            assert_eq!(got, (0..37).map(|i| i * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunk_size_is_positive_and_covers_n() {
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            for n in [0, 1, 5, 100, 10_000] {
                let c = pool.chunk_size(n);
                assert!(c >= 1);
                assert!(c * threads * 4 >= n, "threads={threads} n={n} chunk={c}");
            }
        }
    }

    #[test]
    fn nested_scopes_make_progress() {
        // More blocked outer scopes than workers: only help-while-wait
        // lets the inner tasks run.
        let pool = Pool::new(2);
        let hits = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                let hits = &hits;
                s.spawn(move |_| {
                    current().scope(|s2| {
                        for _ in 0..4 {
                            s2.spawn(move |_| {
                                hits.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(hits.into_inner(), 32);
    }

    #[test]
    fn install_routes_current_and_restores() {
        let pool = Pool::new(2);
        let outside = current();
        let inside = pool.install(current);
        assert!(Arc::ptr_eq(&inside.inner, &pool.inner));
        let after = current();
        assert!(Arc::ptr_eq(&after.inner, &outside.inner));
    }

    #[test]
    fn env_threads_validation() {
        // Run single-threaded over the env var to avoid cross-test races:
        // this test is the only one touching SDFR_THREADS in this crate.
        std::env::remove_var("SDFR_THREADS");
        assert_eq!(env_threads(), Ok(None));
        std::env::set_var("SDFR_THREADS", "3");
        assert_eq!(env_threads(), Ok(Some(NonZeroUsize::new(3).unwrap())));
        for bad in ["0", "-1", "many", ""] {
            std::env::set_var("SDFR_THREADS", bad);
            let err = env_threads().unwrap_err();
            assert!(err.to_string().contains("positive integer"), "{err}");
        }
        std::env::remove_var("SDFR_THREADS");
    }
}
