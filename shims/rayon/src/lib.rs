//! In-tree shim for the `rayon` crate (the build environment is offline).
//!
//! Provides the structured-parallelism subset the workspace uses — [`scope`],
//! [`join`] and [`current_num_threads`] — implemented on a **persistent
//! global worker pool**: worker threads are spawned once, on the first
//! parallel region, and every subsequent `scope` pushes its tasks onto the
//! shared injector queue instead of paying a `std::thread::spawn` per task.
//! The calling thread *helps* while it waits (it pops and runs queued tasks),
//! so nested scopes — e.g. the parallel GEMM called from inside a parallel
//! Monte-Carlo worker — cannot deadlock the fixed-size pool.
//!
//! Callers are written so that results are *scheduling-independent*: work
//! items are claimed from an atomic counter and every output slot is written
//! by exactly one task, so swapping this shim for real work-stealing rayon
//! cannot change any computed value.
//!
//! Deviation from upstream: [`Scope::spawn`] takes a zero-argument closure
//! (`s.spawn(|| ...)`) instead of rayon's `s.spawn(|_| ...)`, because the
//! scope handle cannot be re-borrowed for the `'scope` lifetime without
//! leaking. Nested spawns *of the same scope* are not needed anywhere in the
//! workspace (new nested scopes are fine).

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Number of worker threads a parallel region should use.
///
/// Honors the `RAYON_NUM_THREADS` environment variable (like real rayon),
/// falling back to [`std::thread::available_parallelism`]. Both are read
/// once, on the first call, and cached: the pool sizes itself from that
/// value, and upstream rayon likewise reports its fixed pool size. Later
/// calls are one load (the GEMM asks on every product).
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Runs both closures and returns their results.
///
/// The shim runs them sequentially on the calling thread, which is a valid
/// rayon schedule (rayon may also run either closure inline).
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let ra = oper_a();
    let rb = oper_b();
    (ra, rb)
}

/// A queued unit of work. The closure's real lifetime is the enclosing
/// scope's `'scope`; the latch guarantees it finishes before `scope` returns,
/// which is what makes the `'static` erasure sound.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The persistent worker pool: a shared injector queue plus parked workers.
struct Pool {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    /// Number of worker threads ever spawned (telemetry for tests).
    spawned: AtomicUsize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        spawned: AtomicUsize::new(0),
    })
}

/// Ensures the worker threads exist (idempotent; first caller spawns them).
fn ensure_workers(p: &'static Pool) {
    static STARTED: OnceLock<()> = OnceLock::new();
    STARTED.get_or_init(|| {
        // The caller participates via help-while-waiting, so N-1 workers
        // saturate N hardware threads.
        let workers = current_num_threads().saturating_sub(1);
        for _ in 0..workers {
            p.spawned.fetch_add(1, Ordering::Relaxed);
            std::thread::Builder::new()
                .name("invnorm-rayon-worker".into())
                .spawn(move || worker_loop(p))
                .expect("failed to spawn pool worker");
        }
    });
}

fn worker_loop(p: &'static Pool) {
    loop {
        let job = {
            let mut queue = p.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = p.available.wait(queue).expect("pool queue poisoned");
            }
        };
        job();
    }
}

fn push_job(p: &Pool, job: Job) {
    p.queue.lock().expect("pool queue poisoned").push_back(job);
    p.available.notify_one();
}

fn try_pop_job(p: &Pool) -> Option<Job> {
    p.queue.lock().expect("pool queue poisoned").pop_front()
}

/// Completion latch shared by one scope and all its spawned tasks.
struct ScopeLatch {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ScopeLatch {
    fn new() -> Self {
        Self {
            pending: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn increment(&self) {
        *self.pending.lock().expect("latch poisoned") += 1;
    }

    fn complete(&self) {
        let mut pending = self.pending.lock().expect("latch poisoned");
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock().expect("latch poisoned");
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Waits for every task, running queued jobs (of any scope) in the
    /// meantime so a saturated pool cannot deadlock on nested scopes.
    fn wait_with_help(&self, p: &'static Pool) {
        loop {
            if *self.pending.lock().expect("latch poisoned") == 0 {
                return;
            }
            if let Some(job) = try_pop_job(p) {
                job();
                continue;
            }
            let pending = self.pending.lock().expect("latch poisoned");
            if *pending == 0 {
                return;
            }
            // Timed wait: a helper that stole our last job completes the
            // latch, but a job may also land on the queue in between — wake
            // up periodically to check for helpable work.
            let _unused = self
                .done
                .wait_timeout(pending, Duration::from_millis(1))
                .expect("latch poisoned");
        }
    }
}

/// A scope in which borrowed-data tasks can be spawned; all tasks complete
/// before [`scope`] returns.
pub struct Scope<'scope, 'env: 'scope> {
    latch: Arc<ScopeLatch>,
    _marker: std::marker::PhantomData<&'scope mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task that may borrow from outside the scope. The task runs
    /// on the persistent pool (or on the scope's own thread while it waits).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let latch = Arc::clone(&self.latch);
        latch.increment();
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                latch.record_panic(payload);
            }
            latch.complete();
        });
        // SAFETY: the closure borrows data for 'scope. `scope` does not
        // return before the latch counts this task as complete, so the
        // borrow outlives every use; erasing the lifetime to queue it on the
        // 'static pool is therefore sound (same argument as rayon's own
        // scope implementation).
        let job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(task) };
        let p = pool();
        ensure_workers(p);
        push_job(p, job);
    }
}

/// Creates a scope for spawning borrowed-data tasks, joining them all before
/// returning the closure's result. Panics in the closure or in spawned tasks
/// propagate after every task has completed.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    let latch = Arc::new(ScopeLatch::new());
    let s = Scope {
        latch: Arc::clone(&latch),
        _marker: std::marker::PhantomData,
    };
    // Run the scope body; even if it panics, every already-spawned task must
    // finish before we unwind (they borrow 'env data).
    let result = catch_unwind(AssertUnwindSafe(|| f(&s)));
    latch.wait_with_help(pool());
    if let Some(payload) = latch.panic.lock().expect("latch poisoned").take() {
        resume_unwind(payload);
    }
    match result {
        Ok(r) => r,
        Err(payload) => resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_joins_all_tasks() {
        let counter = AtomicUsize::new(0);
        let out = scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            42
        });
        assert_eq!(out, 42);
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn scoped_tasks_can_write_disjoint_slots() {
        let mut out = vec![0usize; 16];
        {
            let chunks: Vec<&mut [usize]> = out.chunks_mut(4).collect();
            scope(|s| {
                for (i, chunk) in chunks.into_iter().enumerate() {
                    s.spawn(move || {
                        for (j, slot) in chunk.iter_mut().enumerate() {
                            *slot = i * 4 + j;
                        }
                    });
                }
            });
        }
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn pool_threads_are_reused_across_scopes() {
        // Burn through many scopes; the pool must not spawn more OS threads
        // than its fixed size (the pre-pool shim spawned one per task).
        for round in 0..20 {
            let counter = AtomicUsize::new(0);
            scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(counter.load(Ordering::Relaxed), 4, "round {round}");
        }
        let cap = current_num_threads();
        let spawned = pool().spawned.load(Ordering::Relaxed);
        assert!(
            spawned < cap.max(1),
            "pool spawned {spawned} threads for {cap} hardware threads"
        );
    }

    #[test]
    fn nested_scopes_complete_on_the_fixed_pool() {
        // Outer tasks each open an inner scope — more live scopes than pool
        // threads; help-while-waiting must drain them all.
        let total = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..8 {
                let total = &total;
                s.spawn(move || {
                    scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn task_panics_propagate_after_all_tasks_finish() {
        let finished = Arc::new(AtomicUsize::new(0));
        let finished2 = Arc::clone(&finished);
        let result = catch_unwind(AssertUnwindSafe(move || {
            scope(|s| {
                let finished = &finished2;
                s.spawn(|| panic!("boom"));
                for _ in 0..4 {
                    s.spawn(move || {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err());
        assert_eq!(finished.load(Ordering::Relaxed), 4);
    }
}
