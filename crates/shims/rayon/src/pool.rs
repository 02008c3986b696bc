//! Persistent worker pool behind every `par_*` entry point.
//!
//! The shim used to spawn scoped OS threads for **each** parallel call
//! (`std::thread::scope` + one spawn per chunk). That cost a
//! clone/spawn/join round trip per `par_iter`, which dominates small
//! batches — exactly the workload the query service coalesces. This
//! module replaces it with one [`ThreadPool`] of long-lived workers plus
//! a process-global registry ([`global_pool`]) sized once from
//! `RAYON_NUM_THREADS` (falling back to the machine's available
//! parallelism), mirroring rayon's global registry.
//!
//! Execution model: a parallel call with `C` chunks runs one chunk
//! inline on the calling thread and enqueues the other `C - 1` as jobs;
//! the caller then *helps* — it keeps taking its own scope's queued jobs
//! while waiting for that scope to finish — so nested parallel calls
//! cannot deadlock and the total number of running chunk bodies never
//! exceeds the pool size (workers + the caller). A caller never runs
//! another scope's job or a [`ThreadPool::spawn`]ed task: those are left
//! to the workers, so a short parallel call cannot end up running, say, a
//! long background rebuild before it returns.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// One lifetime-erased unit of scoped work (see the safety notes on
/// [`ThreadPool::scope`]).
struct Job {
    run: Box<dyn FnOnce() + Send + 'static>,
    scope: Arc<ScopeLatch>,
}

/// Completion latch of one `scope` call: counts outstanding jobs and
/// stores the first worker panic for re-raising on the caller.
struct ScopeLatch {
    remaining: AtomicUsize,
    lock: Mutex<()>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ScopeLatch {
    fn new(jobs: usize) -> Self {
        Self {
            remaining: AtomicUsize::new(jobs),
            lock: Mutex::new(()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    /// Mark one job finished; wake the waiting caller on the last one.
    fn complete(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.lock.lock().expect("latch lock");
            self.done.notify_all();
        }
    }
}

/// Job queue + lifecycle flag shared between the pool handle and its
/// workers.
struct Shared {
    queue: Mutex<QueueInner>,
    job_ready: Condvar,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// Run one job, routing a panic into its scope's slot (first panic
/// wins) so the caller can re-raise it; the latch completes either way.
fn execute(job: Job) {
    let Job { run, scope } = job;
    if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
        let mut slot = scope.panic.lock().expect("panic slot");
        slot.get_or_insert(payload);
    }
    scope.complete();
}

/// A fixed-size pool of persistent worker threads executing scoped
/// jobs. `new(n)` provides `n`-way parallelism: `n - 1` workers plus
/// the thread that calls [`ThreadPool::scope`] (with `n == 1` the pool
/// has no workers and every scope runs inline — the sequential path).
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Build a pool providing `threads`-way parallelism (spawns
    /// `threads - 1` workers; the caller of `scope` is the last lane).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            job_ready: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("panda-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
        }
    }

    /// Parallelism this pool provides (workers + the calling thread).
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Run every task to completion, potentially in parallel on the
    /// pool, and return only once all have finished. The first task
    /// runs inline on the caller; the rest are queued for workers (and
    /// for the caller itself, which helps drain the queue while it
    /// waits). A panic in any task is re-raised here after the whole
    /// scope has completed — no task is ever abandoned mid-borrow.
    pub fn scope<'s>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 's>>) {
        let mut tasks = tasks.into_iter();
        let Some(first) = tasks.next() else {
            return;
        };
        if self.workers.is_empty() {
            // Sequential pool: run everything inline, in order — with
            // the same completion guarantee as the worker path (a panic
            // in one task must not abandon its siblings; the first
            // payload re-raises after all tasks ran).
            let mut first_panic = None;
            for t in std::iter::once(first).chain(tasks) {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(t)) {
                    first_panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = first_panic {
                resume_unwind(payload);
            }
            return;
        }
        let queued = tasks.len();
        if queued == 0 {
            first();
            return;
        }
        let scope = Arc::new(ScopeLatch::new(queued));
        {
            let mut q = self.shared.queue.lock().expect("pool queue");
            for t in tasks {
                // SAFETY: the borrow lifetime 's is erased to 'static so
                // the job can sit in the queue. This function does not
                // return until `wait_scope` observes every queued job
                // complete (executed by a worker or by the helping
                // caller, panics included via `execute`'s catch), so no
                // job outlives the borrows it captures.
                let run: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(t) };
                q.jobs.push_back(Job {
                    run,
                    scope: Arc::clone(&scope),
                });
            }
            self.shared.job_ready.notify_all();
        }
        // One lane of the parallelism is the caller itself.
        let inline_panic = catch_unwind(AssertUnwindSafe(first));
        self.wait_scope(&scope);
        if let Err(payload) = inline_panic {
            resume_unwind(payload);
        }
        let worker_panic = scope.panic.lock().expect("panic slot").take();
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }

    /// Fire-and-forget: enqueue `f` for a worker and return immediately
    /// (mirrors `rayon::spawn`). On a sequential pool (`threads == 1`,
    /// no workers) the task runs **inline** before `spawn` returns —
    /// still correct, just synchronous. A panic in the task is contained
    /// (caught and dropped, like a detached thread); tasks that care
    /// about their own panics must catch them themselves.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        if self.workers.is_empty() {
            let _ = catch_unwind(AssertUnwindSafe(f));
            return;
        }
        // A 1-count latch nobody waits on: `execute` still completes it
        // and routes a panic into its slot, which is simply dropped.
        let scope = Arc::new(ScopeLatch::new(1));
        let mut q = self.shared.queue.lock().expect("pool queue");
        q.jobs.push_back(Job {
            run: Box::new(f),
            scope,
        });
        self.shared.job_ready.notify_all();
    }

    /// Help-then-wait: run this scope's still-queued jobs, then sleep on
    /// the latch until the workers finish the rest. Only jobs of `scope`
    /// are taken, which stays deadlock-free: every scope's caller can run
    /// all of its own queued jobs itself. The latch is re-checked under
    /// the lock `complete` takes before notifying, so no wake-up is lost;
    /// the short timeout is only a backstop.
    fn wait_scope(&self, scope: &Arc<ScopeLatch>) {
        loop {
            if scope.remaining.load(Ordering::Acquire) == 0 {
                return;
            }
            let job = {
                let mut q = self.shared.queue.lock().expect("pool queue");
                let own = q.jobs.iter().position(|j| Arc::ptr_eq(&j.scope, scope));
                own.and_then(|i| q.jobs.remove(i))
            };
            if let Some(job) = job {
                execute(job);
                continue;
            }
            let guard = scope.lock.lock().expect("latch lock");
            if scope.remaining.load(Ordering::Acquire) == 0 {
                return;
            }
            drop(
                scope
                    .done
                    .wait_timeout(guard, Duration::from_millis(1))
                    .expect("latch wait"),
            );
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool queue");
            q.shutdown = true;
            self.shared.job_ready.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool queue");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break Some(job);
                }
                if q.shutdown {
                    break None;
                }
                q = shared.job_ready.wait(q).expect("pool wait");
            }
        };
        match job {
            Some(job) => execute(job),
            None => return,
        }
    }
}

/// `RAYON_NUM_THREADS`, or the machine's available parallelism.
pub(crate) fn configured_num_threads() -> usize {
    match std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-global pool every `par_*` call executes on (mirrors
/// rayon's global registry). Sized once, on first use, from
/// `RAYON_NUM_THREADS`.
pub fn global_pool() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::new(configured_num_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_runs_every_task_exactly_once() {
        let pool = ThreadPool::new(4);
        let counter = AtomicU64::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..64u64)
            .map(|i| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(i + 1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scope(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), (1..=64).sum::<u64>());
    }

    #[test]
    fn scope_on_sequential_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.num_threads(), 1);
        let mut order = Vec::new();
        let cell = std::sync::Mutex::new(&mut order);
        pool.scope(
            (0..4usize)
                .map(|i| {
                    let cell = &cell;
                    Box::new(move || cell.lock().unwrap().push(i)) as Box<dyn FnOnce() + Send + '_>
                })
                .collect(),
        );
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn scoped_borrows_are_visible_after_scope() {
        let pool = ThreadPool::new(3);
        let mut slots = vec![0u64; 16];
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                Box::new(move || *slot = (i as u64) * 10) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scope(tasks);
        assert_eq!(slots, (0..16u64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = Arc::new(ThreadPool::new(2));
        let total = AtomicU64::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4u64)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = &total;
                Box::new(move || {
                    // a task that itself fans out on the same pool
                    let inner: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4u64)
                        .map(|_| {
                            Box::new(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            }) as Box<dyn FnOnce() + Send + '_>
                        })
                        .collect();
                    pool.scope(inner);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scope(tasks);
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn panics_propagate_after_the_scope_completes() {
        let pool = ThreadPool::new(4);
        let ran = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8u64)
                .map(|i| {
                    let ran = &ran;
                    Box::new(move || {
                        if i == 3 {
                            panic!("task 3 exploded");
                        }
                        ran.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.scope(tasks);
        }));
        assert!(result.is_err(), "panic must reach the caller");
        // every non-panicking task still ran — nothing was abandoned
        assert_eq!(ran.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn sequential_pool_panic_still_runs_siblings() {
        // same completion guarantee as the worker path: a panicking
        // task must not abandon the tasks after it
        let pool = ThreadPool::new(1);
        let ran = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4u64)
                .map(|i| {
                    let ran = &ran;
                    Box::new(move || {
                        if i == 1 {
                            panic!("task 1 exploded");
                        }
                        ran.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.scope(tasks);
        }));
        assert!(result.is_err(), "panic must reach the caller");
        assert_eq!(ran.load(Ordering::Relaxed), 3, "siblings all ran");
    }

    #[test]
    fn spawn_runs_detached_tasks() {
        let pool = ThreadPool::new(3);
        let done = Arc::new(AtomicU64::new(0));
        for i in 0..16u64 {
            let done = Arc::clone(&done);
            pool.spawn(move || {
                done.fetch_add(i + 1, Ordering::SeqCst);
            });
        }
        let t0 = std::time::Instant::now();
        while done.load(Ordering::SeqCst) != (1..=16).sum::<u64>() {
            assert!(t0.elapsed() < Duration::from_secs(5), "spawned tasks lost");
            std::thread::yield_now();
        }
    }

    #[test]
    fn waiting_caller_leaves_spawned_tasks_to_the_workers() {
        // The only worker is held, so a task spawned now stays queued, in
        // front of the scope's second job. The caller must run its own job
        // past it and return without ever running the spawned task.
        let pool = ThreadPool::new(2);
        let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        pool.spawn(move || {
            held_tx.send(()).unwrap();
            let _ = release_rx.recv();
        });
        held_rx.recv().unwrap();
        let (ran_tx, ran_rx) = std::sync::mpsc::channel();
        pool.spawn(move || ran_tx.send(std::thread::current().id()).unwrap());
        let caller = std::thread::current().id();
        let lanes = std::sync::Mutex::new(Vec::new());
        pool.scope(
            (0..2)
                .map(|_| {
                    let lanes = &lanes;
                    Box::new(move || lanes.lock().unwrap().push(std::thread::current().id()))
                        as Box<dyn FnOnce() + Send + '_>
                })
                .collect(),
        );
        assert_eq!(lanes.into_inner().unwrap(), vec![caller, caller]);
        assert!(ran_rx.try_recv().is_err(), "spawned task ran on the caller");
        release_tx.send(()).unwrap();
        let ran_on = ran_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_ne!(ran_on, caller);
    }

    #[test]
    fn spawn_on_sequential_pool_runs_inline_and_contains_panics() {
        let pool = ThreadPool::new(1);
        let done = Arc::new(AtomicU64::new(0));
        {
            let done = Arc::clone(&done);
            pool.spawn(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        // inline execution: visible immediately, no waiting needed
        assert_eq!(done.load(Ordering::SeqCst), 1);
        pool.spawn(|| panic!("detached panic must not reach the caller"));
        assert_eq!(done.load(Ordering::SeqCst), 1, "pool still alive");
    }

    #[test]
    fn spawn_panic_does_not_kill_workers() {
        let pool = ThreadPool::new(2);
        pool.spawn(|| panic!("boom"));
        let done = Arc::new(AtomicU64::new(0));
        {
            let done = Arc::clone(&done);
            pool.spawn(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        let t0 = std::time::Instant::now();
        while done.load(Ordering::SeqCst) != 1 {
            assert!(t0.elapsed() < Duration::from_secs(5), "worker died");
            std::thread::yield_now();
        }
    }

    #[test]
    fn global_pool_is_initialized_once() {
        let a = global_pool() as *const ThreadPool;
        let b = global_pool() as *const ThreadPool;
        assert_eq!(a, b);
        assert!(global_pool().num_threads() >= 1);
    }
}
