//! A persistent scoped worker pool.
//!
//! Spawning fresh `std::thread::scope` workers for every BFS layer would
//! pay thread-spawn latency per layer — ruinous for a synthesis loop
//! dispatching thousands of candidate evaluations, and a measurable tax
//! even on a single verification with hundreds of layers. Instead, the
//! parallel engine ([`super::parallel`]) of each multi-threaded
//! [`super::CheckSession`] lazily creates one [`WorkerPool`] and keeps its
//! threads parked between batches — across layers and, for a held session,
//! across checks — so a layer expansion costs one condvar wake instead of a
//! spawn.
//!
//! The pool accepts **borrowing** jobs (closures over `&'scope` data) even
//! though its threads are `'static`: [`WorkerPool::run_batch`] does not
//! return until every job of the batch has finished executing, which is the
//! same structural guarantee `std::thread::scope` gives — no job can
//! observe its borrows after `run_batch` returns. The lifetime erasure this
//! requires is confined to one documented `unsafe` block.
//!
//! The calling thread participates in its own batch (a pool of `n` workers
//! serves batches with `n + 1`-way parallelism), and a panicking job poisons
//! nothing: the batch still runs to completion — the soundness of the borrow
//! erasure depends on it — and the first panic payload is re-raised on the
//! caller once the batch is done.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;

/// A job with its borrows erased; see the module docs for why this is sound.
type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct PoolState {
    queue: VecDeque<Job>,
    /// Jobs of the current batch not yet *finished* (queued or running).
    remaining: usize,
    /// First panic payload raised by a job of the current batch.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signaled when jobs are queued (or on shutdown).
    work: Condvar,
    /// Signaled when the last job of a batch finishes.
    done: Condvar,
}

/// A fixed-size pool of persistent worker threads executing borrowed jobs
/// in barrier-synchronized batches (the caller participates; a batch runs
/// to completion before `run_batch` returns, which is what makes borrowed
/// jobs sound — see the module source for the full discipline).
pub(crate) struct WorkerPool {
    shared: std::sync::Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` parked threads.
    pub fn new(workers: usize) -> Self {
        let shared = std::sync::Arc::new(PoolShared {
            state: Mutex::new(PoolState::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of pool threads (excluding the caller, which also works each
    /// batch).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs every job of the batch to completion, on the pool threads and
    /// the calling thread, then returns. If any job panicked, the first
    /// panic is resumed on the caller after the whole batch has finished.
    pub fn run_batch<'scope>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if jobs.is_empty() {
            return;
        }
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            state.remaining += jobs.len();
            for job in jobs {
                // SAFETY: this function does not return until `remaining`
                // drops to zero, i.e. until every queued job has finished
                // executing — so the `'scope` borrows captured by the job
                // strictly outlive its execution, which is all the erased
                // lifetime is used for.
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
                state.queue.push_back(job);
            }
            self.shared.work.notify_all();
        }

        // The caller works the batch too (and on a machine with fewer cores
        // than workers, may well drain most of it).
        loop {
            let job = {
                let mut state = self.shared.state.lock().expect("pool lock");
                match state.queue.pop_front() {
                    Some(job) => job,
                    None => break,
                }
            };
            run_one(&self.shared, job);
        }

        let mut state = self.shared.state.lock().expect("pool lock");
        while state.remaining > 0 {
            state = self.shared.done.wait(state).expect("pool lock");
        }
        if let Some(panic) = state.panic.take() {
            drop(state);
            std::panic::resume_unwind(panic);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Executes one job, recording (not propagating) a panic, and signals batch
/// completion if it was the last outstanding job.
fn run_one(shared: &PoolShared, job: Job) {
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        crate::faults::probe_panic(crate::faults::site::POOL_JOB);
        job();
    }));
    let mut state = shared.state.lock().expect("pool lock");
    if let Err(panic) = result {
        state.panic.get_or_insert(panic);
    }
    state.remaining -= 1;
    if state.remaining == 0 {
        shared.done.notify_all();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool lock");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.work.wait(state).expect("pool lock");
            }
        };
        run_one(shared, job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn batch_runs_every_job_against_borrowed_data() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        let inputs: Vec<usize> = (0..64).collect();
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = inputs
            .iter()
            .map(|&i| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(i, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_batch(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 64 * 63 / 2);
    }

    #[test]
    fn batches_reuse_the_same_threads() {
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        for _ in 0..50 {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|_| {
                    let hits = &hits;
                    Box::new(move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_batch(jobs);
        }
        assert_eq!(hits.load(Ordering::Relaxed), 200);
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn results_can_be_written_through_per_job_slots() {
        let pool = WorkerPool::new(2);
        let slots: Vec<parking_lot::Mutex<Option<usize>>> =
            (0..16).map(|_| parking_lot::Mutex::new(None)).collect();
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                Box::new(move || {
                    *slot.lock() = Some(i * i);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_batch(jobs);
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(*slot.lock(), Some(i * i));
        }
    }

    #[test]
    fn panic_is_propagated_after_the_batch_completes() {
        let pool = WorkerPool::new(2);
        let finished = AtomicUsize::new(0);
        let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        jobs.push(Box::new(|| panic!("job exploded")));
        for _ in 0..8 {
            let finished = &finished;
            jobs.push(Box::new(move || {
                finished.fetch_add(1, Ordering::Relaxed);
            }));
        }
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run_batch(jobs)));
        assert!(caught.is_err(), "panic must reach the caller");
        assert_eq!(
            finished.load(Ordering::Relaxed),
            8,
            "non-panicking jobs of the batch still ran to completion"
        );
        // The pool survives a panicked batch.
        let ok = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| {
            ok.fetch_add(1, Ordering::Relaxed);
        })];
        pool.run_batch(jobs);
        assert_eq!(ok.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pool = WorkerPool::new(1);
        pool.run_batch(Vec::new());
    }
}
