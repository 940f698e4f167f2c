//! The process-wide pool of parked workers behind [`Runtime::scatter`].
//!
//! A scatter publishes one *region*: its jobs, a counter that deals their
//! indices, and a number of free seats (`threads − 1`, or fewer when there
//! are fewer jobs). The caller takes indices from the counter itself; a
//! parked worker that wakes takes a seat and does the same. The caller
//! returns only when the counter is spent, its seats are withdrawn and every
//! worker that sat down has left, so the jobs may borrow from the caller's
//! stack.
//!
//! Nothing waits for a worker that has not sat down: a busy pool, or a job
//! that scatters in turn, leaves the caller to run the jobs alone. So a
//! nested scatter cannot deadlock, and two threads that scatter at once each
//! get at most their own seats.
//!
//! [`Runtime::scatter`]: crate::Runtime::scatter

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// The pool [`Runtime::scatter`](crate::Runtime::scatter) runs on. Its
/// workers are spawned on first use and parked between scatters for the
/// life of the process.
pub(crate) static POOL: Pool = Pool::new();

pub(crate) struct Pool {
    state: Mutex<State>,
    /// Parked workers wait here for a seat.
    work: Condvar,
    /// Callers wait here for their region's workers to leave.
    left: Condvar,
}

struct State {
    /// Published regions with at least one free seat, oldest first.
    open: Vec<Seats>,
    /// Workers spawned so far: the widest `threads − 1` that fanned out.
    spawned: usize,
}

struct Seats {
    region: RegionPtr,
    free: usize,
}

/// A region on its caller's stack. The pointer is only dereferenced while
/// the region is open, or by a worker counted in its `inside`; the caller
/// outlives both under the pool's lock.
#[derive(Clone, Copy, PartialEq, Eq)]
struct RegionPtr(*const Region<'static>);

// SAFETY: a `Region` is `Sync` (its job runner is `Sync`, the rest are
// atomics and a mutex), and the pointer is only followed while the caller
// keeps the region alive (see `RegionPtr`).
unsafe impl Send for RegionPtr {}

struct Region<'a> {
    /// The next job index to deal. `Relaxed`: it publishes nothing; the
    /// jobs were published under the pool's lock before any index is dealt.
    next: AtomicUsize,
    len: usize,
    /// Runs job `i`.
    run: &'a (dyn Fn(usize) + Sync),
    /// Workers currently seated. Changed and read only under the pool's
    /// lock, which orders it (and the jobs' writes before a worker leaves)
    /// with the caller's read, so `Relaxed` suffices.
    inside: AtomicUsize,
    /// The message of the first job that panicked.
    panic: Mutex<Option<String>>,
}

impl Region<'_> {
    /// Takes and runs jobs until the counter is spent. A panicking job is
    /// caught, so every other job still runs.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.run)(i))) {
                let mut first = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
                first.get_or_insert_with(|| panic_message(payload.as_ref()));
            }
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    match (
        payload.downcast_ref::<&str>(),
        payload.downcast_ref::<String>(),
    ) {
        (Some(s), _) => (*s).to_owned(),
        (_, Some(s)) => s.clone(),
        _ => "non-string panic payload".to_owned(),
    }
}

impl Pool {
    pub(crate) const fn new() -> Self {
        Pool {
            state: Mutex::new(State {
                open: Vec::new(),
                spawned: 0,
            }),
            work: Condvar::new(),
            left: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // The lock is never held while a job runs, so no job can poison it.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` once per job on the calling thread and at most
    /// `threads − 1` of the pool's workers, jobs dealt in list order to
    /// whoever is free next. Returns once every job has finished and no
    /// worker can touch them; if a job panicked, panics with
    /// `"runtime worker panicked"` and the first job's message after that.
    pub(crate) fn scatter<J: Send, F: Fn(J) + Sync>(
        &'static self,
        threads: usize,
        jobs: Vec<J>,
        f: F,
    ) {
        let seats = threads.min(jobs.len()).saturating_sub(1);
        if seats == 0 {
            for job in jobs {
                f(job);
            }
            return;
        }
        self.grow(seats);
        // The counter deals each index once, so every slot's lock is taken
        // once, uncontended.
        let slots: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let run = |i: usize| {
            let job = slots[i]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            f(job.expect("each job is dealt once"));
        };
        let region = Region {
            next: AtomicUsize::new(0),
            len: slots.len(),
            run: &run,
            inside: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };
        let ptr = RegionPtr((&region as *const Region<'_>).cast());
        self.lock().open.push(Seats {
            region: ptr,
            free: seats,
        });
        for _ in 0..seats {
            self.work.notify_one();
        }
        region.work();
        let mut state = self.lock();
        state.open.retain(|s| s.region != ptr);
        while region.inside.load(Ordering::Relaxed) > 0 {
            state = self
                .left
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(state);
        if let Some(msg) = region
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            panic!("runtime worker panicked: {msg}");
        }
    }

    /// Spawns workers until the pool has `seats` of them. Workers are
    /// detached on purpose: they serve the pool for the life of the process,
    /// and a job's panic is caught inside `Region::work`, so none ends.
    fn grow(&'static self, seats: usize) {
        let spawn = {
            let mut state = self.lock();
            let spawn = seats.saturating_sub(state.spawned);
            state.spawned += spawn;
            spawn
        };
        for _ in 0..spawn {
            std::thread::Builder::new()
                .name("ft-runtime".into())
                .spawn(move || self.serve())
                .expect("spawn runtime worker");
        }
    }

    /// A worker: parked until a region has a free seat, then runs its jobs.
    fn serve(&self) {
        let mut state = self.lock();
        loop {
            let Some(seats) = state.open.first_mut() else {
                state = self
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            let ptr = seats.region;
            seats.free -= 1;
            if seats.free == 0 {
                state.open.remove(0);
            }
            // SAFETY: the region was open under the lock, and the caller
            // cannot return while this worker is counted in `inside`.
            let region = unsafe { &*ptr.0 };
            region.inside.fetch_add(1, Ordering::Relaxed);
            drop(state);
            region.work();
            state = self.lock();
            if region.inside.fetch_sub(1, Ordering::Relaxed) == 1 {
                self.left.notify_all();
            }
        }
    }

    #[cfg(test)]
    pub(crate) fn spawned(&self) -> usize {
        self.lock().spawned
    }
}
