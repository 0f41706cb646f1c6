//! Deterministic scoped fan-out for the hot loops — std-only, no unsafe.
//!
//! Every parallel region in the repository goes through [`Pool`]: row-blocked
//! matmul kernels, per-task MAML inner loops, per-user evaluation scoring and
//! serve-side batch scoring. The design goals, in order:
//!
//! 1. **Bit-identical results at any thread count.** The pool only ever
//!    *partitions* independent work ([`Pool::partition`] yields contiguous
//!    index ranges) and hands results back **in task order**
//!    ([`Pool::map_tasks`], [`Team::map`]); it never reduces across tasks
//!    itself. As long as the per-task computation is independent and the
//!    caller folds results in task order, the floating-point operation order
//!    — and therefore every bit of the output — is identical to the serial
//!    code path.
//! 2. **`METADPA_THREADS=1` is the exact serial code path.** With one thread
//!    (or one task) no thread is spawned, no lock is contended, and the
//!    tasks run in index order on the calling thread.
//! 3. **Zero dependencies, zero unsafe.** Workers are scoped threads
//!    ([`std::thread::scope`]), so borrowed inputs cross into workers without
//!    `Arc` or unsafe. Every region runs on a [`Pool::team`], whose workers
//!    live for one call: a one-off region ([`Pool::map_tasks`],
//!    [`Pool::run_parts`]) is a one-region team, while a loop of many short
//!    regions opens one team and keeps its workers alive across regions,
//!    idling in a bounded spin, then a condition-variable wait, between
//!    them.
//!
//! Sizing: the global default comes from `METADPA_THREADS` (read once;
//! invalid or unset falls back to [`std::thread::available_parallelism`]).
//! [`with_threads`] overrides it for the current thread only, which is what
//! the determinism tests use to compare thread counts inside one process.
//! Pool workers run with an implicit `with_threads(1)` so nested parallel
//! regions (a matmul inside a parallel MAML task) never oversubscribe.
//!
//! Observability: each multi-threaded region bumps `pool.tasks` by the number
//! of tasks dispatched and `pool.steal` by the number of tasks that ran on a
//! spawned worker rather than the dispatching thread (tasks self-schedule off
//! a shared cursor, so a slow task shifts its neighbours to other threads).
//! Workers inherit the dispatching thread's span path via
//! [`metadpa_obs::span::inherit_root`], so spans opened inside tasks stay
//! nested under the dispatching span instead of forming detached roots.

use std::any::Any;
use std::cell::Cell;
use std::ops::{DerefMut, Range};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

thread_local! {
    /// Per-thread override installed by [`with_threads`]; 0 = no override.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// The process-wide default thread count: `METADPA_THREADS` when set to a
/// positive integer, otherwise the machine's available parallelism.
fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        match std::env::var("METADPA_THREADS").ok().and_then(|s| s.trim().parse::<usize>().ok()) {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        }
    })
}

/// The thread count parallel regions opened on this thread will use:
/// the innermost [`with_threads`] override, else the `METADPA_THREADS`
/// default.
pub fn current_threads() -> usize {
    let o = THREAD_OVERRIDE.with(Cell::get);
    if o > 0 {
        o
    } else {
        env_threads()
    }
}

/// Runs `f` with the thread count for this thread pinned to `threads`,
/// restoring the previous value afterwards (also on panic). `1` forces the
/// exact serial code path; the determinism suite uses this to compare
/// thread counts without touching the process environment.
///
/// # Panics
/// Panics if `threads == 0`.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads >= 1, "pool::with_threads: thread count must be >= 1");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|c| {
        let prev = c.get();
        c.set(threads);
        prev
    });
    let _restore = Restore(prev);
    f()
}

/// A sized handle over the scoped fan-out primitives. Cheap to construct —
/// it is just a thread count; workers live only for the duration of each
/// [`Pool::map_tasks`], [`Pool::run_parts`] or [`Pool::team`] call.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool sized by [`current_threads`].
    pub fn current() -> Self {
        Self { threads: current_threads() }
    }

    /// A pool with an explicit size (>= 1 enforced by clamping).
    pub fn with_size(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// The number of threads parallel regions will use (including the
    /// dispatching thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `0..n_items` into at most `threads` contiguous ranges of
    /// near-equal length, in index order. The partition only controls which
    /// thread computes which block — per-item results never depend on it.
    pub fn partition(&self, n_items: usize) -> Vec<Range<usize>> {
        if n_items == 0 {
            return Vec::new();
        }
        let chunks = self.threads.min(n_items);
        let base = n_items / chunks;
        let extra = n_items % chunks;
        let mut ranges = Vec::with_capacity(chunks);
        let mut start = 0;
        for c in 0..chunks {
            let len = base + usize::from(c < extra);
            ranges.push(start..start + len);
            start += len;
        }
        ranges
    }

    /// Runs `f(0), f(1), ..., f(n_tasks - 1)` and returns the results in
    /// task order: a one-region [`Pool::team`] of at most `n_tasks` threads.
    /// With one thread (or one task) this is a plain in-order serial loop on
    /// the calling thread; otherwise tasks self-schedule off a shared cursor
    /// across the calling thread and the team's workers. Results land in
    /// per-task slots, so the return order — and any caller-side fold over
    /// it — is independent of thread scheduling.
    pub fn map_tasks<R: Send>(&self, n_tasks: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        Pool::with_size(self.threads.min(n_tasks)).team(
            (),
            || (),
            |_, _, i| f(i),
            |team| team.map(n_tasks),
        )
    }

    /// Runs `body` with a [`Team`]: `threads - 1` scoped workers that live
    /// for the whole call and join every parallel region `body` opens with
    /// [`Team::map`], instead of one spawn per region. This is the primitive
    /// for loops that open many short regions in a row (one per MAML
    /// meta-batch), where spawning and joining per region would cost more
    /// than the region's work.
    ///
    /// * `task(member, input, i)` computes task `i` of a region. Each thread
    ///   owns one `member` value, built by `member()` on that thread the
    ///   first time it runs a task and reused for every later task — the
    ///   place for per-thread scratch (a model replica, buffers).
    /// * `input` is shared read-only with every task of a region; `body`
    ///   replaces it between regions through [`Team::input_mut`].
    ///
    /// The contracts of [`Pool::map_tasks`] carry over: results come back in
    /// task order, one thread spawns nothing, workers run with nested
    /// parallelism off and inherit the dispatching thread's span path,
    /// request ID and SIMD policy per region, and a panicking task
    /// resurfaces on the calling thread. Idle workers spin for a bounded
    /// time, then block, so a team never burns a core while `body` is busy
    /// elsewhere for long. The workers exit when `body` returns or unwinds.
    pub fn team<S, I, R, T>(
        &self,
        input: I,
        member: impl Fn() -> S + Sync,
        task: impl Fn(&mut S, &I, usize) -> R + Sync,
        body: impl FnOnce(&mut Team<'_, S, I, R>) -> T,
    ) -> T
    where
        I: Send + Sync,
        R: Send,
    {
        let shared = Shared::new(input);
        let member: &(dyn Fn() -> S + Sync) = &member;
        let task: &(dyn Fn(&mut S, &I, usize) -> R + Sync) = &task;
        std::thread::scope(|scope| {
            // Armed before the first spawn, so workers are told to exit
            // however `body` (or a failed spawn) leaves this scope.
            let _dismiss = Dismiss(&shared);
            for w in 1..self.threads {
                let shared = &shared;
                std::thread::Builder::new()
                    .name(format!("metadpa-pool-{w}"))
                    .spawn_scoped(scope, move || shared.work(member, task))
                    .expect("pool: failed to spawn scoped worker");
            }
            body(&mut Team { shared: &shared, member, task, own: None, workers: self.threads - 1 })
        })
    }

    /// Runs `f` once per payload, each payload consumed by whichever team
    /// thread claims it. This is the primitive for work whose payloads
    /// *own* mutable state — the matmul kernels split the output buffer
    /// into disjoint `&mut` row slices and hand one to each task, so tiles
    /// are written in place with no private buffers or copies.
    /// [`Pool::partition`] produces one payload per thread. Like every pool
    /// primitive, tasks run with nested parallelism disabled and inherit
    /// the dispatching span.
    pub fn run_parts<T: Send>(&self, parts: Vec<T>, f: impl Fn(T) + Sync) {
        let n = parts.len();
        let parts: Vec<Mutex<Option<T>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
        Pool::with_size(self.threads.min(n)).team(
            parts,
            || (),
            |_, parts, i| {
                let part = lock(&parts[i]).take().expect("pool: every part is claimed once");
                with_threads(1, || f(part));
            },
            |team| team.map(n),
        );
    }
}

/// How long an idle thread busy-waits before it blocks: a worker waiting
/// for the next region, or a dispatcher waiting for its workers' last
/// tasks. It covers the serial step between two MAML meta-batches
/// (~0.1 ms), so back-to-back regions never pay a wake-up, yet a team whose
/// caller is busy elsewhere for longer sleeps instead of burning a core.
const SPIN: Duration = Duration::from_micros(200);

/// Busy-waits until `ready()` holds or [`SPIN`] runs out, yielding the CPU
/// every few dozen polls so spinners on an oversubscribed host let the
/// threads with work run. Returns the last `ready()`.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + SPIN;
    loop {
        for _ in 0..64 {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
        if Instant::now() >= deadline {
            return ready();
        }
        std::thread::yield_now();
    }
}

/// Locks `m`, ignoring poison: every value behind the team's mutexes is
/// valid at any point a panic could interrupt, and a panicking task must
/// reach the caller rather than cascade into lock failures.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The dispatching thread's context, handed to the workers per region.
#[derive(Clone)]
struct RegionScope {
    n_tasks: usize,
    parent: Option<String>,
    request: Option<u64>,
    simd: crate::simd::Policy,
}

/// Region bookkeeping guarded by [`Shared::control`].
struct Control {
    /// Number of the latest region (wraps; compared for equality only).
    region: u32,
    scope: RegionScope,
    shutdown: bool,
    /// Workers blocked on [`Shared::wake`].
    sleepers: usize,
    /// Whether the dispatcher is blocked on [`Shared::idle`].
    waiting: bool,
}

/// Everything a team's threads share; it lives in [`Pool::team`]'s frame,
/// outside the thread scope, so workers borrow it for their whole life.
struct Shared<I, R> {
    input: RwLock<I>,
    control: Mutex<Control>,
    /// Workers sleep here between regions.
    wake: Condvar,
    /// The dispatcher sleeps here until the region's last task is done.
    idle: Condvar,
    /// The latest region number and the shutdown flag, readable without
    /// the lock so idle workers can spin on them. Hints only: a worker
    /// reads the region itself under `control`.
    posted: AtomicU32,
    closed: AtomicBool,
    /// `region << 32 | next task`: a claim only succeeds for the region the
    /// claimer joined, so a worker that wakes late can never take a task
    /// of the next region with the previous one's bounds. Relaxed: a claim
    /// publishes no data (the region comes from `control`, the input from
    /// its lock, results go through `results`).
    claim: AtomicU64,
    /// Tasks of the current region not finished yet. Each task's decrement
    /// (AcqRel) follows its result store and pairs with the dispatcher's
    /// Acquire load that sees zero.
    remaining: AtomicUsize,
    /// Tasks of the current region that ran on a worker.
    stolen: AtomicUsize,
    results: Mutex<Vec<Option<R>>>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<I, R> Shared<I, R> {
    fn new(input: I) -> Self {
        Self {
            input: RwLock::new(input),
            control: Mutex::new(Control {
                region: 0,
                scope: RegionScope {
                    n_tasks: 0,
                    parent: None,
                    request: None,
                    simd: crate::simd::current_policy(),
                },
                shutdown: false,
                sleepers: 0,
                waiting: false,
            }),
            wake: Condvar::new(),
            idle: Condvar::new(),
            posted: AtomicU32::new(0),
            closed: AtomicBool::new(false),
            claim: AtomicU64::new(0),
            remaining: AtomicUsize::new(0),
            stolen: AtomicUsize::new(0),
            results: Mutex::new(Vec::new()),
            panic: Mutex::new(None),
        }
    }

    fn read_input(&self) -> RwLockReadGuard<'_, I> {
        self.input.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims the next task of `region`, or `None` once it has none left
    /// (or has been superseded).
    fn claim(&self, region: u32, n_tasks: usize) -> Option<usize> {
        let mut cur = self.claim.load(Ordering::Relaxed);
        loop {
            let next = (cur & u64::from(u32::MAX)) as usize;
            if (cur >> 32) as u32 != region || next >= n_tasks {
                return None;
            }
            match self.claim.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(next),
                Err(now) => cur = now,
            }
        }
    }

    /// Runs claimed task `i`, stores its result and wakes the dispatcher
    /// if a worker finished the region's last task. A panic is caught and
    /// kept for the dispatcher to resume once the region has drained, so
    /// the region's bookkeeping stays whole whichever thread panicked.
    /// Returns whether the task completed.
    fn run(&self, i: usize, on_worker: bool, task: impl FnOnce() -> R) -> bool {
        let result = match catch_unwind(AssertUnwindSafe(task)) {
            Ok(r) => Some(r),
            Err(payload) => {
                lock(&self.panic).get_or_insert(payload);
                None
            }
        };
        let completed = result.is_some();
        lock(&self.results)[i] = result;
        if on_worker {
            self.stolen.fetch_add(1, Ordering::Relaxed);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 && on_worker {
            let ctl = lock(&self.control);
            if ctl.waiting {
                self.idle.notify_all();
            }
        }
        completed
    }

    /// Blocks until a region newer than `seen` is posted; `None` once the
    /// team is dismissed.
    fn next_region(&self, seen: u32) -> Option<(u32, RegionScope)> {
        spin_until(|| {
            self.posted.load(Ordering::Acquire) != seen || self.closed.load(Ordering::Acquire)
        });
        let mut ctl = lock(&self.control);
        while ctl.region == seen && !ctl.shutdown {
            ctl.sleepers += 1;
            ctl = self.wake.wait(ctl).unwrap_or_else(PoisonError::into_inner);
            ctl.sleepers -= 1;
        }
        (!ctl.shutdown).then(|| (ctl.region, ctl.scope.clone()))
    }

    /// A worker's life: join each region, run tasks off the shared cursor
    /// on this thread's member, repeat until dismissed.
    fn work<S>(&self, member: &dyn Fn() -> S, task: &dyn Fn(&mut S, &I, usize) -> R) {
        // Workers must not recursively fan out: a matmul inside a parallel
        // MAML task runs serially on its worker.
        with_threads(1, || {
            let mut own: Option<S> = None;
            let mut seen = 0;
            while let Some((region, scope)) = self.next_region(seen) {
                seen = region;
                let _root = metadpa_obs::span::inherit_root(scope.parent);
                let _req = metadpa_obs::span::enter_request(scope.request);
                crate::simd::with_policy(scope.simd, || {
                    let input = self.read_input();
                    while let Some(i) = self.claim(region, scope.n_tasks) {
                        if !self.run(i, true, || task(own.get_or_insert_with(member), &input, i)) {
                            // The member may be half-updated; rebuild it.
                            own = None;
                        }
                    }
                });
            }
        });
    }
}

/// Dismisses a team's workers when [`Pool::team`]'s scope ends, normally
/// or by unwinding, so the scope's join never waits on a sleeping worker.
struct Dismiss<'a, I, R>(&'a Shared<I, R>);

impl<I, R> Drop for Dismiss<'_, I, R> {
    fn drop(&mut self) {
        let mut ctl = lock(&self.0.control);
        ctl.shutdown = true;
        self.0.closed.store(true, Ordering::Release);
        self.0.wake.notify_all();
    }
}

/// The dispatcher's handle on a [`Pool::team`]; see there.
pub struct Team<'t, S, I, R> {
    shared: &'t Shared<I, R>,
    member: &'t (dyn Fn() -> S + Sync),
    task: &'t (dyn Fn(&mut S, &I, usize) -> R + Sync),
    /// The dispatching thread's own member.
    own: Option<S>,
    workers: usize,
}

impl<S, I, R> Team<'_, S, I, R> {
    /// The shared input, for `body` to replace between regions.
    pub fn input_mut(&mut self) -> impl DerefMut<Target = I> + '_ {
        self.shared.input.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs tasks `0..n_tasks` against the current input and returns their
    /// results in task order. With no workers (or one task) this is an
    /// in-order loop on the calling thread; otherwise the calling thread
    /// and every worker claim tasks off a shared cursor, and the call
    /// returns once all are done. Counts `pool.tasks` and `pool.steal` like
    /// [`Pool::map_tasks`].
    ///
    /// # Panics
    /// Resumes the panic of any task, after the region has drained.
    pub fn map(&mut self, n_tasks: usize) -> Vec<R> {
        if n_tasks == 0 {
            return Vec::new();
        }
        let Self { shared, member, task, own, workers } = self;
        let own = own.get_or_insert_with(member);
        if *workers == 0 || n_tasks <= 1 {
            let input = shared.read_input();
            return (0..n_tasks).map(|i| task(own, &input, i)).collect();
        }
        assert!(n_tasks <= u32::MAX as usize, "Team::map: too many tasks for one region");
        metadpa_obs::counter_add!("pool.tasks", n_tasks as u64);
        let scope = RegionScope {
            n_tasks,
            parent: metadpa_obs::span::current_path(),
            request: metadpa_obs::span::current_request(),
            simd: crate::simd::current_policy(),
        };
        let region = {
            let mut ctl = lock(&shared.control);
            let region = ctl.region.wrapping_add(1);
            ctl.region = region;
            ctl.scope = scope;
            let mut results = lock(&shared.results);
            results.clear();
            results.resize_with(n_tasks, || None);
            drop(results);
            shared.remaining.store(n_tasks, Ordering::Relaxed);
            shared.stolen.store(0, Ordering::Relaxed);
            shared.claim.store(u64::from(region) << 32, Ordering::Relaxed);
            shared.posted.store(region, Ordering::Release);
            if ctl.sleepers > 0 {
                shared.wake.notify_all();
            }
            region
        };
        {
            let input = shared.read_input();
            with_threads(1, || {
                while let Some(i) = shared.claim(region, n_tasks) {
                    shared.run(i, false, || task(own, &input, i));
                }
            });
        }
        let drained = || shared.remaining.load(Ordering::Acquire) == 0;
        if !spin_until(drained) {
            let mut ctl = lock(&shared.control);
            ctl.waiting = true;
            while !drained() {
                ctl = shared.idle.wait(ctl).unwrap_or_else(PoisonError::into_inner);
            }
            ctl.waiting = false;
        }
        metadpa_obs::counter_add!("pool.steal", shared.stolen.load(Ordering::Relaxed) as u64);
        if let Some(payload) = lock(&shared.panic).take() {
            resume_unwind(payload);
        }
        lock(&shared.results)
            .drain(..)
            .map(|r| r.expect("pool: every task index is claimed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_indices_in_order() {
        let pool = Pool::with_size(3);
        let ranges = pool.partition(10);
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        assert_eq!(Pool::with_size(4).partition(2).len(), 2, "never more chunks than items");
        assert!(Pool::with_size(4).partition(0).is_empty());
        assert_eq!(Pool::with_size(1).partition(5), vec![0..5]);
    }

    #[test]
    fn map_tasks_returns_results_in_task_order() {
        for threads in [1, 2, 7] {
            let pool = Pool::with_size(threads);
            let out = pool.map_tasks(23, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let ambient = current_threads();
        let seen = with_threads(5, current_threads);
        assert_eq!(seen, 5);
        assert_eq!(current_threads(), ambient);
        // Nested overrides restore in LIFO order.
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(2, || assert_eq!(current_threads(), 2));
            assert_eq!(current_threads(), 3);
        });
    }

    #[test]
    fn workers_do_not_nest_parallelism() {
        let pool = Pool::with_size(4);
        let inner_counts = pool.map_tasks(8, |_| current_threads());
        assert!(
            inner_counts.iter().all(|&c| c == 1),
            "tasks must observe a serial pool: {inner_counts:?}"
        );
    }

    #[test]
    fn map_tasks_handles_empty_and_single() {
        let pool = Pool::with_size(4);
        assert!(pool.map_tasks(0, |i| i).is_empty());
        assert_eq!(pool.map_tasks(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn run_parts_writes_disjoint_slices_in_place() {
        for threads in [1, 2, 7] {
            let pool = Pool::with_size(threads);
            let mut out = vec![0usize; 17];
            let ranges = pool.partition(17);
            let mut parts: Vec<(Range<usize>, &mut [usize])> = Vec::new();
            let mut rest = out.as_mut_slice();
            for r in ranges {
                let (head, tail) = rest.split_at_mut(r.len());
                parts.push((r, head));
                rest = tail;
            }
            pool.run_parts(parts, |(range, slice)| {
                for (s, i) in slice.iter_mut().zip(range) {
                    *s = i * i;
                }
            });
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn run_parts_tasks_observe_serial_pool() {
        let pool = Pool::with_size(4);
        let counts = Mutex::new(Vec::new());
        pool.run_parts(vec![(), (), (), ()], |()| {
            counts.lock().unwrap().push(current_threads());
        });
        let counts = counts.into_inner().unwrap();
        assert_eq!(counts.len(), 4);
        assert!(counts.iter().all(|&c| c == 1), "nested parallelism must be off: {counts:?}");
    }
}
