//! The [`Pool::team`] contract: a team of scoped workers that lives across
//! many parallel regions must behave like a fresh [`Pool::map_tasks`] per
//! region — results in task order, panics surfaced to the caller, the same
//! `pool.*` counters, and workers that inherit the dispatcher's context —
//! and its workers must be gone when the call returns.
//!
//! Every test takes the observability test lock: the counter test enables
//! the global recorder, and no other pool user may run while it reads the
//! process-wide counters.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use metadpa_obs::span;
use metadpa_tensor::pool::{current_threads, with_threads, Pool};
use metadpa_tensor::simd::{self, Policy};

/// Thread counts every test covers: the serial path, this repository's
/// usual two, and more threads than a small host has cores.
const THREADS: [usize; 3] = [1, 2, 7];

fn on_worker() -> bool {
    std::thread::current().name().is_some_and(|n| n.starts_with("metadpa-pool-"))
}

#[test]
fn results_come_back_in_task_order_across_regions() {
    let _g = metadpa_obs::test_lock();
    for threads in THREADS {
        let out = Pool::with_size(threads).team(
            0usize,
            Vec::<usize>::new,
            |seen: &mut Vec<usize>, offset: &usize, i| {
                seen.push(i);
                offset + i * i
            },
            |team| {
                let mut all = Vec::new();
                for (region, n) in [5usize, 0, 1, 23, 8, 2].into_iter().enumerate() {
                    *team.input_mut() = 1000 * region;
                    let got = team.map(n);
                    let want: Vec<usize> = (0..n).map(|i| 1000 * region + i * i).collect();
                    assert_eq!(got, want, "threads={threads} region={region}");
                    all.extend(got);
                }
                all
            },
        );
        assert_eq!(out.len(), 5 + 1 + 23 + 8 + 2, "threads={threads}");
    }
}

#[test]
fn a_panicking_task_reaches_the_caller_and_the_team_stays_usable() {
    let _g = metadpa_obs::test_lock();
    for threads in THREADS {
        // Task 13 panics wherever it runs.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            Pool::with_size(threads).team(
                (),
                || (),
                |_, _, i| {
                    assert_ne!(i, 13, "task 13 fails");
                    i
                },
                |team| team.map(20),
            )
        }));
        let payload = caught.expect_err("the task panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("task 13 fails"), "threads={threads}: payload {msg:?}");

        // A panic on a worker: the caller's tasks wait until a worker has
        // claimed one. The region drains, the caller sees the panic, and a
        // later region on the same team runs normally.
        let worker_ran = AtomicBool::new(false);
        let after = Pool::with_size(threads).team(
            (),
            || (),
            |_, _, i| {
                if on_worker() {
                    worker_ran.store(true, Ordering::SeqCst);
                    panic!("worker task {i} fails");
                }
                while threads > 1 && !worker_ran.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                i
            },
            |team| {
                let first = catch_unwind(AssertUnwindSafe(|| team.map(12)));
                assert_eq!(first.is_err(), threads > 1, "threads={threads}");
                team.map(1)
            },
        );
        assert_eq!(after, vec![0], "threads={threads}");
    }
}

#[test]
fn workers_exit_when_the_team_scope_ends() {
    let _g = metadpa_obs::test_lock();
    struct Member(Arc<AtomicUsize>);
    impl Drop for Member {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    for threads in THREADS {
        let built = AtomicUsize::new(0);
        let dropped = Arc::new(AtomicUsize::new(0));
        let names = Mutex::new(Vec::new());
        Pool::with_size(threads).team(
            (),
            || {
                built.fetch_add(1, Ordering::SeqCst);
                Member(dropped.clone())
            },
            |_, _, _| {
                names.lock().unwrap().push(std::thread::current().name().map(str::to_string));
            },
            |team| {
                for _ in 0..4 {
                    team.map(3 * threads);
                }
            },
        );
        // Scoped workers are joined before `team` returns, and each one
        // dropped the member it built on its way out.
        let built = built.load(Ordering::SeqCst);
        assert!((1..=threads).contains(&built), "threads={threads}: {built} members");
        assert_eq!(dropped.load(Ordering::SeqCst), built, "threads={threads}");
        let names = names.into_inner().unwrap();
        assert_eq!(names.len(), 4 * 3 * threads);
        if threads == 1 {
            assert!(names.iter().all(|n| n.as_deref() != Some("metadpa-pool-1")), "no spawn");
        }
    }
}

#[test]
fn pool_counters_match_map_tasks() {
    let _g = metadpa_obs::test_lock();
    metadpa_obs::enable(Arc::new(metadpa_obs::MemoryRecorder::default()));
    let counters = || ["pool.tasks", "pool.steal"].map(|c| metadpa_obs::metrics::counter(c).get());
    let delta = |before: [u64; 2]| {
        let now = counters();
        [now[0] - before[0], now[1] - before[1]]
    };
    let sizes = [6usize, 1, 0, 9];
    for threads in THREADS {
        // Through a team: one region per size.
        let on_workers = AtomicUsize::new(0);
        let task = |i: usize| {
            if on_worker() {
                on_workers.fetch_add(1, Ordering::SeqCst);
            }
            i
        };
        let before = counters();
        Pool::with_size(threads).team(
            (),
            || (),
            |_, _, i| task(i),
            |team| {
                for n in sizes {
                    team.map(n);
                }
            },
        );
        let team_delta = delta(before);
        let team_stolen = on_workers.swap(0, Ordering::SeqCst) as u64;

        // Through map_tasks: one call per size.
        let before = counters();
        for n in sizes {
            Pool::with_size(threads).map_tasks(n, task);
        }
        let map_delta = delta(before);
        let map_stolen = on_workers.load(Ordering::SeqCst) as u64;

        // Regions of one task (or none) run serially and count nothing.
        let parallel = if threads > 1 { 6 + 9 } else { 0 };
        assert_eq!(team_delta, [parallel, team_stolen], "team, threads={threads}");
        assert_eq!(map_delta, [parallel, map_stolen], "map_tasks, threads={threads}");
    }
    metadpa_obs::disable();
}

#[test]
fn workers_inherit_thread_count_simd_policy_span_and_request() {
    let _g = metadpa_obs::test_lock();
    metadpa_obs::enable(Arc::new(metadpa_obs::MemoryRecorder::default()));
    for threads in THREADS {
        let seen = Mutex::new(Vec::new());
        let _outer = metadpa_obs::span!("team_test");
        let _req = span::enter_request(Some(42));
        Pool::with_size(threads).team(
            (),
            || (),
            |_, _, _| {
                let mut s = seen.lock().unwrap();
                s.push((
                    on_worker(),
                    current_threads(),
                    simd::current_policy(),
                    span::current_path(),
                    span::current_request(),
                ));
                // The caller's tasks wait for a worker to join the region.
                while threads > 1 && !s.iter().any(|s| s.0) {
                    drop(s);
                    std::thread::yield_now();
                    s = seen.lock().unwrap();
                }
            },
            |team| {
                // The policy and span are read per region, not per team.
                for policy in [Policy::ForcedScalar, Policy::Auto] {
                    simd::with_policy(policy, || {
                        let _inner = metadpa_obs::span!("region");
                        with_threads(5, || team.map(4 * threads));
                    });
                    let seen = std::mem::take(&mut *seen.lock().unwrap());
                    assert_eq!(seen.len(), 4 * threads);
                    if threads > 1 {
                        assert!(seen.iter().any(|s| s.0), "threads={threads}: no worker joined");
                        assert!(seen.iter().all(|s| s.1 == 1), "nested parallelism must be off");
                    }
                    for (_, _, p, path, req) in seen {
                        assert_eq!(p, policy, "threads={threads}");
                        assert_eq!(path.as_deref(), Some("team_test/region"), "threads={threads}");
                        assert_eq!(req, Some(42), "threads={threads}");
                    }
                }
            },
        );
    }
    metadpa_obs::disable();
}
