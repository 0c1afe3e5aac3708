//! Parallel parameter sweeps.
//!
//! Every figure in the evaluation is a sweep: cache sizes, document
//! counts, query counts, policies. Each point is an independent,
//! deterministic simulation, so the sweep is embarrassingly parallel —
//! [`parallel_map`] fans points out over `std::thread::scope` workers and
//! returns results in input order, so a figure prints the same rows
//! whatever the host's core count. (Rayon would be the idiomatic choice
//! per the hpc-parallel guides; scoped threads keep us dependency-free
//! while preserving the same data-parallel shape.)
//!
//! Every caller maps whole engine runs — a few to a few dozen points of
//! hundreds of milliseconds each — so the handoff is one `Mutex` around
//! the input iterator, released before the point runs.

use std::sync::Mutex;

/// Apply `f` to every element of `inputs` using up to `threads` worker
/// threads (0 = one per available core). Results come back in input order.
/// Panics in workers propagate to the caller.
pub fn parallel_map<T, U, F>(inputs: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    }
    .min(n);
    if threads <= 1 {
        return inputs.into_iter().map(f).collect();
    }

    let queue = Mutex::new(inputs.into_iter().enumerate());
    let (queue, f) = (&queue, &f);
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // The guard is a temporary of this statement: the
                        // lock is released before `f` runs.
                        let next = queue
                            .lock()
                            .expect("`f` runs outside the lock, so no holder panics")
                            .next();
                        let Some((i, input)) = next else { break };
                        done.push((i, f(input)));
                    }
                    done
                })
            })
            .collect();
        // Join everyone before re-raising anything.
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut outputs = Vec::with_capacity(n);
    let mut panicked = None;
    for worker in joined {
        match worker {
            Ok(done) => outputs.extend(done),
            Err(payload) => {
                panicked.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
    outputs.sort_unstable_by_key(|&(i, _)| i);
    outputs.into_iter().map(|(_, output)| output).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let out = parallel_map((0..100).collect(), 4, |x: i32| x * x);
        let want: Vec<i32> = (0..100).map(|x| x * x).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_fallback() {
        let out = parallel_map(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn zero_threads_means_auto() {
        let out = parallel_map((0..16).collect(), 0, |x: u64| x * 2);
        assert_eq!(out, (0..16).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map(vec![7], 32, |x| x - 7);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn chunked_handout_covers_large_sweeps() {
        // Many more items than workers: every index must still be
        // processed exactly once even when chunks shrink to 1.
        let out = parallel_map((0..1_537).collect(), 3, |x: u64| x + 1);
        assert_eq!(out, (1..=1_537).collect::<Vec<_>>());
    }

    #[test]
    fn results_match_sequential_for_stateful_work() {
        // Each worker builds independent state — results must still land
        // at the right indices.
        let inputs: Vec<u64> = (0..64).collect();
        let out = parallel_map(inputs.clone(), 8, |seed| {
            let mut rng = simclock::Rng::new(seed);
            (0..100).map(|_| rng.next_below(1000)).sum::<u64>()
        });
        let want: Vec<u64> = inputs
            .into_iter()
            .map(|seed| {
                let mut rng = simclock::Rng::new(seed);
                (0..100).map(|_| rng.next_below(1000)).sum::<u64>()
            })
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate_with_their_payload() {
        parallel_map(vec![1, 2, 3], 2, |x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn worker_panic_drops_every_input_exactly_once() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        // Every value counts its own drop: a leak would undercount, a
        // double-drop would overcount (or crash outright under Miri).
        struct Counted(u32, Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.1.fetch_add(1, Ordering::SeqCst);
            }
        }

        let drops = Arc::new(AtomicUsize::new(0));
        let inputs: Vec<Counted> = (0..64).map(|i| Counted(i, drops.clone())).collect();
        let r = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(inputs, 4, |c: Counted| {
                if c.0 == 13 {
                    panic!("boom at 13");
                }
                c
            })
        }));
        assert!(r.is_err(), "the worker panic must propagate");
        drop(r);
        // 64 values in, 64 drops out, wherever each one ended up: consumed
        // by the panicking call, stranded in an input slot, or parked in a
        // result slot when the unwind hit.
        assert_eq!(drops.load(Ordering::SeqCst), 64);
    }
}
