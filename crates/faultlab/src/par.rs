//! The one worker pool every campaign runner schedules through.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Evaluates `f(0), …, f(n - 1)` on up to `jobs` worker threads and
/// returns the results in index order.
///
/// This is the determinism contract of every `--jobs` flag in the crate:
/// workers steal the next index off a shared counter, so which thread
/// computes which item varies from run to run, but the output never does —
/// it is reassembled by index. `jobs` is clamped to `1..=n`; `n == 0`
/// returns empty without spawning.
///
/// # Panics
///
/// Panics if `f` panics on any item (after every worker has been joined).
pub(crate) fn ordered_par_map<T: Send>(
    jobs: usize,
    n: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    if n == 0 {
        return Vec::new();
    }
    // Relaxed: the counter hands out indices and publishes nothing else;
    // results travel through the mutex.
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..jobs.clamp(1, n) {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i)));
                }
                done.lock()
                    .expect("workers never panic while holding the lock")
                    .extend(local);
            });
        }
    });
    let mut done = done.into_inner().expect("workers joined");
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, item)| item).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_in_index_order_for_any_job_count() {
        let n = 37;
        let expected: Vec<usize> = (0..n).map(|i| i * i).collect();
        for jobs in [1, 2, 8, n + 3] {
            assert_eq!(ordered_par_map(jobs, n, |i| i * i), expected, "jobs={jobs}");
        }
    }

    #[test]
    fn zero_jobs_are_clamped_to_one() {
        assert_eq!(ordered_par_map(0, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn empty_input_returns_empty_without_calling_f() {
        let out: Vec<usize> = ordered_par_map(4, 0, |_| unreachable!("nothing to evaluate"));
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_panicking_item_propagates() {
        ordered_par_map(2, 8, |i| {
            assert_ne!(i, 5, "item five is broken");
            i
        });
    }
}
