//! Offline stand-in for the subset of `rayon` this workspace uses:
//! `slice.par_chunks_mut(n)[.enumerate()].for_each(..)` /
//! `.for_each_init(init, ..)`, and `current_num_threads()`.
//!
//! Work is genuinely parallel: the chunks are cut into one *contiguous*
//! run per worker (`std::thread::scope` workers sized to the machine), so
//! adjacent chunks — adjacent output rows, which share cache lines at
//! narrow widths — are written by the same core, nothing is staged per
//! chunk, and a worker builds its `for_each_init` state once. The worker
//! count is the machine's and is not settable; a caller that wants fewer
//! runs passes larger chunks.

/// The number of workers a parallel call runs on: one per core, as
/// `rayon::current_num_threads` reports for the global pool. A caller
/// that cuts its own work into one piece per worker sizes it from this.
///
/// Asked of the OS once per process, as rayon sizes its pool once:
/// `available_parallelism` reads the affinity mask and cgroup files, tens
/// of microseconds a call, and every parallel call asks.
pub fn current_num_threads() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs `f` on every `(index, chunk)` of `slice` cut into `chunk_size`
/// pieces, on at most `workers` threads: worker `w` takes chunks
/// `w * per ..`, one contiguous run, and builds one `init` state for it.
fn run_chunks<T, S, I, F>(slice: &mut [T], chunk_size: usize, workers: usize, init: &I, f: &F)
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, (usize, &mut [T])) + Sync,
{
    let jobs = slice.len().div_ceil(chunk_size);
    let per = jobs.div_ceil(workers.clamp(1, jobs.max(1))).max(1);
    let work = move |w: usize, run: &mut [T]| {
        let mut state = init();
        for (i, chunk) in run.chunks_mut(chunk_size).enumerate() {
            f(&mut state, (w * per + i, chunk));
        }
    };
    let mut runs = slice.chunks_mut(per * chunk_size).enumerate();
    let first = runs.next();
    // A scope that spawned nothing costs nothing; one that did joins its
    // workers and re-raises a panic from any of them.
    std::thread::scope(|scope| {
        for (w, run) in runs {
            scope.spawn(move || work(w, run));
        }
        if let Some((w, run)) = first {
            work(w, run);
        }
    });
}

/// Parallel chunk iterator over a mutable slice, created by
/// [`prelude::ParallelSliceMut::par_chunks_mut`].
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

/// [`ParChunksMut`] with chunk indices attached.
pub struct EnumerateParChunksMut<'a, T> {
    inner: ParChunksMut<'a, T>,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Attaches the chunk index, mirroring `rayon`'s `enumerate`.
    pub fn enumerate(self) -> EnumerateParChunksMut<'a, T> {
        EnumerateParChunksMut { inner: self }
    }

    /// Runs `f` on every chunk in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, chunk)| f(chunk));
    }

    /// Runs `f` on every chunk in parallel, handing it a state each worker
    /// builds once with `init` — scratch buffers that outlive one chunk.
    pub fn for_each_init<S, I, F>(self, init: I, f: F)
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &mut [T]) + Sync,
    {
        self.enumerate()
            .for_each_init(init, |state, (_, chunk)| f(state, chunk));
    }
}

impl<'a, T: Send> EnumerateParChunksMut<'a, T> {
    /// Runs `f` on every `(index, chunk)` pair in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        self.for_each_init(|| (), |(), item| f(item));
    }

    /// [`ParChunksMut::for_each_init`] with the chunk index attached.
    pub fn for_each_init<S, I, F>(self, init: I, f: F)
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, (usize, &mut [T])) + Sync,
    {
        let ParChunksMut { slice, chunk_size } = self.inner;
        run_chunks(slice, chunk_size, current_num_threads(), &init, &f);
    }
}

/// The traits callers bring into scope with `use rayon::prelude::*`.
pub mod prelude {
    use super::ParChunksMut;

    /// Mutable-slice entry points (`par_chunks_mut`).
    pub trait ParallelSliceMut<T: Send> {
        /// Splits the slice into chunks of `chunk_size` for parallel
        /// mutation.
        ///
        /// # Panics
        ///
        /// Panics if `chunk_size` is zero.
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
            assert!(chunk_size > 0, "chunk size must be non-zero");
            ParChunksMut {
                slice: self,
                chunk_size,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::run_chunks;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Marks chunk `i` of `jobs` 3-wide chunks with `i + 1`, on `workers`
    /// workers, and returns how many `for_each_init` states were built.
    fn mark(jobs: usize, workers: usize) -> (Vec<u32>, usize) {
        let mut data = vec![0u32; jobs * 3];
        let states = AtomicUsize::new(0);
        run_chunks(
            &mut data,
            3,
            workers,
            &|| states.fetch_add(1, Ordering::Relaxed),
            &|_: &mut usize, (i, chunk): (usize, &mut [u32])| {
                for v in chunk.iter_mut() {
                    // A second visit would not read 0 + i + 1.
                    *v += i as u32 + 1;
                }
            },
        );
        (data, states.into_inner())
    }

    #[test]
    fn every_index_is_visited_exactly_once() {
        // Fewer jobs than workers, a ragged split, an even one, none.
        for (jobs, workers) in [(3, 8), (257, 4), (10, 3), (8, 4), (1, 2), (0, 4), (5, 1)] {
            let (data, states) = mark(jobs, workers);
            for (i, row) in data.chunks(3).enumerate() {
                assert!(
                    row.iter().all(|&v| v == i as u32 + 1),
                    "chunk {i} of {jobs} on {workers} workers: {row:?}"
                );
            }
            assert!(
                states <= workers.min(jobs).max(1),
                "{states} states for {jobs} jobs on {workers} workers"
            );
        }
    }

    #[test]
    fn uneven_tail_chunk() {
        let mut data = vec![0u8; 10];
        data.as_mut_slice()
            .par_chunks_mut(4)
            .enumerate()
            .for_each(|(i, chunk)| {
                assert!(chunk.len() == 4 || (i == 2 && chunk.len() == 2));
                chunk.fill(1);
            });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn a_state_is_built_once_per_worker() {
        let mut data = vec![0u8; 640];
        let states = AtomicUsize::new(0);
        data.as_mut_slice().par_chunks_mut(1).for_each_init(
            || states.fetch_add(1, Ordering::Relaxed),
            |_, chunk| chunk.fill(1),
        );
        assert!(data.iter().all(|&v| v == 1));
        assert!((1..=super::current_num_threads()).contains(&states.into_inner()));
    }

    #[test]
    fn the_worker_count_is_the_machines() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(super::current_num_threads(), cores);
        assert_eq!(super::current_num_threads(), cores, "asked twice");
    }

    #[test]
    #[should_panic]
    fn a_panicking_worker_propagates() {
        let mut data = vec![0u8; 64];
        run_chunks(
            &mut data,
            1,
            4,
            &|| (),
            &|(): &mut (), (i, _): (usize, &mut [u8])| assert!(i != 40, "worker 2 of 4 fails"),
        );
    }
}
