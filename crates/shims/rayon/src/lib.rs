//! Offline stand-in for [rayon](https://crates.io/crates/rayon).
//!
//! The build environment has no network access, so this crate provides the
//! exact parallel-iterator subset the workspace uses — `into_par_iter` /
//! `par_iter`, `map`, `zip`, `collect` — executed
//! on a persistent pool of real OS threads. Semantics mirror rayon
//! where the workspace depends on them:
//!
//! * `map` is applied in parallel chunks; `collect` concatenates chunk
//!   outputs in index order.
//! * `collect::<Result<_, E>>()` short-circuits on the first error by
//!   index order, like sequential `collect`.
//!
//! Parallel calls execute on one **persistent worker pool** (the
//! [`ThreadPool`] in [`pool`], with a process-global registry honoring
//! `RAYON_NUM_THREADS`) instead of spawning scoped threads per call —
//! dispatch onto even chunks costs a queue push, not a thread spawn/join
//! round trip. The calling thread runs one chunk itself and, while it
//! waits, runs any of its call's chunks still queued (never another
//! call's or a spawned task), so nesting cannot deadlock.

use std::ops::Range;

pub mod pool;

pub use pool::{global_pool, ThreadPool};

/// Number of worker lanes a parallel call fans out to (the global
/// pool's size, fixed at first use from `RAYON_NUM_THREADS`).
pub fn current_num_threads() -> usize {
    global_pool().num_threads()
}

/// Fire-and-forget a task onto the global pool (mirrors `rayon::spawn`).
/// See [`ThreadPool::spawn`] for the sequential-pool (inline) and panic
/// semantics.
pub fn spawn(f: impl FnOnce() + Send + 'static) {
    global_pool().spawn(f)
}

/// Re-exports that mirror `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

/// The staged item source of a [`ParIter`]. Collections are held as-is;
/// index ranges stay **lazy** — chunk boundaries are computed
/// arithmetically and each worker materializes only its own indices, so
/// an index-only loop (`(0..n).into_par_iter()`) never allocates O(n)
/// staging memory.
enum Source<T> {
    Items(Vec<T>),
    Range {
        start: u64,
        end: u64,
        conv: fn(u64) -> T,
    },
}

impl<T> Source<T> {
    fn len(&self) -> usize {
        match self {
            Source::Items(v) => v.len(),
            Source::Range { start, end, .. } => (end - start) as usize,
        }
    }

    /// Split into contiguous chunks of `chunk` items, in index order.
    /// Range sources split into subranges without materializing.
    fn split(self, chunk: usize) -> Vec<Source<T>> {
        match self {
            Source::Items(items) => {
                let mut chunks = Vec::new();
                let mut it = items.into_iter();
                loop {
                    let c: Vec<T> = it.by_ref().take(chunk).collect();
                    if c.is_empty() {
                        break;
                    }
                    chunks.push(Source::Items(c));
                }
                chunks
            }
            Source::Range { start, end, conv } => {
                let mut chunks = Vec::new();
                let mut lo = start;
                while lo < end {
                    let hi = (lo + chunk as u64).min(end);
                    chunks.push(Source::Range {
                        start: lo,
                        end: hi,
                        conv,
                    });
                    lo = hi;
                }
                chunks
            }
        }
    }

    fn into_items_iter(self) -> SourceIter<T> {
        match self {
            Source::Items(v) => SourceIter::Items(v.into_iter()),
            Source::Range { start, end, conv } => SourceIter::Range {
                cur: start,
                end,
                conv,
            },
        }
    }
}

/// Iterator over one chunk of a [`Source`].
enum SourceIter<T> {
    Items(std::vec::IntoIter<T>),
    Range {
        cur: u64,
        end: u64,
        conv: fn(u64) -> T,
    },
}

impl<T> Iterator for SourceIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            SourceIter::Items(it) => it.next(),
            SourceIter::Range { cur, end, conv } => {
                if cur < end {
                    let v = conv(*cur);
                    *cur += 1;
                    Some(v)
                } else {
                    None
                }
            }
        }
    }
}

/// A staged "parallel" iterator: each adapter executes eagerly across
/// scoped threads. Collection-backed sources are held materialized; index
/// ranges are chunked lazily (see `Source` above).
pub struct ParIter<T> {
    source: Source<T>,
}

/// Conversion into a [`ParIter`] (mirrors rayon's trait of the same name).
pub trait IntoParallelIterator {
    /// Item type produced.
    type Item;
    /// Stage `self` for parallel execution.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

/// `par_iter()` on borrowed collections (mirrors rayon).
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed item type.
    type Item;
    /// Stage `&self` for parallel execution.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<T> IntoParallelIterator for ParIter<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        self
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter {
            source: Source::Items(self),
        }
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            source: Source::Range {
                start: self.start as u64,
                end: self.end.max(self.start) as u64,
                conv: |i| i as usize,
            },
        }
    }
}

impl IntoParallelIterator for Range<u32> {
    type Item = u32;
    fn into_par_iter(self) -> ParIter<u32> {
        ParIter {
            source: Source::Range {
                start: u64::from(self.start),
                end: u64::from(self.end.max(self.start)),
                conv: |i| i as u32,
            },
        }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter {
            source: Source::Items(self.iter().collect()),
        }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter {
            source: Source::Items(self.iter().collect()),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            source: Source::Items(self.iter().collect()),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            source: Source::Items(self.iter().collect()),
        }
    }
}

/// Split a [`Source`] into at most `current_num_threads()` contiguous
/// chunks and run `work` on each chunk on the persistent global pool;
/// chunk outputs are returned in index order. Range sources hand each
/// worker a lazy subrange iterator.
fn run_chunks<T: Send, U: Send>(
    source: Source<T>,
    work: impl Fn(SourceIter<T>) -> U + Sync,
) -> Vec<U> {
    let n = source.len();
    if n == 0 {
        return Vec::new();
    }
    let pool = global_pool();
    let threads = pool.num_threads().max(1);
    let chunk = n.div_ceil(threads);
    let mut chunks = source.split(chunk);
    if chunks.len() == 1 {
        let c = chunks.pop().expect("one chunk");
        return vec![work(c.into_items_iter())];
    }
    let work = &work;
    let mut results: Vec<Option<U>> = std::iter::repeat_with(|| None).take(chunks.len()).collect();
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = chunks
        .into_iter()
        .zip(results.iter_mut())
        .map(|(c, slot)| {
            Box::new(move || {
                *slot = Some(work(c.into_items_iter()));
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.scope(tasks);
    results
        .into_iter()
        .map(|r| r.expect("every chunk executed"))
        .collect()
}

impl<T: Send> ParIter<T> {
    /// Parallel map, preserving index order.
    pub fn map<U: Send, F>(self, f: F) -> ParIter<U>
    where
        F: Fn(T) -> U + Sync,
    {
        let out = run_chunks(self.source, |chunk| chunk.map(&f).collect::<Vec<U>>());
        ParIter {
            source: Source::Items(out.into_iter().flatten().collect()),
        }
    }

    /// Pairwise zip with another staged iterator.
    pub fn zip<U, I>(self, other: I) -> ParIter<(T, U)>
    where
        U: Send,
        I: IntoParallelIterator<Item = U>,
    {
        let b = other.into_par_iter();
        ParIter {
            source: Source::Items(
                self.source
                    .into_items_iter()
                    .zip(b.source.into_items_iter())
                    .collect(),
            ),
        }
    }

    /// Collect the staged items (already computed by the eager adapters).
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.source.into_items_iter().collect()
    }
}

/// Marker trait so `use rayon::prelude::*` mirrors the real crate; all
/// methods live on [`ParIter`] directly.
pub trait ParallelIterator {}
impl<T> ParallelIterator for ParIter<T> {}

/// Run two closures, potentially in parallel on the persistent global
/// pool, returning both results (mirrors `rayon::join`).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let mut ra = None;
    let mut rb = None;
    {
        let sa = &mut ra;
        let sb = &mut rb;
        global_pool().scope(vec![
            Box::new(move || *sa = Some(a())),
            Box::new(move || *sb = Some(b())),
        ]);
    }
    (ra.expect("join left ran"), rb.expect("join right ran"))
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let v: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v, (0..1000usize).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_chunks_cover_in_order() {
        // a collection source: every item mapped exactly once, and the
        // chunk outputs concatenated in index order
        let items: Vec<usize> = (0..100).collect();
        let mapped: Vec<Vec<usize>> = items.into_par_iter().map(|i| vec![i]).collect();
        let flat: Vec<usize> = mapped.into_iter().flatten().collect();
        assert_eq!(flat, (0..100usize).collect::<Vec<_>>());
    }

    #[test]
    fn zip_and_result_collect() {
        let a = vec![1, 2, 3];
        let b = vec![10, 20, 30];
        let s: Vec<i32> = a
            .into_par_iter()
            .zip(b.par_iter())
            .map(|(x, y)| x + *y)
            .collect();
        assert_eq!(s, vec![11, 22, 33]);

        let ok: Result<Vec<i32>, ()> = vec![1, 2].into_par_iter().map(Ok).collect();
        assert_eq!(ok, Ok(vec![1, 2]));
        let err: Result<Vec<i32>, i32> = vec![1, 2, 3]
            .into_par_iter()
            .map(|x| if x == 2 { Err(2) } else { Ok(x) })
            .collect();
        assert_eq!(err, Err(2));
    }

    #[test]
    fn range_sources_chunk_lazily_and_in_order() {
        // map over a range: each chunk maps its indices in order, and the
        // subranges come back in index order — without the range ever
        // being staged into a Vec
        let seen = std::sync::Mutex::new(Vec::new());
        let mapped: Vec<u32> = (0u32..1000)
            .into_par_iter()
            .map(|i| {
                let lane = std::thread::current().id();
                seen.lock().unwrap().push((lane, i));
                i
            })
            .collect();
        assert_eq!(mapped, (0u32..1000).collect::<Vec<_>>());
        let seen = seen.into_inner().unwrap();
        let lanes: std::collections::HashSet<_> = seen.iter().map(|&(lane, _)| lane).collect();
        for lane in &lanes {
            let on_lane: Vec<u32> = seen
                .iter()
                .filter(|(l, _)| l == lane)
                .map(|&(_, i)| i)
                .collect();
            assert!(on_lane.windows(2).all(|w| w[0] < w[1]), "{lane:?}");
        }

        // a range far larger than any sane staging vector still maps in
        // O(threads) memory when the output is zero-sized: every index is
        // visited once, and only the lazy subranges exist
        let visits = std::sync::atomic::AtomicUsize::new(0);
        let units: Vec<()> = (0usize..4_000_000)
            .into_par_iter()
            .map(|_| {
                visits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            })
            .collect();
        assert_eq!(units.len(), 4_000_000);
        assert_eq!(visits.into_inner(), 4_000_000);

        // empty and reversed-degenerate ranges
        let empty: Vec<usize> = (5..5usize).into_par_iter().map(|i| i).collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn join_runs_both() {
        let (a, b) = super::join(|| 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }
}
