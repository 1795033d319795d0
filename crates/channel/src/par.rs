//! Deterministic scoped-thread fan-out for grid-shaped workloads.
//!
//! Heatmaps, coverage objectives and random search all evaluate the same
//! pure function over many independent inputs. [`par_map`] fans those
//! evaluations out over `std::thread::scope` workers and reassembles the
//! results **in input order from contiguous chunks**, so the output is
//! bit-identical to a serial `items.iter().map(f).collect()` — each item's
//! computation is untouched, only *where* it runs changes. No determinism
//! is traded for the speedup.
//!
//! Thread count comes from `std::thread::available_parallelism`, overridable
//! with the `SURFOS_THREADS` environment variable (`SURFOS_THREADS=1` forces
//! serial execution; values are clamped to [`MAX_THREADS`], and unparsable
//! or zero values fall back to the hardware count). The shard-scaling
//! benches and the CI single-shard-equivalence arm pin `SURFOS_THREADS=1`
//! so worker counts — and therefore spawn overheads — are deterministic
//! across machines. Small inputs short-circuit to the serial path: for a
//! handful of items the spawn cost exceeds the work.

/// Minimum items per worker before fan-out is worth the spawn cost.
const MIN_ITEMS_PER_THREAD: usize = 4;

/// Upper clamp on `SURFOS_THREADS`: a stray huge override (or a unit typo
/// like `1000000`) must not translate into an unbounded spawn storm.
pub const MAX_THREADS: usize = 256;

/// The worker count for `work` items: [`configured_threads`], never more
/// than the work supports.
pub fn thread_count(work: usize) -> usize {
    configured_threads().min(work.div_ceil(MIN_ITEMS_PER_THREAD).max(1))
}

/// The configured worker count for *coarse-grained* fan-out (one shard,
/// not one grid point, per item): `SURFOS_THREADS` if set (clamped to
/// `1..=`[`MAX_THREADS`]), otherwise the machine's available parallelism.
/// Unlike [`thread_count`] there is no per-item work floor — a handful of
/// kernel shards each worth milliseconds should still fan out.
pub fn configured_threads() -> usize {
    std::env::var("SURFOS_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .map(|n| n.min(MAX_THREADS))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Parallel map with output in input order (bit-identical to serial).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with(items, || (), |(), item| f(item))
}

/// [`par_map`] with per-worker scratch state: `init` runs once per worker
/// (and once total on the serial path), and each call of `f` may mutate it.
/// This is how callers hoist a per-item allocation — e.g. a cloned receiver
/// template — out of the loop without sharing it across threads.
pub fn par_map_with<T, S, U, I, F>(items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    par_map_with_threads(items, thread_count(items.len()), init, f)
}

/// [`par_map_with`] at an explicit worker count; `threads <= 1` is the
/// plain serial map. Exposed so tests can pin worker counts without racing
/// on the process environment.
pub fn par_map_with_threads<T, S, U, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        surfos_obs::observe("channel.par.threads", 1);
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    surfos_obs::observe("channel.par.threads", threads as u64);
    let chunk_len = items.len().div_ceil(threads);
    let init = &init;
    let f = &f;
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let workers: Vec<_> = items
            .chunks(chunk_len)
            .enumerate()
            .map(|(w, chunk)| {
                scope.spawn(move || {
                    let t0 = surfos_obs::enabled().then(std::time::Instant::now);
                    let mut state = init();
                    let results = chunk
                        .iter()
                        .map(|item| f(&mut state, item))
                        .collect::<Vec<U>>();
                    if let Some(t0) = t0 {
                        // Per-worker attribution: chunk index is the label,
                        // so a straggling worker shows up as a fat
                        // channel.par.chunk_ns{worker=K} tail. The scope is
                        // opened *after* the work so items recorded inside
                        // `f` keep their own labels (e.g. shard ids).
                        let _w = surfos_obs::scoped(&[("worker", w)]);
                        surfos_obs::observe("channel.par.chunk_items", chunk.len() as u64);
                        surfos_obs::observe_ns(
                            "channel.par.chunk_ns",
                            t0.elapsed().as_nanos() as u64,
                        );
                    }
                    results
                })
            })
            .collect();
        // Joining in spawn order = chunk order = input order.
        for worker in workers {
            out.extend(worker.join().expect("fan-out worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(x: &f64) -> f64 {
        // Enough float ops that any reassociation would show up.
        (0..32).fold(*x, |acc, i| (acc * 1.000_1 + i as f64).sin())
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let items: Vec<f64> = (0..257).map(|i| i as f64 * 0.37).collect();
        let serial: Vec<f64> = items.iter().map(work).collect();
        for threads in [2, 3, 4, 7, 16] {
            let par = par_map_with_threads(&items, threads, || (), |(), x| work(x));
            assert_eq!(
                serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                par.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<f64> = par_map(&[], work);
        assert!(empty.is_empty());
        let one = par_map_with_threads(&[2.0], 8, || (), |(), x| work(x));
        assert_eq!(one, vec![work(&2.0)]);
    }

    #[test]
    fn per_worker_state_initialised_per_chunk() {
        // Each worker's state starts fresh; the per-item result must not
        // depend on which chunk the item landed in.
        let items: Vec<usize> = (0..100).collect();
        let via_state = |threads| {
            par_map_with_threads(
                &items,
                threads,
                || Vec::<u8>::with_capacity(16),
                |scratch: &mut Vec<u8>, &i| {
                    scratch.clear();
                    scratch.extend_from_slice(&(i as u32).to_be_bytes());
                    scratch.iter().map(|&b| b as usize).sum::<usize>()
                },
            )
        };
        assert_eq!(via_state(1), via_state(6));
    }

    #[test]
    fn thread_count_respects_small_work() {
        assert_eq!(thread_count(0), 1);
        assert_eq!(thread_count(1), 1);
        assert!(thread_count(4) <= 1 + 4 / MIN_ITEMS_PER_THREAD);
        assert!(thread_count(10_000) >= 1);
    }
}
