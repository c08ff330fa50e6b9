//! Scoped-thread fan-out across independent trace units.
//!
//! Trace analysis is embarrassingly parallel across *independent* units
//! — per-rank files, text documents, per-collector spools, per-rank
//! lineage extraction — and every consumer needs the same shape: split
//! a slice into one contiguous chunk per worker, run a pure function
//! over each element, and collect results in input order. [`par_map`]
//! is that shape, built on `std::thread::scope` (no extra dependencies,
//! no work stealing: trace units are uniform enough that static
//! chunking wins).
//!
//! The segments of *one* journal are not such units any more: with the
//! folding CRC a segment verifies and decodes in microseconds, so
//! spawning threads per journal cost more than it saved, and
//! [`crate::journal`] walks its segments inline (DESIGN.md §9.3).

/// Number of worker threads for `len` independent items: one per
/// available core, never more than there are items, at least one.
pub fn workers_for(len: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(len)
        .max(1)
}

/// Contiguous chunk length that spreads `len` items over `workers`
/// threads (the last chunk may be short). This is the single chunking
/// rule every fan-out shares.
pub fn chunk_len(len: usize, workers: usize) -> usize {
    len.div_ceil(workers.max(1)).max(1)
}

/// Map `f` over `items` on scoped threads, preserving input order.
///
/// Falls back to a plain serial map when there is nothing to gain (zero
/// or one item, or a single core). `f` must be pure per element: chunks
/// run concurrently and in no defined order relative to each other. A
/// panic inside `f` propagates (scoped threads re-raise on join), so
/// every output slot is filled on normal return.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, workers_for(items.len()), f)
}

/// [`par_map`] with an explicit worker count. Results are identical for
/// every `workers` value — only the chunking changes — which is what the
/// provenance determinism property tests sweep.
pub fn par_map_with<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len()).max(1);
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk = chunk_len(items.len(), workers);
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let f = &f;
    std::thread::scope(|s| {
        for (in_chunk, out_chunk) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            s.spawn(move || {
                for (item, slot) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    out.into_iter()
        .map(|o| o.expect("scoped worker filled every slot or panicked"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert!(par_map(&[] as &[u8], |&x| x).is_empty());
        assert_eq!(par_map(&[7u8], |&x| x + 1), vec![8]);
    }

    #[test]
    fn chunking_covers_everything() {
        for len in 0..50usize {
            for workers in 1..9usize {
                let chunk = chunk_len(len, workers);
                assert!(chunk >= 1);
                // chunks() with this size yields at most `workers` chunks
                // and covers all `len` items.
                if len > 0 {
                    assert!(len.div_ceil(chunk) <= workers.max(1) || chunk == 1);
                }
            }
        }
    }

    #[test]
    fn workers_bounded_by_items() {
        assert_eq!(workers_for(0), 1);
        assert_eq!(workers_for(1), 1);
        assert!(workers_for(1_000_000) >= 1);
    }

    #[test]
    fn worker_count_is_invisible_in_results() {
        let items: Vec<u32> = (0..97).collect();
        let base = par_map_with(&items, 1, |&x| x * x);
        for workers in [2, 3, 8, 200] {
            assert_eq!(par_map_with(&items, workers, |&x| x * x), base);
        }
    }

    #[test]
    fn results_can_be_fallible_values() {
        let items = vec!["1", "x", "3"];
        let out = par_map(&items, |s| s.parse::<i32>());
        assert_eq!(out[0], Ok(1));
        assert!(out[1].is_err());
        assert_eq!(out[2], Ok(3));
    }
}
