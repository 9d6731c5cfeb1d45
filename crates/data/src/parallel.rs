//! The worker-thread policy shared by the condition search and the CSV
//! ingest: one rule, one threshold, so "how many threads" never depends on
//! which layer asks.

/// Minimum `rows × attributes` product before a parallel pass pays for its
/// thread spawns. Below this the sequential path is used.
pub const PARALLEL_MIN_CELLS: usize = 16 * 1024;

/// The single worker-count policy for condition search and CSV ingest.
///
/// Returns how many worker threads to spawn for `tasks` independent units
/// (a search's `attributes × shards`, an ingest round's blocks) over
/// `cells = rows × attributes`, given `available` hardware threads. A
/// return of `1` means the caller must take the sequential path. The three
/// historical behaviours are preserved exactly:
///
/// * `max_workers == Some(1)` (or `parallel` off, or a degenerate search
///   with at most one task) → sequential;
/// * `max_workers == Some(k > 1)` forces the threaded path even below the
///   cell threshold, with at least two workers so single-core hosts still
///   exercise the worker merge (thread-count sweeps rely on this);
/// * `max_workers == None` engages threads only when `cells` reaches
///   `parallel_min_cells`; an explicit `0` threshold keeps the historical
///   forced floor of two workers.
pub fn worker_count(
    parallel: bool,
    max_workers: Option<usize>,
    parallel_min_cells: usize,
    cells: usize,
    tasks: usize,
    available: usize,
) -> usize {
    if !parallel || tasks <= 1 {
        return 1;
    }
    match max_workers {
        Some(cap) if cap <= 1 => 1,
        Some(cap) => available.max(2).min(cap).min(tasks),
        None if cells >= parallel_min_cells => {
            let forced_floor = if parallel_min_cells == 0 { 2 } else { 1 };
            available.max(forced_floor).min(tasks)
        }
        None => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_cases_return_one_worker() {
        // parallel off
        assert_eq!(worker_count(false, None, 0, 1 << 20, 64, 8), 1);
        // degenerate search: at most one task
        assert_eq!(worker_count(true, None, 0, 1 << 20, 1, 8), 1);
        assert_eq!(worker_count(true, Some(8), 0, 1 << 20, 0, 8), 1);
        // explicit sequential cap
        assert_eq!(worker_count(true, Some(1), 0, 1 << 20, 64, 8), 1);
        assert_eq!(worker_count(true, Some(0), 0, 1 << 20, 64, 8), 1);
        // below the size threshold with no explicit cap
        assert_eq!(worker_count(true, None, 16 * 1024, 100, 64, 8), 1);
    }

    #[test]
    fn explicit_cap_forces_threads_below_the_threshold() {
        // Small search, cap 4, 8 hardware threads: threaded with 4 workers.
        assert_eq!(worker_count(true, Some(4), 16 * 1024, 100, 64, 8), 4);
        // A single-core host still gets the two-worker floor under a cap.
        assert_eq!(worker_count(true, Some(4), 16 * 1024, 100, 64, 1), 2);
        // Never more workers than tasks.
        assert_eq!(worker_count(true, Some(16), 0, 1 << 20, 3, 8), 3);
    }

    #[test]
    fn default_heuristic_uses_available_parallelism() {
        // Above threshold: one worker per hardware thread, capped by tasks.
        assert_eq!(worker_count(true, None, 16 * 1024, 1 << 20, 64, 8), 8);
        assert_eq!(worker_count(true, None, 16 * 1024, 1 << 20, 3, 8), 3);
        // Single core above the threshold stays sequential (floor 1).
        assert_eq!(worker_count(true, None, 16 * 1024, 1 << 20, 64, 1), 1);
        // A zero threshold forces the historical two-worker floor.
        assert_eq!(worker_count(true, None, 0, 0, 64, 1), 2);
    }
}
