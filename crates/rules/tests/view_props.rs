//! Property suite for the two halves of the view-proportional search:
//!
//! * **Projections.** Along random chains of `restricted_to`/`without`
//!   (tiny, mid-sized and near-full subsets, with ancestors materialised
//!   or not), every numeric attribute's `TaskView::projection` equals
//!   `Dataset::sorted_projection` of the view's rows — whichever way the
//!   `ViewIndex` built it (shared, sorted directly or bitmap-filtered).
//! * **Scoring replay.** The threaded search, whose workers score
//!   attributes and record their candidate charges for the calling thread
//!   to replay, is bit-identical to `find_best_condition_sequential` for
//!   every `max_workers` in 2..=4 × `row_shards` in 1..=4, with equal
//!   `ConditionsEvaluated`/`CandidateCharges` totals — including when a
//!   candidate budget fires mid-call and both paths must return `None`.

use pnr_data::{AttrType, Dataset, DatasetBuilder, RowSet, Value};
use pnr_rules::search::find_best_condition_sequential;
use pnr_rules::{find_best_condition, EvalMetric, FitBudget, SearchOptions, TaskView};
use pnr_telemetry::{Counter, RecordingSink};
use proptest::prelude::*;
use std::sync::Arc;

const METRICS: [EvalMetric; 4] = [
    EvalMetric::ZNumber,
    EvalMetric::FoilGain,
    EvalMetric::EntropyGain,
    EvalMetric::Laplace,
];

/// SplitMix64 driven by the case seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A dataset of `n` rows with heavily tied numeric attributes (a handful
/// of distinct values, `-0.0` and `0.0` among them), one categorical
/// attribute, a rare positive class and non-unit weights.
fn dataset(rng: &mut Rng, n: usize) -> (Dataset, Vec<bool>, Vec<f64>) {
    const TIES: [f64; 6] = [-0.0, 0.0, 1.0, 1.5, -2.0, 7.0];
    let mut b = DatasetBuilder::new();
    b.add_attribute("x", AttrType::Numeric);
    b.add_attribute("k", AttrType::Categorical);
    b.add_attribute("y", AttrType::Numeric);
    b.add_attribute("z", AttrType::Numeric);
    b.add_class("pos");
    b.add_class("neg");
    for _ in 0..n {
        let x = TIES[rng.below(TIES.len())];
        let y = rng.below(3) as f64;
        let z = (rng.below(1000) as f64) / 8.0;
        let k = ["a", "b", "c", "d"][rng.below(4)];
        let pos = rng.below(5) == 0;
        b.push_row(
            &[Value::num(x), Value::cat(k), Value::num(y), Value::num(z)],
            if pos { "pos" } else { "neg" },
            1.0,
        )
        .unwrap();
    }
    let d = b.finish();
    let flags = (0..d.n_rows()).map(|r| d.label(r) == 0).collect();
    let weights = (0..d.n_rows())
        .map(|_| [0.25, 1.0, 1.5, 3.0][rng.below(4)])
        .collect();
    (d, flags, weights)
}

/// A random subset of `rows`: tiny, mid-sized or near-full.
fn subset(rng: &mut Rng, rows: &RowSet) -> RowSet {
    let keep_per_mille = match rng.below(3) {
        0 => 5,
        1 => 500,
        _ => 995,
    };
    rows.filter(|_| rng.below(1000) < keep_per_mille)
}

fn counters(sink: &RecordingSink) -> (u64, u64) {
    (
        sink.value(Counter::ConditionsEvaluated),
        sink.value(Counter::CandidateCharges),
    )
}

proptest! {
    #[test]
    fn view_projections_equal_sorted_projection_along_chains(
        seed in any::<u64>(),
        n in 1usize..3000,
        steps in 1usize..7,
    ) {
        let mut rng = Rng(seed);
        let (d, flags, w) = dataset(&mut rng, n);
        let mut view = TaskView::full(&d, &flags, &w);
        for step in 0..=steps {
            for attr in [0usize, 2, 3] {
                // Leave some projections unbuilt so descendants fall back
                // to older ancestors or the dataset's global sort index.
                if rng.below(3) != 0 {
                    let got = view.projection(attr);
                    let want = d.sorted_projection(attr, view.rows.as_slice());
                    prop_assert_eq!(&*got, &want, "step {} attr {} rows {}", step, attr, view.n_rows());
                }
            }
            let rows = subset(&mut rng, &view.rows);
            view = match rng.below(3) {
                0 => view.restricted_to(rows),
                1 => view.without(&rows),
                // Removing nothing keeps the row set: the projection is shared.
                _ => view.without(&RowSet::empty()),
            };
        }
    }

    #[test]
    fn threaded_scoring_replay_matches_sequential(
        seed in any::<u64>(),
        n in 2usize..400,
        midx in 0usize..METRICS.len(),
    ) {
        let mut rng = Rng(seed);
        let (d, flags, w) = dataset(&mut rng, n);
        let metric = METRICS[midx];
        let full = TaskView::full(&d, &flags, &w);
        let sub = full.restricted_to(subset(&mut rng, &full.rows));
        for view in [&full, &sub] {
            for shards in 1..=4usize {
                let seq_sink = Arc::new(RecordingSink::new());
                let seq = SearchOptions {
                    parallel: false,
                    row_shards: Some(shards),
                    sink: seq_sink.clone(),
                    ..Default::default()
                };
                let want = find_best_condition_sequential(view, metric, &seq);
                for workers in 2..=4usize {
                    let sink = Arc::new(RecordingSink::new());
                    let par = SearchOptions {
                        max_workers: Some(workers),
                        row_shards: Some(shards),
                        sink: sink.clone(),
                        ..Default::default()
                    };
                    let got = find_best_condition(view, metric, &par);
                    let ctx = format!("workers {workers} shards {shards} rows {}", view.n_rows());
                    match (&got, &want) {
                        (None, None) => {}
                        (Some(g), Some(s)) => {
                            prop_assert_eq!(&g.condition, &s.condition, "{}", ctx);
                            prop_assert_eq!(g.stats.pos.to_bits(), s.stats.pos.to_bits(), "{}", ctx);
                            prop_assert_eq!(g.stats.total.to_bits(), s.stats.total.to_bits(), "{}", ctx);
                            prop_assert_eq!(g.score.to_bits(), s.score.to_bits(), "{}", ctx);
                        }
                        _ => prop_assert!(false, "{ctx}: threaded {got:?} vs sequential {want:?}"),
                    }
                    prop_assert_eq!(counters(&sink), counters(&seq_sink), "{}", ctx);
                }
            }
        }
    }

    #[test]
    fn budget_firing_mid_call_gives_none_and_equal_totals_on_both_paths(
        seed in any::<u64>(),
        n in 2usize..400,
        shards in 1usize..=4,
        workers in 2usize..=4,
        cut in 0.0f64..1.0,
    ) {
        let mut rng = Rng(seed);
        let (d, flags, w) = dataset(&mut rng, n);
        let view = TaskView::full(&d, &flags, &w);
        let probe = Arc::new(RecordingSink::new());
        let free = SearchOptions {
            parallel: false,
            row_shards: Some(shards),
            sink: probe.clone(),
            ..Default::default()
        };
        find_best_condition_sequential(&view, EvalMetric::ZNumber, &free);
        let total = probe.value(Counter::ConditionsEvaluated);
        prop_assume!(total >= 2);
        // A limit strictly inside the call's total charge: it fires mid-call.
        let limit = 1 + ((total - 1) as f64 * cut) as u64;
        let run = |threaded: bool| {
            let tracker = Arc::new(
                FitBudget { max_candidates: Some(limit), ..Default::default() }
                    .start()
                    .unwrap(),
            );
            let sink = Arc::new(RecordingSink::new());
            let opts = SearchOptions {
                parallel: threaded,
                max_workers: Some(if threaded { workers } else { 1 }),
                row_shards: Some(shards),
                budget: Some(tracker.clone()),
                sink: sink.clone(),
                ..Default::default()
            };
            let got = if threaded {
                find_best_condition(&view, EvalMetric::ZNumber, &opts)
            } else {
                find_best_condition_sequential(&view, EvalMetric::ZNumber, &opts)
            };
            (got.is_none(), tracker.is_exhausted(), tracker.candidates_charged(), counters(&sink))
        };
        let threaded = run(true);
        let sequential = run(false);
        prop_assert!(sequential.0 && sequential.1, "limit {limit} of {total} did not fire");
        prop_assert_eq!(threaded, sequential);
    }
}
