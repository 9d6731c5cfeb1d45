//! Bit-identity of the refit split.
//!
//! `refit_window` trains on a one-pass column gather of the window
//! ([`split_window`]) and validates on the held-back rows in place. The
//! oracle below is the split it replaced: every kept row pushed back
//! through a `DatasetBuilder` whose schema was pre-registered from the
//! window, with the holdout materialised the same way. On random windows
//! — unused dictionary values, fractional weights, every class as the
//! target, holdout strides 2..=7 — both must give the same training slice
//! bit for bit, the same `RefitEval`, the same typed error and the same
//! candidate checksum.

use pnr_core::{
    recall_on, refit_window, split_window, FitCheckpointStore, ModelArtifact, PnruleLearner,
    PnruleParams, RefitError, RefitEval, RefitOptions, ServingModel,
};
use pnr_data::{AttrType, Column, Dataset, DatasetBuilder, Value};
use pnr_telemetry::{RecordingSink, SpanKind, TelemetrySink};
use proptest::prelude::*;
use std::sync::Arc;

/// Classes every window registers; the last one labels no row.
const CLASSES: [&str; 5] = ["c0", "c1", "c2", "c3", "never"];

/// One window row: x, y, category index, class index, weight.
type Row = (f64, f64, usize, usize, f64);

fn window(rows: &[Row]) -> Dataset {
    let mut b = DatasetBuilder::new();
    b.add_attribute("x", AttrType::Numeric);
    b.add_attribute("k", AttrType::Categorical);
    b.add_attribute("y", AttrType::Numeric);
    // dictionary values no row uses, ahead of and between the used ones
    b.add_cat_value(1, "unused-a");
    b.add_cat_value(1, "v3");
    b.add_cat_value(1, "unused-b");
    for class in CLASSES {
        b.add_class(class);
    }
    for &(x, y, k, class, w) in rows {
        // rounding gives ties and -0.0
        let values = [
            Value::num(x.round()),
            Value::cat(["v0", "v1", "v2", "v3", "v4"][k]),
            Value::num(y),
        ];
        b.push_row(&values, CLASSES[class], w).unwrap();
    }
    b.finish()
}

fn rows() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        (
            -6.0f64..6.0,
            -20.0f64..20.0,
            0usize..5,
            0usize..4,
            0.05f64..3.0,
        ),
        12..160,
    )
}

/// The replaced split: re-push the rows `keep` selects through a builder
/// pre-registered with the window's attributes, dictionaries and classes.
fn oracle_select(data: &Dataset, keep: impl Fn(usize) -> bool) -> Dataset {
    let schema = data.schema();
    let mut b = DatasetBuilder::new();
    for a in &schema.attributes {
        b.add_attribute(a.name.clone(), a.ty);
    }
    for (ai, a) in schema.attributes.iter().enumerate() {
        if a.ty == AttrType::Categorical {
            for code in 0..a.dict.len() {
                b.add_cat_value(ai, a.dict.name(code as u32));
            }
        }
    }
    for class in 0..schema.n_classes() {
        b.add_class(schema.classes.name(class as u32));
    }
    for row in (0..data.n_rows()).filter(|&r| keep(r)) {
        let values: Vec<Value> = schema
            .attributes
            .iter()
            .enumerate()
            .map(|(ai, a)| match a.ty {
                AttrType::Numeric => Value::num(data.num(ai, row)),
                AttrType::Categorical => Value::cat(data.cat_name(ai, row)),
            })
            .collect();
        b.push_row(&values, data.class_name(data.label(row)), data.weight(row))
            .unwrap();
    }
    b.finish()
}

/// What a refit came to, in a form both paths can be compared on.
#[derive(Debug, PartialEq)]
enum Outcome {
    Published { eval: RefitEval, checksum: String },
    TooFewTargetRows { have: usize, need: usize },
    NoHoldoutTargets { holdout_rows: usize },
    RecallRegression { candidate: u64, baseline: u64 },
}

fn outcome(r: Result<(ModelArtifact, RefitEval), RefitError>) -> Outcome {
    match r {
        Ok((artifact, eval)) => Outcome::Published {
            eval,
            checksum: artifact.checksum().unwrap(),
        },
        Err(RefitError::TooFewTargetRows { have, need }) => {
            Outcome::TooFewTargetRows { have, need }
        }
        Err(RefitError::NoHoldoutTargets { holdout_rows }) => {
            Outcome::NoHoldoutTargets { holdout_rows }
        }
        Err(RefitError::RecallRegression {
            candidate,
            baseline,
            ..
        }) => Outcome::RecallRegression {
            candidate: candidate.to_bits(),
            baseline: baseline.to_bits(),
        },
        Err(e) => panic!("unexpected refit error: {e}"),
    }
}

/// The replaced `refit_window` body: builder-copied slices, recall over
/// the materialised holdout. A holdout without target rows is reported
/// the way the new path types it.
fn oracle_refit(
    data: &Dataset,
    target: &str,
    baseline: &ServingModel,
    opts: &RefitOptions,
) -> Outcome {
    let code = data.class_code(target).unwrap();
    let stride = opts.holdout_stride;
    let is_holdout = |row: usize| row % stride == stride - 1;
    let train = oracle_select(data, |r| !is_holdout(r));
    let holdout = oracle_select(data, is_holdout);
    let have = train.labels().iter().filter(|&&l| l == code).count();
    if have < opts.min_target_rows {
        return Outcome::TooFewTargetRows {
            have,
            need: opts.min_target_rows,
        };
    }
    let holdout_targets = holdout.labels().iter().filter(|&&l| l == code).count();
    if holdout_targets == 0 {
        return Outcome::NoHoldoutTargets {
            holdout_rows: holdout.n_rows(),
        };
    }
    let params = baseline.artifact().params.clone();
    let (model, report) = PnruleLearner::new(params.clone()).fit_checkpointed(
        &train,
        code,
        &FitCheckpointStore::disabled(),
    );
    let candidate = ModelArtifact::new(model, params, report, data.schema().clone()).unwrap();
    let eval = RefitEval {
        candidate_recall: recall_on(&ServingModel::new(candidate.clone()), &holdout, code).unwrap(),
        baseline_recall: recall_on(baseline, &holdout, code).unwrap(),
        train_rows: train.n_rows(),
        holdout_rows: holdout.n_rows(),
        holdout_targets,
    };
    if eval.candidate_recall + opts.recall_tolerance < eval.baseline_recall {
        return Outcome::RecallRegression {
            candidate: eval.candidate_recall.to_bits(),
            baseline: eval.baseline_recall.to_bits(),
        };
    }
    outcome(Ok((candidate, eval)))
}

fn baseline(data: &Dataset, target: u32) -> ServingModel {
    let params = PnruleParams::default();
    let (model, report) = PnruleLearner::new(params.clone()).fit_with_report(data, target);
    ServingModel::new(ModelArtifact::new(model, params, report, data.schema().clone()).unwrap())
}

fn assert_same_slice(got: &Dataset, want: &Dataset) {
    assert_eq!(got.schema().fingerprint(), want.schema().fingerprint());
    assert_eq!(got.n_rows(), want.n_rows());
    for attr in 0..want.n_attrs() {
        match (got.column(attr), want.column(attr)) {
            (Column::Num(g), Column::Num(w)) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(g), bits(w), "attribute {attr} values");
            }
            (Column::Cat(g), Column::Cat(w)) => assert_eq!(g, w, "attribute {attr} codes"),
            _ => panic!("attribute {attr} changed type"),
        }
    }
    assert_eq!(got.labels(), want.labels());
    let bits = |d: &Dataset| d.weights().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "weights");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn training_slice_matches_the_builder_oracle(rows in rows(), stride in 2usize..=7) {
        let data = window(&rows);
        let (train, holdout) = split_window(&data, stride);
        assert_same_slice(&train, &oracle_select(&data, |r| r % stride != stride - 1));
        let want: Vec<u32> = (0..data.n_rows() as u32)
            .filter(|&r| r as usize % stride == stride - 1)
            .collect();
        prop_assert_eq!(holdout, want);
    }

    #[test]
    fn refit_matches_the_builder_oracle(
        rows in rows(),
        stride in 2usize..=7,
        target in 0usize..CLASSES.len(),
    ) {
        let data = window(&rows);
        let target = CLASSES[target];
        let opts = RefitOptions {
            holdout_stride: stride,
            min_target_rows: 2,
            ..RefitOptions::default()
        };
        // the baseline is fitted on a class every window has
        let baseline = baseline(&data, data.class_code("c0").unwrap());
        let got = outcome(refit_window(
            &data,
            target,
            &baseline,
            &opts,
            &FitCheckpointStore::disabled(),
            &pnr_telemetry::noop(),
        ));
        prop_assert_eq!(got, oracle_refit(&data, target, &baseline, &opts));
    }
}

#[test]
fn the_split_is_its_own_span_ahead_of_the_fit() {
    let rows: Vec<Row> = (0..200)
        .map(|i| {
            (
                f64::from(i % 12),
                0.0,
                i as usize % 5,
                usize::from(i % 7 == 0),
                1.0,
            )
        })
        .collect();
    let data = window(&rows);
    let recording = Arc::new(RecordingSink::new());
    let sink: Arc<dyn TelemetrySink> = recording.clone();
    let baseline = baseline(&data, data.class_code("c1").unwrap());
    let opts = RefitOptions {
        min_target_rows: 2,
        ..RefitOptions::default()
    };
    let _ = refit_window(
        &data,
        "c1",
        &baseline,
        &opts,
        &FitCheckpointStore::disabled(),
        &sink,
    );
    let kinds: Vec<SpanKind> = recording
        .completed_spans()
        .iter()
        .filter(|s| s.depth == 0)
        .map(|s| s.kind)
        .collect();
    assert_eq!(
        kinds,
        [
            SpanKind::RefitSplit,
            SpanKind::RefitFit,
            SpanKind::RefitValidate
        ]
    );
}
