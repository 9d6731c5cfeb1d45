//! Windowed refit: the core entry point the drift-refit loop calls.
//!
//! Given a labelled window of recent traffic and the currently-serving
//! (last-known-good) artifact, [`refit_window`] fits a candidate model on
//! the window through the checkpointed [`run_fit`](crate::fit_checkpoint)
//! pipeline — under whatever [`FitBudget`](pnr_rules::FitBudget) the
//! caller put in its params — then **validates** it: target-class recall
//! on a held-back slice of the window must not regress more than
//! `recall_tolerance` below the baseline artifact's recall on the same
//! slice. Only a validated candidate is returned; every failure mode
//! (too few target rows to fit, no target rows to validate on, fit
//! panic, recall regression) is a typed [`RefitError`] so the supervisor
//! can log it and keep the last-known-good model serving.
//!
//! The split is deterministic: every `holdout_stride`-th row of the
//! window is held back for validation and never shown to the fit, so a
//! refit is reproducible from the window alone — no RNG, no wall clock.
//! [`split_window`] copies only the training rows; validation scores the
//! held-back rows in the window itself.

use crate::artifact::{ArtifactError, ModelArtifact};
use crate::fit_checkpoint::FitCheckpointStore;
use crate::learn::PnruleLearner;
use crate::params::PnruleParams;
use crate::serving::ServingModel;
use pnr_data::index::row_id;
use pnr_data::Dataset;
use pnr_telemetry::{Span, SpanKind, TelemetrySink};
use std::fmt;
use std::sync::Arc;

/// How a windowed refit splits and judges its window.
#[derive(Debug, Clone)]
pub struct RefitOptions {
    /// Learner parameters for the candidate fit (including its
    /// `FitBudget`). Defaults to the baseline artifact's own params when
    /// `None`.
    pub params: Option<PnruleParams>,
    /// Every `holdout_stride`-th window row is held back for validation
    /// (never trained on). Must be ≥ 2.
    pub holdout_stride: usize,
    /// How far candidate recall may fall below baseline recall on the
    /// held-back slice before the candidate is rejected.
    pub recall_tolerance: f64,
    /// Minimum target-class rows the *training* slice must hold; a
    /// thinner window cannot support a rare-class fit.
    pub min_target_rows: usize,
}

impl Default for RefitOptions {
    fn default() -> Self {
        RefitOptions {
            params: None,
            holdout_stride: 5,
            recall_tolerance: 0.05,
            min_target_rows: 10,
        }
    }
}

/// Validation outcome of a refit candidate, reported alongside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefitEval {
    /// Candidate target-class recall on the held-back slice.
    pub candidate_recall: f64,
    /// Baseline (last-known-good) recall on the same slice.
    pub baseline_recall: f64,
    /// Rows the candidate trained on.
    pub train_rows: usize,
    /// Rows held back for validation.
    pub holdout_rows: usize,
    /// Target-class rows among the held-back slice.
    pub holdout_targets: usize,
}

/// Why a windowed refit produced no candidate. Display strings start
/// with the variant name (the workspace's grep-able convention).
#[derive(Debug)]
pub enum RefitError {
    /// The window's schema has no class of the requested name.
    TargetMissing {
        /// The class that was asked for.
        target: String,
    },
    /// The training slice holds too few target rows to fit from.
    TooFewTargetRows {
        /// Target rows present in the training slice.
        have: usize,
        /// The configured minimum.
        need: usize,
    },
    /// The held-back slice holds no target-class rows, so recall on it
    /// is undefined and the candidate cannot be validated.
    NoHoldoutTargets {
        /// Rows in the held-back slice.
        holdout_rows: usize,
    },
    /// `holdout_stride` < 2 — no rows would be held back (or none
    /// trained on), so validation would be vacuous.
    BadHoldoutStride {
        /// The stride that was passed.
        stride: usize,
    },
    /// The fit panicked; the panic was contained here.
    FitPanicked {
        /// The panic payload, stringified.
        detail: String,
    },
    /// The candidate regressed target-class recall on the held-back
    /// slice beyond the configured tolerance.
    RecallRegression {
        /// Candidate recall on the holdout.
        candidate: f64,
        /// Baseline recall on the holdout.
        baseline: f64,
        /// The tolerance that was exceeded.
        tolerance: f64,
    },
    /// Artifact assembly or schema reconciliation failed.
    Artifact(ArtifactError),
}

impl fmt::Display for RefitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefitError::TargetMissing { target } => {
                write!(f, "TargetMissing: window has no class named `{target}`")
            }
            RefitError::TooFewTargetRows { have, need } => write!(
                f,
                "TooFewTargetRows: training slice holds {have} target row(s), need {need}"
            ),
            RefitError::NoHoldoutTargets { holdout_rows } => write!(
                f,
                "NoHoldoutTargets: no target row among {holdout_rows} held-back row(s) to validate on"
            ),
            RefitError::BadHoldoutStride { stride } => write!(
                f,
                "BadHoldoutStride: holdout stride {stride} leaves nothing to train or validate on"
            ),
            RefitError::FitPanicked { detail } => write!(f, "FitPanicked: {detail}"),
            RefitError::RecallRegression {
                candidate,
                baseline,
                tolerance,
            } => write!(
                f,
                "RecallRegression: candidate recall {candidate:.4} vs baseline {baseline:.4} \
                 exceeds tolerance {tolerance:.4}"
            ),
            RefitError::Artifact(e) => write!(f, "Artifact: {e}"),
        }
    }
}

impl std::error::Error for RefitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RefitError::Artifact(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArtifactError> for RefitError {
    fn from(e: ArtifactError) -> Self {
        RefitError::Artifact(e)
    }
}

/// Splits `window` for a refit into the training slice — one column
/// gather under the window's own schema, so codes are unchanged — and the
/// ids of the held-back rows (`r % holdout_stride == holdout_stride - 1`),
/// which validation reads in place. [`refit_window`] refuses strides < 2.
pub fn split_window(window: &Dataset, holdout_stride: usize) -> (Dataset, Vec<u32>) {
    let (holdout, train): (Vec<u32>, Vec<u32>) = (0..window.n_rows())
        .map(row_id)
        .partition(|&r| r as usize % holdout_stride == holdout_stride - 1);
    (window.select_rows(&train), holdout)
}

/// Target-class recall of `model` over `rows` of `data`: the fraction of
/// target-labelled rows the model decided positive, 0.0 when there are
/// none. Rows the serving layer refuses to score count as misses — a
/// model that quarantines the target class has not recalled it.
fn recall_on_rows(
    model: &ServingModel,
    data: &Dataset,
    rows: impl Iterator<Item = usize>,
    target: u32,
) -> Result<f64, ArtifactError> {
    let map = model.reconcile_dataset(data)?;
    let mut targets = 0usize;
    let mut hits = 0usize;
    for row in rows {
        if data.label(row) != target {
            continue;
        }
        targets += 1;
        if let Ok(rec) = model.score_dataset_row(data, &map, row) {
            if rec.decision {
                hits += 1;
            }
        }
    }
    if targets == 0 {
        return Ok(0.0);
    }
    let targets_f = u32::try_from(targets).map(f64::from).unwrap_or(f64::MAX);
    let hits_f = u32::try_from(hits).map(f64::from).unwrap_or(f64::MAX);
    Ok(hits_f / targets_f)
}

/// Target-class recall of `model` over every row of `data` (see
/// `recall_on_rows`).
pub fn recall_on(model: &ServingModel, data: &Dataset, target: u32) -> Result<f64, ArtifactError> {
    recall_on_rows(model, data, 0..data.n_rows(), target)
}

/// Fits a refit candidate on `window` and validates it against the
/// baseline. See the module docs for the contract; on success the
/// returned artifact carries **no lineage yet** — the caller stamps
/// lineage (parent checksum, window id, verdict) before saving, because
/// only the caller knows which on-disk file is the parent.
pub fn refit_window(
    window: &Dataset,
    target_class: &str,
    baseline: &ServingModel,
    opts: &RefitOptions,
    store: &FitCheckpointStore,
    sink: &Arc<dyn TelemetrySink>,
) -> Result<(ModelArtifact, RefitEval), RefitError> {
    if opts.holdout_stride < 2 {
        return Err(RefitError::BadHoldoutStride {
            stride: opts.holdout_stride,
        });
    }
    let target = window
        .class_code(target_class)
        .ok_or_else(|| RefitError::TargetMissing {
            target: target_class.to_string(),
        })?;
    let (train, holdout) = {
        let _span = Span::enter(sink.as_ref(), SpanKind::RefitSplit, target_class);
        split_window(window, opts.holdout_stride)
    };
    let train_targets = train.labels().iter().filter(|&&l| l == target).count();
    if train_targets < opts.min_target_rows {
        return Err(RefitError::TooFewTargetRows {
            have: train_targets,
            need: opts.min_target_rows,
        });
    }
    let is_target = |&&r: &&u32| window.label(r as usize) == target;
    let holdout_targets = holdout.iter().filter(is_target).count();
    if holdout_targets == 0 {
        return Err(RefitError::NoHoldoutTargets {
            holdout_rows: holdout.len(),
        });
    }

    let params = opts
        .params
        .clone()
        .unwrap_or_else(|| baseline.artifact().params.clone());
    let learner = PnruleLearner::new(params.clone()).with_sink(Arc::clone(sink));
    let fitted = {
        let _span = Span::enter(sink.as_ref(), SpanKind::RefitFit, target_class);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            learner.fit_checkpointed(&train, target, store)
        }))
    };
    let (model, report) = match fitted {
        Ok(v) => v,
        Err(payload) => {
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            return Err(RefitError::FitPanicked { detail });
        }
    };
    let candidate = ModelArtifact::new(model, params, report, window.schema().clone())?;

    let eval = {
        let _span = Span::enter(sink.as_ref(), SpanKind::RefitValidate, target_class);
        let candidate_serving = ServingModel::new(candidate.clone());
        let holdout_ids = || holdout.iter().map(|&r| r as usize);
        RefitEval {
            candidate_recall: recall_on_rows(&candidate_serving, window, holdout_ids(), target)?,
            baseline_recall: recall_on_rows(baseline, window, holdout_ids(), target)?,
            train_rows: train.n_rows(),
            holdout_rows: holdout.len(),
            holdout_targets,
        }
    };
    if eval.candidate_recall + opts.recall_tolerance < eval.baseline_recall {
        return Err(RefitError::RecallRegression {
            candidate: eval.candidate_recall,
            baseline: eval.baseline_recall,
            tolerance: opts.recall_tolerance,
        });
    }
    Ok((candidate, eval))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_data::{AttrType, DatasetBuilder, Value};

    /// A window where the target hides at x > 50 under k = "ftp".
    fn window(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("k", AttrType::Categorical);
        for i in 0..n {
            let x = f64::from(u32::try_from(i % 100).unwrap_or(0));
            let k = if i % 3 == 0 { "ftp" } else { "http" };
            let target = x > 50.0 && k == "ftp";
            b.push_row(
                &[Value::num(x), Value::cat(k)],
                if target { "rare" } else { "rest" },
                1.0,
            )
            .unwrap();
        }
        b.finish()
    }

    fn baseline_artifact(data: &Dataset) -> ModelArtifact {
        let target = data.class_code("rare").unwrap();
        let learner = PnruleLearner::new(PnruleParams::default());
        let (model, report) =
            learner.fit_checkpointed(data, target, &FitCheckpointStore::disabled());
        ModelArtifact::new(
            model,
            PnruleParams::default(),
            report,
            data.schema().clone(),
        )
        .unwrap()
    }

    #[test]
    fn split_window_gathers_the_training_rows_under_the_window_schema() {
        let data = window(90);
        let (train, holdout) = split_window(&data, 3);
        assert_eq!(train.n_rows(), 60);
        assert_eq!(holdout, (0..30).map(|i| 3 * i + 2).collect::<Vec<u32>>());
        assert_eq!(
            train.schema().fingerprint(),
            data.schema().fingerprint(),
            "the training slice must keep the window's codes"
        );
        assert_eq!(train.label(2), data.label(3));
        assert_eq!(train.num(0, 2), data.num(0, 3));
    }

    /// Targets only on rows the fit sees: the held-back slice has none,
    /// so both recalls would be a vacuous 0.0 and the candidate would
    /// pass unvalidated.
    #[test]
    fn holdout_without_targets_is_refused() {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        for i in 0..600u32 {
            let x = f64::from(i % 100);
            let target = x > 50.0 && i % 5 != 4;
            b.push_row(&[Value::num(x)], if target { "rare" } else { "rest" }, 1.0)
                .unwrap();
        }
        let data = b.finish();
        let baseline = ServingModel::new(baseline_artifact(&data));
        let err = refit_window(
            &data,
            "rare",
            &baseline,
            &RefitOptions::default(),
            &FitCheckpointStore::disabled(),
            &pnr_telemetry::noop(),
        )
        .unwrap_err();
        assert!(
            matches!(err, RefitError::NoHoldoutTargets { holdout_rows: 120 }),
            "{err}"
        );
        assert!(err.to_string().starts_with("NoHoldoutTargets:"), "{err}");
    }

    #[test]
    fn refit_on_the_same_distribution_validates() {
        let data = window(600);
        let baseline = ServingModel::new(baseline_artifact(&data));
        let (candidate, eval) = refit_window(
            &data,
            "rare",
            &baseline,
            &RefitOptions::default(),
            &FitCheckpointStore::disabled(),
            &pnr_telemetry::noop(),
        )
        .unwrap();
        assert!(eval.candidate_recall >= eval.baseline_recall - 0.05);
        assert!(eval.holdout_rows > 0 && eval.train_rows > 0);
        assert_eq!(eval.holdout_rows + eval.train_rows, 600);
        assert!(candidate.lineage.is_none(), "lineage is the caller's job");
        assert_eq!(candidate.target_class(), "rare");
    }

    #[test]
    fn thin_windows_are_refused() {
        let data = window(90);
        let baseline = ServingModel::new(baseline_artifact(&data));
        let opts = RefitOptions {
            min_target_rows: 1000,
            ..RefitOptions::default()
        };
        let err = refit_window(
            &data,
            "rare",
            &baseline,
            &opts,
            &FitCheckpointStore::disabled(),
            &pnr_telemetry::noop(),
        )
        .unwrap_err();
        assert!(matches!(err, RefitError::TooFewTargetRows { .. }), "{err}");
    }

    #[test]
    fn missing_target_class_is_typed() {
        let data = window(60);
        let baseline = ServingModel::new(baseline_artifact(&data));
        let err = refit_window(
            &data,
            "no-such-class",
            &baseline,
            &RefitOptions::default(),
            &FitCheckpointStore::disabled(),
            &pnr_telemetry::noop(),
        )
        .unwrap_err();
        assert!(matches!(err, RefitError::TargetMissing { .. }), "{err}");
    }

    #[test]
    fn bad_stride_is_refused() {
        let data = window(60);
        let baseline = ServingModel::new(baseline_artifact(&data));
        let err = refit_window(
            &data,
            "rare",
            &baseline,
            &RefitOptions {
                holdout_stride: 1,
                ..RefitOptions::default()
            },
            &FitCheckpointStore::disabled(),
            &pnr_telemetry::noop(),
        )
        .unwrap_err();
        assert!(matches!(err, RefitError::BadHoldoutStride { .. }), "{err}");
    }
}
