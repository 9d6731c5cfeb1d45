//! Corruption fault-injection and round-trip suite for model artifacts.
//!
//! The load-path contract under test: a clean round-trip scores
//! bit-identically, *every* single-byte corruption of a saved artifact
//! surfaces as `ChecksumMismatch` (never a panic, never a silently
//! different model), truncations and malformed files produce typed
//! errors, and a future format version is only reported as such through
//! an intact checksum.

use pnr_core::{ArtifactError, ModelArtifact, PnruleLearner, PnruleParams, FORMAT_VERSION};
use pnr_data::{AttrType, Dataset, DatasetBuilder, Value};
use pnr_rules::BinaryClassifier;
use proptest::prelude::*;
use std::path::Path;

/// An intrusion-detection-like mixed-type dataset: a numeric band plus a
/// categorical service column, with the rare class hiding in one corner.
fn intrusion_like(n: usize, phase: usize) -> Dataset {
    let mut b = DatasetBuilder::new();
    b.add_attribute("x", AttrType::Numeric);
    b.add_attribute("service", AttrType::Categorical);
    b.add_class("r2l");
    b.add_class("rest");
    for i in 0..n {
        let x = ((i * 7 + phase * 3) % 100) as f64;
        let k = match i % 4 {
            0 => "dos",
            1 => "web",
            _ => "ok",
        };
        let target = (40.0..60.0).contains(&x) && k == "dos";
        b.push_row(
            &[Value::num(x), Value::cat(k)],
            if target { "r2l" } else { "rest" },
            1.0,
        )
        .unwrap();
    }
    b.finish()
}

fn trained_artifact() -> (ModelArtifact, Dataset) {
    let train = intrusion_like(600, 0);
    let held_out = intrusion_like(400, 1);
    let target = train.class_code("r2l").unwrap();
    let params = PnruleParams::default();
    let (model, report) = PnruleLearner::new(params.clone()).fit_with_report(&train, target);
    let artifact = ModelArtifact::new(model, params, report, train.schema().clone())
        .expect("trained model must validate against its own schema");
    (artifact, held_out)
}

#[test]
fn round_trip_scores_bit_identically() {
    let (artifact, held_out) = trained_artifact();
    let text = artifact.to_file_string().unwrap();
    let back = ModelArtifact::from_file_str(&text).unwrap();
    assert_eq!(back.model.p_rules, artifact.model.p_rules);
    assert_eq!(back.model.n_rules, artifact.model.n_rules);
    assert_eq!(back.model.score_matrix, artifact.model.score_matrix);
    assert_eq!(back.params, artifact.params);
    assert_eq!(back.schema_fingerprint(), artifact.schema_fingerprint());
    assert_eq!(back.target_class(), artifact.target_class());
    for row in 0..held_out.n_rows() {
        assert_eq!(
            back.model.score(&held_out, row).to_bits(),
            artifact.model.score(&held_out, row).to_bits(),
            "row {row} must score bit-identically after a round trip"
        );
    }
}

#[test]
fn save_and_load_round_trip_through_disk() {
    let (artifact, held_out) = trained_artifact();
    let dir = std::env::temp_dir().join(format!("pnr_artifact_{}", std::process::id()));
    let path = dir.join("model.artifact");
    artifact.save(&path).unwrap();
    assert!(
        !dir.join("model.artifact.tmp").exists(),
        "atomic save must leave no tmp file behind"
    );
    let back = ModelArtifact::load(&path).unwrap();
    for row in 0..held_out.n_rows() {
        assert_eq!(
            back.model.score(&held_out, row).to_bits(),
            artifact.model.score(&held_out, row).to_bits()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_single_byte_flip_is_a_checksum_mismatch() {
    let (artifact, _) = trained_artifact();
    let text = artifact.to_file_string().unwrap();
    let bytes = text.as_bytes();
    for i in 0..bytes.len() {
        for mask in [0x01u8, 0x20, 0x80] {
            // from_file_bytes is the `load` path: even a flip that breaks
            // the UTF-8 encoding must classify as a checksum mismatch.
            let mut corrupt = bytes.to_vec();
            corrupt[i] ^= mask;
            match ModelArtifact::from_file_bytes(&corrupt) {
                Err(ArtifactError::ChecksumMismatch) => {}
                Err(other) => panic!(
                    "flip at byte {i} mask {mask:#04x}: expected ChecksumMismatch, got {other}"
                ),
                Ok(_) => panic!("flip at byte {i} mask {mask:#04x} loaded silently"),
            }
        }
    }
}

#[test]
fn truncations_never_panic_and_never_load() {
    let (artifact, _) = trained_artifact();
    let text = artifact.to_file_string().unwrap();
    // every prefix length across the envelope boundary plus a spread of
    // points through the body
    let mut cut_points: Vec<usize> = (0..30).collect();
    cut_points.extend((30..text.len()).step_by(97));
    for cut in cut_points {
        let truncated = &text[..cut.min(text.len())];
        match ModelArtifact::from_file_str(truncated) {
            Ok(_) => panic!("truncation to {cut} bytes loaded successfully"),
            Err(
                ArtifactError::ChecksumMismatch
                | ArtifactError::Malformed { .. }
                | ArtifactError::UnsupportedVersion { .. },
            ) => {}
            Err(other) => panic!("truncation to {cut} bytes: unexpected error {other}"),
        }
    }
}

#[test]
fn empty_file_is_malformed() {
    match ModelArtifact::from_file_str("") {
        Err(ArtifactError::Malformed { .. }) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn future_version_is_only_reported_through_an_intact_checksum() {
    // Build a payload claiming format v999 and wrap it in a *correct*
    // checksum: the version error must surface, not a checksum error.
    let payload = format!("pnrule-artifact v999\n{}", "{}");
    let digest = pnr_data::fingerprint::fnv1a_64(payload.as_bytes());
    let text = format!("{digest:016x}\n{payload}");
    match ModelArtifact::from_file_str(&text) {
        Err(ArtifactError::UnsupportedVersion { found: 999 }) => {}
        other => panic!("expected UnsupportedVersion {{ found: 999 }}, got {other:?}"),
    }
    // ... and with one payload byte flipped the checksum takes priority.
    let tampered = text.replace("v999", "v998");
    match ModelArtifact::from_file_str(&tampered) {
        Err(ArtifactError::ChecksumMismatch) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn bad_magic_with_correct_checksum_is_malformed() {
    let payload = "not-an-artifact v1\n{}";
    let digest = pnr_data::fingerprint::fnv1a_64(payload.as_bytes());
    let text = format!("{digest:016x}\n{payload}");
    match ModelArtifact::from_file_str(&text) {
        Err(ArtifactError::Malformed { .. }) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn inconsistent_schema_fingerprint_is_malformed() {
    let (artifact, _) = trained_artifact();
    let text = artifact.to_file_string().unwrap();
    let (_, payload) = text.split_once('\n').unwrap();
    // flip the stored fingerprint, then re-wrap with a fresh (correct)
    // checksum so only the cross-check can catch it
    let fp = format!("\"schema_fingerprint\":{}", artifact.schema_fingerprint());
    assert!(payload.contains(&fp), "fixture assumes compact JSON field");
    let tampered = payload.replace(&fp, "\"schema_fingerprint\":1");
    let digest = pnr_data::fingerprint::fnv1a_64(tampered.as_bytes());
    match ModelArtifact::from_file_str(&format!("{digest:016x}\n{tampered}")) {
        Err(ArtifactError::Malformed { detail }) => {
            assert!(detail.contains("fingerprint"), "{detail}");
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
}

#[test]
fn golden_fixture_truncated_file() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/truncated.artifact");
    let text = std::fs::read_to_string(path).unwrap();
    match ModelArtifact::from_file_str(&text) {
        Err(ArtifactError::ChecksumMismatch) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn golden_fixture_future_version_header() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/future_version.artifact");
    let text = std::fs::read_to_string(path).unwrap();
    match ModelArtifact::from_file_str(&text) {
        Err(ArtifactError::UnsupportedVersion { found: 999 }) => {}
        other => panic!("expected UnsupportedVersion {{ found: 999 }}, got {other:?}"),
    }
}

#[test]
fn current_format_version_is_one() {
    // The golden fixtures encode v999 as "the future"; this pins the
    // present so bumping FORMAT_VERSION forces a fixture review.
    assert_eq!(FORMAT_VERSION, 1);
}

#[test]
fn non_finite_thresholds_cannot_reach_disk() {
    // Regression: serde renders NaN/±inf as `null`, so an artifact holding
    // a non-finite threshold used to save fine and then fail (or change
    // meaning) on reload. Save must refuse with the typed error instead.
    use pnr_rules::{Condition, Rule, RuleSet};
    let (artifact, _) = trained_artifact();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for (mutate_p, make_cond) in [
            (
                true,
                Condition::NumLe {
                    attr: 0,
                    value: bad,
                },
            ),
            (
                false,
                Condition::NumGt {
                    attr: 0,
                    value: bad,
                },
            ),
            (
                true,
                Condition::NumRange {
                    attr: 0,
                    lo: 0.0,
                    hi: bad,
                },
            ),
        ] {
            // assemble via the public fields, bypassing `new`'s validation
            let mut tampered = artifact.clone();
            let inject = |rules: &RuleSet| {
                let mut list: Vec<Rule> = rules.rules().to_vec();
                list.push(Rule::new(vec![make_cond.clone()]));
                RuleSet::from_rules(list)
            };
            let (list, bad_rank) = if mutate_p {
                tampered.model.p_rules = inject(&tampered.model.p_rules);
                ("P", tampered.model.p_rules.len() - 1)
            } else {
                tampered.model.n_rules = inject(&tampered.model.n_rules);
                ("N", tampered.model.n_rules.len() - 1)
            };
            match tampered.to_file_string() {
                Err(ArtifactError::NonFiniteThreshold { list: l, rule }) => {
                    assert_eq!((l, rule), (list, bad_rank), "wrong locus for {bad}");
                }
                other => panic!("threshold {bad}: expected NonFiniteThreshold, got {other:?}"),
            }
            let dir = std::env::temp_dir().join(format!("pnr_nonfinite_{}", std::process::id()));
            let path = dir.join("model.artifact");
            assert!(
                matches!(
                    tampered.save(&path),
                    Err(ArtifactError::NonFiniteThreshold { .. })
                ),
                "save must refuse a non-finite threshold"
            );
            assert!(!path.exists(), "no file may be written for {bad}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    // a clean artifact still round-trips
    let back = ModelArtifact::from_file_str(&artifact.to_file_string().unwrap()).unwrap();
    assert_eq!(back.model.p_rules, artifact.model.p_rules);
}

/// A validated artifact over `intrusion_like`'s schema (`x` numeric,
/// `service` categorical) with one P-rule (`x ≤ 50`) and one N-rule
/// (`service = web`), so either list can be tampered in place.
fn hand_built_artifact() -> ModelArtifact {
    use pnr_core::{PnruleModel, ScoreMatrix};
    use pnr_rules::{Condition, Rule, RuleSet};
    let d = intrusion_like(200, 0);
    let target = d.class_code("r2l").unwrap();
    let is_pos: Vec<bool> = (0..d.n_rows()).map(|r| d.label(r) == target).collect();
    let web = d.schema().attr(1).dict.code("web").unwrap();
    let p_rules = RuleSet::from_rules(vec![Rule::new(vec![Condition::NumLe {
        attr: 0,
        value: 50.0,
    }])]);
    let n_rules = RuleSet::from_rules(vec![Rule::new(vec![Condition::CatEq {
        attr: 1,
        value: web,
    }])]);
    let score_matrix = ScoreMatrix::build(&d, &is_pos, &p_rules, &n_rules, 1.0);
    let model = PnruleModel {
        target,
        threshold: 0.5,
        p_rules,
        n_rules,
        score_matrix,
    };
    let params = PnruleParams::default();
    let (_, report) = PnruleLearner::new(params.clone()).fit_with_report(&d, target);
    ModelArtifact::new(model, params, report, d.schema().clone()).unwrap()
}

#[test]
fn conditions_of_the_wrong_kind_cannot_be_saved_or_loaded() {
    // A `CatEq` on the numeric `x` and a threshold on the categorical
    // `service`, in either rule list: `save` refuses them, and a body
    // carrying one is refused on load even under a correct checksum.
    use pnr_rules::{Condition, Rule, RuleSet};
    let artifact = hand_built_artifact();
    let text = artifact.to_file_string().unwrap();
    let (_, payload) = text.split_once('\n').unwrap();
    let dir = std::env::temp_dir().join(format!("pnr_kind_{}", std::process::id()));
    let path = dir.join("model.artifact");
    for (cond, wrong) in [
        (
            Condition::CatEq { attr: 0, value: 0 },
            "category equality on numeric attribute `x`",
        ),
        (
            Condition::NumGt {
                attr: 1,
                value: 0.5,
            },
            "a numeric threshold on categorical attribute `service`",
        ),
    ] {
        for list in ["P", "N"] {
            let mut tampered = artifact.clone();
            let rules = match list {
                "P" => &mut tampered.model.p_rules,
                _ => &mut tampered.model.n_rules,
            };
            let clean = serde_json::to_string(&*rules).unwrap();
            *rules = RuleSet::from_rules(vec![Rule::new(vec![cond.clone()])]);
            let dirty = serde_json::to_string(&*rules).unwrap();
            let what = format!("{list}-rule 0 tests {wrong}");

            match tampered.save(&path) {
                Err(ArtifactError::Malformed { detail }) => {
                    assert!(detail.contains(&what), "{detail}");
                }
                other => panic!("save {what}: expected Malformed, got {other:?}"),
            }
            assert!(!path.exists(), "no file may be written for {what}");

            assert_eq!(payload.matches(&clean).count(), 1, "{list} list not unique");
            let body = payload.replace(&clean, &dirty);
            let digest = pnr_data::fingerprint::fnv1a_64(body.as_bytes());
            match ModelArtifact::from_file_str(&format!("{digest:016x}\n{body}")) {
                Err(ArtifactError::Malformed { detail }) => {
                    assert!(detail.contains(&what), "{detail}");
                }
                other => panic!("load {what}: expected Malformed, got {other:?}"),
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn error_displays_lead_with_the_variant_name() {
    assert!(ArtifactError::ChecksumMismatch
        .to_string()
        .starts_with("ChecksumMismatch"));
    assert!(ArtifactError::UnsupportedVersion { found: 9 }
        .to_string()
        .starts_with("UnsupportedVersion"));
    assert!(ArtifactError::SchemaMismatch {
        detail: "x".to_string()
    }
    .to_string()
    .starts_with("SchemaMismatch"));
    assert!(ArtifactError::Malformed {
        detail: "x".to_string()
    }
    .to_string()
    .starts_with("Malformed"));
    assert!(ArtifactError::RetriesExhausted {
        attempts: 3,
        last: Box::new(ArtifactError::ChecksumMismatch)
    }
    .to_string()
    .starts_with("RetriesExhausted"));
}

#[test]
fn load_with_retry_succeeds_and_scores_identically() {
    let (artifact, _) = trained_artifact();
    let dir = std::env::temp_dir().join(format!("pnr_retry_ok_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.artifact");
    artifact.save(&path).unwrap();
    let back = pnr_core::load_with_retry(&path, &pnr_core::RetryPolicy::default()).unwrap();
    assert_eq!(back.schema_fingerprint(), artifact.schema_fingerprint());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_with_retry_reports_deterministic_failures_immediately() {
    // A missing file is not transient: exactly one attempt, a plain `Io`
    // error (not `RetriesExhausted`), and no backoff delay.
    let start = std::time::Instant::now();
    let err = pnr_core::load_with_retry(
        Path::new("/nonexistent/never/m.artifact"),
        &pnr_core::RetryPolicy::default(),
    )
    .unwrap_err();
    assert!(matches!(err, ArtifactError::Io(_)), "{err}");
    assert!(
        start.elapsed() < std::time::Duration::from_millis(500),
        "a deterministic failure must not back off"
    );
}

#[test]
fn retry_transient_backs_off_then_gives_up_typed() {
    let policy = pnr_core::RetryPolicy {
        attempts: 3,
        base_delay: std::time::Duration::from_millis(1),
        max_delay: std::time::Duration::from_millis(2),
    };
    // Always-transient failures: all attempts consumed, typed give-up.
    let mut calls = 0u32;
    let err = pnr_core::retry_transient(
        &policy,
        |_| true,
        || -> Result<(), ArtifactError> {
            calls += 1;
            Err(ArtifactError::Io(std::io::Error::from(
                std::io::ErrorKind::TimedOut,
            )))
        },
    )
    .unwrap_err();
    assert_eq!(calls, 3);
    match err {
        ArtifactError::RetriesExhausted { attempts, last } => {
            assert_eq!(attempts, 3);
            assert!(matches!(*last, ArtifactError::Io(_)));
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }

    // Success on a later attempt clears the error.
    let mut calls = 0u32;
    let ok = pnr_core::retry_transient(
        &policy,
        |_| true,
        || {
            calls += 1;
            if calls < 3 {
                Err(ArtifactError::Io(std::io::Error::from(
                    std::io::ErrorKind::Interrupted,
                )))
            } else {
                Ok(42u32)
            }
        },
    )
    .unwrap();
    assert_eq!(ok, 42);
    assert_eq!(calls, 3);
}

#[test]
fn retry_policy_delays_grow_and_cap() {
    let policy = pnr_core::RetryPolicy {
        attempts: 10,
        base_delay: std::time::Duration::from_millis(10),
        max_delay: std::time::Duration::from_millis(35),
    };
    assert_eq!(policy.delay(0), std::time::Duration::from_millis(10));
    assert_eq!(policy.delay(1), std::time::Duration::from_millis(20));
    assert_eq!(policy.delay(2), std::time::Duration::from_millis(35));
    assert_eq!(policy.delay(31), std::time::Duration::from_millis(35));
    assert_eq!(policy.delay(40), std::time::Duration::from_millis(35));
    // transient classification covers exactly the retryable kinds
    for kind in [
        std::io::ErrorKind::Interrupted,
        std::io::ErrorKind::WouldBlock,
        std::io::ErrorKind::TimedOut,
    ] {
        assert!(pnr_core::is_transient_io(&std::io::Error::from(kind)));
    }
    for kind in [
        std::io::ErrorKind::NotFound,
        std::io::ErrorKind::PermissionDenied,
    ] {
        assert!(!pnr_core::is_transient_io(&std::io::Error::from(kind)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `load(save(m))` scores bit-identically on held-out data, for
    /// models trained on arbitrary datasets.
    #[test]
    fn round_trip_property(rows in prop::collection::vec(
        (0.0f64..100.0, 0usize..3, prop::bool::ANY), 40..200
    )) {
        let mut b = DatasetBuilder::new();
        b.add_attribute("x", AttrType::Numeric);
        b.add_attribute("k", AttrType::Categorical);
        b.add_class("pos");
        b.add_class("neg");
        let cats = ["a", "b", "c"];
        for &(x, k, p) in &rows {
            b.push_row(
                &[Value::num(x), Value::cat(cats[k])],
                if p { "pos" } else { "neg" },
                1.0,
            ).unwrap();
        }
        let train = b.finish();
        let params = PnruleParams::default();
        let (model, report) =
            PnruleLearner::new(params.clone()).fit_with_report(&train, 0);
        let artifact =
            ModelArtifact::new(model, params, report, train.schema().clone()).unwrap();
        let back = ModelArtifact::from_file_str(&artifact.to_file_string().unwrap()).unwrap();
        let held_out = intrusion_like(120, 2);
        // held-out data shares attribute layout (x numeric, cat second),
        // so scoring is well-defined even though categories differ
        for row in 0..train.n_rows() {
            prop_assert_eq!(
                back.model.score(&train, row).to_bits(),
                artifact.model.score(&train, row).to_bits()
            );
        }
        for row in 0..held_out.n_rows() {
            prop_assert_eq!(
                back.model.score(&held_out, row).to_bits(),
                artifact.model.score(&held_out, row).to_bits()
            );
        }
    }
}
