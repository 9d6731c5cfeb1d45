//! Output checks. Every timed output passes one of these before any of
//! its timings is reported; a failed check fails the run.

use crate::json::{self, Json};
use pnr_core::{file_checksum, ColumnMap, ModelArtifact, ServingModel};
use serde::Content;
use std::path::Path;
use std::time::Instant;

/// What the oracle expects for one scored row.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub score: f64,
    pub decision: bool,
    pub abstained: bool,
    pub unknown_values: u64,
}

/// Scores `fields` in process, and passes the score through the same
/// JSON round trip a reply takes: the program's writer, then the
/// benchmark's reader.
pub fn expect_row(
    model: &ServingModel,
    map: &ColumnMap,
    fields: &[String],
) -> Result<Expected, String> {
    let rec = model
        .score_fields(fields, map)
        .map_err(|e| format!("oracle cannot score a traffic row: {e}"))?;
    let text = serde_json::to_string(&Content::F64(rec.score)).map_err(|e| e.to_string())?;
    let score = json::parse(&text)?
        .f64()
        .ok_or_else(|| format!("score {text} does not read back as a number"))?;
    Ok(Expected {
        score,
        decision: rec.decision,
        abstained: rec.abstained,
        unknown_values: rec.unknown_values as u64,
    })
}

/// Checks one `score` reply against the oracle's rows and returns the
/// epoch it was served on.
pub fn check_score_reply(reply: &str, expected: &[Expected]) -> Result<u64, String> {
    let v = json::parse(reply).map_err(|e| format!("unreadable reply ({e}): {reply:.200}"))?;
    if v.get("ok").and_then(Json::bool) != Some(true)
        || v.get("reply").and_then(Json::str) != Some("score")
    {
        return Err(format!("reply is not an ok score: {reply:.200}"));
    }
    let scored = v.get("scored").and_then(Json::u64);
    if scored != Some(expected.len() as u64) || v.get("errors").and_then(Json::u64) != Some(0) {
        return Err(format!(
            "reply scored {scored:?} of {} rows: {reply:.200}",
            expected.len()
        ));
    }
    let results = v.get("results").and_then(Json::arr).unwrap_or(&[]);
    if results.len() != expected.len() {
        return Err(format!(
            "reply has {} results for {} rows",
            results.len(),
            expected.len()
        ));
    }
    for (i, (got, want)) in results.iter().zip(expected).enumerate() {
        let score = got.get("score").and_then(Json::f64);
        let same = score.map(f64::to_bits) == Some(want.score.to_bits())
            && got.get("decision").and_then(Json::bool) == Some(want.decision)
            && got.get("abstained").and_then(Json::bool) == Some(want.abstained)
            && got.get("unknown_values").and_then(Json::u64) == Some(want.unknown_values);
        if !same {
            return Err(format!(
                "row {i}: daemon answered {got:?}, oracle expects {want:?}"
            ));
        }
    }
    v.get("epoch")
        .and_then(Json::u64)
        .ok_or_else(|| "reply carries no epoch".to_string())
}

/// Checks a trained artifact on disk: its envelope checksum verifies,
/// the loaded copy renders to the same checksum, and it equals the
/// oracle fit — the same rule counts and bit-identical scores and
/// decisions on every probe row.
pub fn check_artifact(
    path: &Path,
    loaded: &ModelArtifact,
    oracle: &ModelArtifact,
    probe: &[Vec<String>],
) -> Result<(), String> {
    let on_disk = file_checksum(path).map_err(|e| format!("artifact does not verify: {e}"))?;
    let in_memory = loaded.checksum().map_err(|e| e.to_string())?;
    if on_disk != in_memory {
        return Err(format!(
            "artifact checksum {on_disk} but it loads as {in_memory}"
        ));
    }
    let shape = |a: &ModelArtifact| (a.model.p_rules.len(), a.model.n_rules.len());
    if shape(loaded) != shape(oracle) {
        return Err(format!(
            "trained model has (P, N) rules {:?}, the in-memory fit {:?}",
            shape(loaded),
            shape(oracle)
        ));
    }
    let serving = |a: &ModelArtifact| -> Result<(ServingModel, ColumnMap), String> {
        let model = ServingModel::new(a.clone());
        let map = model
            .reconcile_header(pnr_kddsim::ATTR_NAMES)
            .map_err(|e| e.to_string())?;
        Ok((model, map))
    };
    let (got, got_map) = serving(loaded)?;
    let (want, want_map) = serving(oracle)?;
    for (i, row) in probe.iter().enumerate() {
        let a = got.score_fields(row, &got_map).map_err(|e| e.to_string())?;
        let b = want
            .score_fields(row, &want_map)
            .map_err(|e| e.to_string())?;
        if a.score.to_bits() != b.score.to_bits() || a.decision != b.decision {
            return Err(format!(
                "probe row {i}: trained model scores {} ({}), the in-memory fit {} ({})",
                a.score, a.decision, b.score, b.decision
            ));
        }
    }
    Ok(())
}

/// One published refit episode as the benchmark saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Episode {
    pub epoch: u64,
    pub parent_checksum: String,
    pub checksum: String,
}

/// Checks that every episode published on the epoch right after the
/// previous one and named the previously active model as its parent.
pub fn check_episodes(
    first_epoch: u64,
    first_checksum: &str,
    episodes: &[Episode],
) -> Result<(), String> {
    let mut epoch = first_epoch;
    let mut active = first_checksum;
    for (i, e) in episodes.iter().enumerate() {
        if e.epoch != epoch + 1 {
            return Err(format!(
                "episode {i} published epoch {} after epoch {epoch}",
                e.epoch
            ));
        }
        if e.parent_checksum != active {
            return Err(format!(
                "episode {i} names parent {} but {active} was active",
                e.parent_checksum
            ));
        }
        epoch = e.epoch;
        active = &e.checksum;
    }
    Ok(())
}

/// Checks that scoring replies carry the epoch that was active when
/// they were sent: epochs never fall along the connection, and a request
/// sent after the swap to epoch `e` was acknowledged is served on `e` or
/// later. `replies` are `(sent, epoch)` in send order; `swaps` are
/// `(acknowledged, epoch)` in order.
pub fn check_reply_epochs(
    replies: &[(Instant, u64)],
    swaps: &[(Instant, u64)],
) -> Result<(), String> {
    let mut last = 0;
    let mut swap = 0;
    let mut floor = 0;
    for (i, &(sent, epoch)) in replies.iter().enumerate() {
        while swap < swaps.len() && swaps[swap].0 <= sent {
            floor = swaps[swap].1;
            swap += 1;
        }
        if epoch < last {
            return Err(format!(
                "reply {i} on epoch {epoch} after a reply on epoch {last}"
            ));
        }
        if epoch < floor {
            return Err(format!(
                "reply {i} served on epoch {epoch} although epoch {floor} was live when it was sent"
            ));
        }
        last = epoch;
    }
    Ok(())
}

/// Checks the daemon's own accounting: every submitted request was
/// either served or shed.
pub fn check_accounting(served: u64, shed: u64, submitted: u64) -> Result<(), String> {
    if served + shed != submitted {
        return Err(format!(
            "daemon served {served} and shed {shed} but {submitted} requests were submitted"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr_core::{PnruleLearner, PnruleParams};
    use std::time::Duration;

    fn small_artifact(seed: u64) -> ModelArtifact {
        let data = pnr_kddsim::generate_train(3_000, seed);
        let target = data.class_code("dos").unwrap();
        let params = PnruleParams::default();
        let (model, report) = PnruleLearner::new(params.clone()).fit_with_report(&data, target);
        ModelArtifact::new(model, params, report, data.schema().clone()).unwrap()
    }

    fn rows(n: usize, seed: u64) -> Vec<Vec<String>> {
        let data = pnr_kddsim::generate_test(n, seed);
        (0..n).map(|r| pnr_kddsim::row_fields(&data, r)).collect()
    }

    fn reply_for(expected: &[Expected], epoch: u64) -> String {
        let results = expected
            .iter()
            .map(|e| {
                Content::Map(vec![
                    ("score".to_string(), Content::F64(e.score)),
                    ("decision".to_string(), Content::Bool(e.decision)),
                    ("abstained".to_string(), Content::Bool(e.abstained)),
                    ("unknown_values".to_string(), Content::U64(e.unknown_values)),
                ])
            })
            .collect();
        pnr_serve::ok_line(
            "score",
            vec![
                ("id", Content::Str("x".to_string())),
                ("epoch", Content::U64(epoch)),
                ("degraded", Content::Bool(false)),
                ("scored", Content::U64(expected.len() as u64)),
                ("errors", Content::U64(0)),
                ("results", Content::Seq(results)),
            ],
        )
    }

    #[test]
    fn score_check_fails_when_one_score_or_decision_is_perturbed() {
        let model = ServingModel::new(small_artifact(1));
        let map = model.reconcile_header(pnr_kddsim::ATTR_NAMES).unwrap();
        let expected: Vec<Expected> = rows(40, 2)
            .iter()
            .map(|r| expect_row(&model, &map, r).unwrap())
            .collect();
        let reply = reply_for(&expected, 3);
        assert_eq!(check_score_reply(&reply, &expected), Ok(3));

        let mut bumped = expected.clone();
        bumped[17].score = f64::from_bits(bumped[17].score.to_bits() + 1);
        assert!(check_score_reply(&reply_for(&bumped, 3), &expected).is_err());
        assert!(check_score_reply(&reply, &bumped).is_err());
        let mut flipped = expected.clone();
        flipped[0].decision = !flipped[0].decision;
        assert!(check_score_reply(&reply_for(&flipped, 3), &expected).is_err());
        assert!(check_score_reply(&reply_for(&expected[1..], 3), &expected).is_err());
        assert!(check_score_reply(r#"{"ok":false,"error":"queue_full"}"#, &expected).is_err());
    }

    #[test]
    fn artifact_check_fails_on_a_flipped_byte_or_a_different_model() {
        let dir = std::env::temp_dir().join(format!("e2ebench-oracle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.artifact");
        let artifact = small_artifact(5);
        artifact.save(&path).unwrap();
        let loaded = ModelArtifact::load(&path).unwrap();
        let probe = rows(200, 6);
        assert_eq!(check_artifact(&path, &loaded, &artifact, &probe), Ok(()));

        // a model that decides differently on the probe rows
        let mut other = artifact.clone();
        other.model.threshold = -1.0;
        assert!(check_artifact(&path, &loaded, &other, &probe).is_err());

        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        assert!(check_artifact(&path, &loaded, &artifact, &probe).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn episode_check_fails_when_one_epoch_or_checksum_is_perturbed() {
        let ep = |epoch: u64, parent: &str, sum: &str| Episode {
            epoch,
            parent_checksum: parent.to_string(),
            checksum: sum.to_string(),
        };
        let good = vec![ep(2, "a", "b"), ep(3, "b", "c"), ep(4, "c", "d")];
        assert_eq!(check_episodes(1, "a", &good), Ok(()));
        let mut skipped = good.clone();
        skipped[1].epoch = 4;
        assert!(check_episodes(1, "a", &skipped).is_err());
        let mut orphan = good.clone();
        orphan[2].parent_checksum = "b".to_string();
        assert!(check_episodes(1, "a", &orphan).is_err());
        assert!(check_episodes(1, "z", &good).is_err());
    }

    #[test]
    fn reply_epoch_check_fails_when_one_epoch_is_perturbed() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let swaps = vec![(at(10), 2), (at(20), 3)];
        let replies = vec![
            (at(1), 1),
            (at(9), 1),
            (at(11), 2),
            (at(15), 2),
            (at(21), 3),
        ];
        assert_eq!(check_reply_epochs(&replies, &swaps), Ok(()));
        let mut stale = replies.clone();
        stale[4].1 = 2;
        assert!(check_reply_epochs(&stale, &swaps).is_err());
        let mut backwards = replies.clone();
        backwards[3].1 = 1;
        assert!(check_reply_epochs(&backwards, &swaps).is_err());
        assert!(check_accounting(10, 2, 12).is_ok());
        assert!(check_accounting(10, 2, 13).is_err());
    }
}
