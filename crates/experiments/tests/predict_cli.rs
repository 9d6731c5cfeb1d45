//! End-to-end drift and corruption checks on the serving binaries:
//! `predict` never panics on drifted CSV, follows the unknown-value
//! policies exactly, reports counters matching the injected fault
//! counts, and refuses corrupted artifacts with a `ChecksumMismatch`
//! line and a non-zero exit; `inspect` and `kdd_csv` reject bad names
//! with exit code 2 and a list of valid spellings.

use pnr_core::{ModelArtifact, PnruleLearner, PnruleParams};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pnr_predict_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Trains a tiny dos-vs-rest model on the KDD simulation and saves it as
/// an artifact under `dir`.
fn make_artifact(dir: &Path) -> PathBuf {
    let train = pnr_kddsim::generate_train(2_000, 7);
    let target = train.class_code("dos").unwrap();
    let params = PnruleParams::default();
    let (model, report) = PnruleLearner::new(params.clone()).fit_with_report(&train, target);
    let artifact = ModelArtifact::new(model, params, report, train.schema().clone()).unwrap();
    let path = dir.join("dos.artifact");
    artifact.save(&path).unwrap();
    path
}

fn run(bin: &str, args: &[&str]) -> Output {
    let exe = match bin {
        "predict" => env!("CARGO_BIN_EXE_predict"),
        "kdd_csv" => env!("CARGO_BIN_EXE_kdd_csv"),
        "inspect" => env!("CARGO_BIN_EXE_inspect"),
        other => panic!("unknown binary {other}"),
    };
    Command::new(exe).args(args).output().unwrap()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).to_string()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

#[test]
fn predict_scores_a_clean_generated_csv() {
    let dir = temp_dir("clean");
    let artifact = make_artifact(&dir);
    let csv = dir.join("in.csv");
    let out = run(
        "kdd_csv",
        &[
            "--rows",
            "40",
            "--seed",
            "9",
            "--out",
            csv.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));

    let out = run(
        "predict",
        &[
            "--model",
            artifact.to_str().unwrap(),
            "--input",
            csv.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    let records: Vec<&str> = stdout.lines().collect();
    assert_eq!(records.len(), 40, "one NDJSON object per record");
    for line in &records {
        assert!(line.contains("\"score\":"), "{line}");
        assert!(line.contains("\"decision\":"), "{line}");
    }
    let stderr = stderr_of(&out);
    assert!(stderr.contains("loaded artifact: format v1"), "{stderr}");
    // the generated file carries a trailing `class` column the model
    // never trained on — reconciliation must shrug it off
    assert!(stderr.contains("1 extra"), "{stderr}");
    assert!(stderr.contains("rows_scored=40"), "{stderr}");
    assert!(stderr.contains("rows_quarantined=0"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_tolerates_reordered_and_dropped_columns() {
    let dir = temp_dir("drift");
    let artifact = make_artifact(&dir);
    // Reorder columns and drop most of them; with `--missing default`
    // the absent attributes become unknown values, not an error.
    let csv = dir.join("drifted.csv");
    let out = run(
        "kdd_csv",
        &[
            "--rows",
            "25",
            "--seed",
            "11",
            "--columns",
            "service,src_bytes,class,count",
            "--out",
            csv.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));

    // Default (reject) missing-column policy: a typed SchemaMismatch,
    // exit 1, no panic.
    let out = run(
        "predict",
        &[
            "--model",
            artifact.to_str().unwrap(),
            "--input",
            csv.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("SchemaMismatch"),
        "{}",
        stderr_of(&out)
    );

    let out = run(
        "predict",
        &[
            "--model",
            artifact.to_str().unwrap(),
            "--input",
            csv.to_str().unwrap(),
            "--missing",
            "default",
        ],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert_eq!(stdout_of(&out).lines().count(), 25);
    assert!(
        stderr_of(&out).contains("rows_scored=25"),
        "{}",
        stderr_of(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Patches field `column` of data row `row` (0-based) in CSV `text`.
fn patch_field(text: &str, row: usize, column: &str, value: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let col = lines[0]
        .split(',')
        .position(|h| h == column)
        .unwrap_or_else(|| panic!("no column {column}"));
    let mut fields: Vec<&str> = lines[row + 1].split(',').collect();
    fields[col] = value;
    lines[row + 1] = fields.join(",");
    lines.join("\n") + "\n"
}

#[test]
fn predict_policies_pin_fault_behavior_and_counters() {
    let dir = temp_dir("policies");
    let artifact = make_artifact(&dir);
    let csv = dir.join("faults.csv");
    let out = run(
        "kdd_csv",
        &["--rows", "5", "--seed", "3", "--out", csv.to_str().unwrap()],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    // Inject a known fault census into the clean file: one unseen
    // category (row 1), one NaN numeric (row 2), one unparsable numeric
    // (row 3); rows 0 and 4 stay clean.
    let text = std::fs::read_to_string(&csv).unwrap();
    let text = patch_field(&text, 1, "service", "quic-v2");
    let text = patch_field(&text, 2, "src_bytes", "NaN");
    let text = patch_field(&text, 3, "src_bytes", "wide");
    std::fs::write(&csv, text).unwrap();
    let model = artifact.to_str().unwrap();
    let input = csv.to_str().unwrap();
    let base = ["--model", model, "--input", input];

    // condition-false (default): every parseable row scores; the
    // unparsable numeric is structurally quarantined.
    let out = run("predict", &base);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("rows_scored=4"), "{stderr}");
    assert!(stderr.contains("rows_quarantined=1"), "{stderr}");
    assert!(stderr.contains("unseen_category_hits=1"), "{stderr}");
    assert!(stderr.contains("nan_numeric_hits=1"), "{stderr}");
    let stdout = stdout_of(&out);
    assert_eq!(stdout.lines().count(), 5);
    assert!(
        stdout
            .lines()
            .nth(3)
            .unwrap()
            .contains("\"kind\":\"structural\""),
        "{stdout}"
    );

    // abstain: the faulted rows still count as scored but abstain.
    let out = run("predict", &[&base[..], &["--unknown", "abstain"]].concat());
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("rows_scored=4"), "{stderr}");
    assert!(stderr.contains("2 abstained"), "{stderr}");
    let stdout = stdout_of(&out);
    assert_eq!(
        stdout
            .lines()
            .filter(|l| l.contains("\"abstained\":true"))
            .count(),
        2,
        "{stdout}"
    );

    // reject: the faulted rows become typed per-record errors.
    let out = run("predict", &[&base[..], &["--unknown", "reject"]].concat());
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("rows_scored=2"), "{stderr}");
    assert!(stderr.contains("rows_quarantined=3"), "{stderr}");
    assert!(stderr.contains("3 not scored"), "{stderr}");
    let stdout = stdout_of(&out);
    assert_eq!(
        stdout
            .lines()
            .filter(|l| l.contains("\"kind\":\"unknown-rejected\""))
            .count(),
        2,
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_error_lines_are_json_for_any_field_bytes() {
    let dir = temp_dir("error_json");
    let artifact = make_artifact(&dir);
    let csv = dir.join("hostile.csv");
    let out = run(
        "kdd_csv",
        &["--rows", "4", "--seed", "5", "--out", csv.to_str().unwrap()],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    // numeric fields holding a control character, a quote and a
    // backslash: each row is a structural error whose text embeds the
    // raw field
    let hostile = ["7\u{1}", "say \"hi\"", "c:\\path", "\u{1}\"\\"];
    let mut text = std::fs::read_to_string(&csv).unwrap();
    for (row, raw) in hostile.iter().enumerate() {
        text = patch_field(&text, row, "src_bytes", raw);
    }
    std::fs::write(&csv, text).unwrap();
    let out = run(
        "predict",
        &[
            "--model",
            artifact.to_str().unwrap(),
            "--input",
            csv.to_str().unwrap(),
        ],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));
    let stdout = stdout_of(&out);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), hostile.len(), "{stdout}");
    for (line, raw) in lines.iter().zip(hostile) {
        let parsed = serde_json::parse(line).unwrap_or_else(|e| panic!("not JSON ({e}): {line:?}"));
        let want =
            format!("Structural: field `{raw}` of numeric attribute `src_bytes` is not a number");
        assert_eq!(
            parsed.get("error"),
            Some(&serde_json::Value::Str(want)),
            "{line:?}"
        );
        assert_eq!(
            parsed.get("kind"),
            Some(&serde_json::Value::Str("structural".to_string()))
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_refuses_a_corrupted_artifact() {
    let dir = temp_dir("corrupt");
    let artifact = make_artifact(&dir);

    // the clean copy verifies...
    let out = run(
        "predict",
        &["--model", artifact.to_str().unwrap(), "--verify-only"],
    );
    assert!(out.status.success(), "{}", stderr_of(&out));

    // ...the corrupted copy does not, with a greppable typed error
    let mut bytes = std::fs::read(&artifact).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    let corrupted = dir.join("corrupted.artifact");
    std::fs::write(&corrupted, &bytes).unwrap();
    let out = run(
        "predict",
        &["--model", corrupted.to_str().unwrap(), "--verify-only"],
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("ChecksumMismatch"),
        "{}",
        stderr_of(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_bad_invocation_exits_2() {
    let out = run("predict", &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("usage: predict"),
        "{}",
        stderr_of(&out)
    );
    let out = run("predict", &["--model", "m", "--unknown", "sometimes"]);
    assert_eq!(out.status.code(), Some(2));
    // an unknown flag is refused before the model is touched
    let out = run("predict", &["--model", "m", "--turbo", "on"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr_of(&out).contains("unknown argument --turbo"),
        "{}",
        stderr_of(&out)
    );
}

#[test]
fn inspect_lists_valid_names_on_unknown_dataset() {
    for name in ["nope", "kdd:ddos", "nsyn9", "coa7"] {
        let out = run("inspect", &[name, "--scale", "0.001"]);
        assert_eq!(out.status.code(), Some(2), "{name}");
        let stderr = stderr_of(&out);
        assert!(stderr.contains("nsyn1..nsyn6"), "{name}: {stderr}");
        assert!(stderr.contains("coad1..coad4"), "{name}: {stderr}");
    }
}

#[test]
fn kdd_csv_rejects_unknown_columns_with_the_valid_list() {
    let out = run("kdd_csv", &["--columns", "src_bytes,bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("bogus"), "{stderr}");
    assert!(stderr.contains("protocol_type"), "names listed: {stderr}");
    assert!(stderr.contains("class"), "{stderr}");
}

#[test]
fn kdd_csv_fault_flags_inject_deterministically_and_report_a_census() {
    let dir = temp_dir("faults");
    let csv = dir.join("hostile.csv");
    let args = [
        "--rows",
        "300",
        "--seed",
        "5",
        "--malformed-rate",
        "0.1",
        "--drift-rate",
        "0.1",
        "--out",
        csv.to_str().unwrap(),
    ];
    let out = run("kdd_csv", &args);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("fault census:"), "{stderr}");
    assert!(stderr.contains("clean)"), "{stderr}");

    // same seed, same rates: byte-identical hostile stream
    let csv2 = dir.join("hostile2.csv");
    let mut args2: Vec<&str> = args.to_vec();
    args2[9] = csv2.to_str().unwrap();
    let out = run("kdd_csv", &args2);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        std::fs::read(&csv).unwrap(),
        std::fs::read(&csv2).unwrap(),
        "fault injection is deterministic in the seed"
    );

    // the hostile stream drives the serving fault paths end to end:
    // predict survives it (exit 0) and quarantines/flags what the
    // injector wrote
    let artifact = make_artifact(&dir);
    let out = run(
        "predict",
        &[
            "--model",
            artifact.to_str().unwrap(),
            "--input",
            csv.to_str().unwrap(),
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let report = stderr_of(&out);
    let quarantined = counter_value(&report, "rows_quarantined=");
    let unseen = counter_value(&report, "unseen_category_hits=");
    let non_finite = counter_value(&report, "nan_numeric_hits=");
    assert!(quarantined > 0, "malformed rows quarantined: {report}");
    assert!(unseen > 0, "drifted categories flagged: {report}");
    assert!(non_finite > 0, "non-finite numerics flagged: {report}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Extracts `prefix<digits>` from a serving report line.
fn counter_value(report: &str, prefix: &str) -> u64 {
    let start = report.find(prefix).map(|i| i + prefix.len());
    start
        .map(|s| {
            report[s..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|d| d.parse().ok())
        .unwrap_or_else(|| panic!("no {prefix} in report: {report}"))
}

#[test]
fn kdd_csv_rejects_out_of_range_fault_rates() {
    for args in [
        ["--malformed-rate", "1.5"],
        ["--malformed-rate", "-0.1"],
        ["--drift-rate", "2"],
        ["--drift-rate", "nope"],
    ] {
        let out = run("kdd_csv", &args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr_of(&out).contains("usage: kdd_csv"),
            "{}",
            stderr_of(&out)
        );
    }
}
