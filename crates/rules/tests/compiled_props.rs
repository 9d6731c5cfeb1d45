//! Property-based bit-identity suite for the compiled rule-evaluation
//! engine: over random rulesets × random datasets × random unknown masks,
//! `CompiledRuleSet` must reproduce the interpreter's `first_match`
//! decisions *exactly* — same `Some`/`None`, same rank, lowest index on
//! ties — on both the dense (`Dataset`) and the lookup (serving) path.

use pnr_data::{AttrType, Dataset, DatasetBuilder, Value};
use pnr_rules::{CompiledRuleSet, Condition, Rule, RuleSet};
use proptest::prelude::*;

const CAT_NAMES: [&str; 3] = ["a", "b", "c"];

/// Two numeric attributes and one categorical attribute with three codes —
/// enough to exercise every dispatch-table shape, including rules that pin
/// a code the dictionary never interned (`value: 3`).
fn dataset(rows: &[(f64, f64, u8)]) -> Dataset {
    let mut b = DatasetBuilder::new();
    b.add_attribute("x", AttrType::Numeric);
    b.add_attribute("y", AttrType::Numeric);
    b.add_attribute("k", AttrType::Categorical);
    // Intern all three codes up front so row order cannot change the
    // dictionary, then the generated rows.
    for name in CAT_NAMES {
        b.push_row(
            &[Value::num(0.0), Value::num(0.0), Value::cat(name)],
            "c",
            1.0,
        )
        .unwrap();
    }
    for &(x, y, k) in rows {
        b.push_row(
            &[
                Value::num(x),
                Value::num(y),
                Value::cat(CAT_NAMES[k as usize % 3]),
            ],
            "c",
            1.0,
        )
        .unwrap();
    }
    b.finish()
}

fn rows() -> impl Strategy<Value = Vec<(f64, f64, u8)>> {
    prop::collection::vec((-10.0f64..10.0, -10.0f64..10.0, 0u8..3), 1..40)
}

/// Random atomic condition. Attribute kinds are fixed (0 and 1 numeric,
/// 2 categorical) so every generated ruleset evaluates on the dense path. `CatEq` may pin
/// code 3, which no row carries, and `NumRange` may be empty (`lo >= hi`)
/// or NaN-free contradictory when conjoined — all shapes the compiler must
/// fold identically to the interpreter.
fn condition() -> impl Strategy<Value = Condition> {
    (0u8..4, 0usize..2, -8.0f64..8.0, -2.0f64..6.0, 0u32..4).prop_map(|(kind, attr, v, w, code)| {
        match kind {
            0 => Condition::NumLe { attr, value: v },
            1 => Condition::NumGt { attr, value: v },
            2 => Condition::NumRange {
                attr,
                lo: v,
                hi: v + w,
            },
            _ => Condition::CatEq {
                attr: 2,
                value: code,
            },
        }
    })
}

/// Random atomic condition of any kind on any attribute, for the lookup
/// path: one attribute can be tested both by equality and by threshold,
/// across rules and within one rule. The lookup path asks `num(a)` and
/// `cat(a)` independently, so every such rule set is well-defined there.
fn any_kind_condition() -> impl Strategy<Value = Condition> {
    (condition(), 0usize..3).prop_map(|(cond, attr)| match cond {
        Condition::NumLe { value, .. } => Condition::NumLe { attr, value },
        Condition::NumGt { value, .. } => Condition::NumGt { attr, value },
        Condition::NumRange { lo, hi, .. } => Condition::NumRange { attr, lo, hi },
        Condition::CatEq { value, .. } => Condition::CatEq { attr, value },
    })
}

fn ruleset_of(condition: impl Strategy<Value = Condition>) -> impl Strategy<Value = RuleSet> {
    prop::collection::vec(prop::collection::vec(condition, 0..4), 0..8)
        .prop_map(|rules| RuleSet::from_rules(rules.into_iter().map(Rule::new).collect()))
}

fn ruleset() -> impl Strategy<Value = RuleSet> {
    ruleset_of(condition())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_first_match_is_bit_identical(data_rows in rows(), rules in ruleset()) {
        let d = dataset(&data_rows);
        let compiled = CompiledRuleSet::compile(&rules);
        for row in 0..d.n_rows() {
            prop_assert_eq!(
                compiled.first_match(&d, row),
                rules.first_match(&d, row),
                "row {} of {:?}", row, &rules
            );
        }
    }

    #[test]
    fn lookup_first_match_is_bit_identical_under_unknowns(
        data_rows in rows(),
        rules in ruleset_of(any_kind_condition()),
        mask in prop::collection::vec(prop::bool::ANY, 6),
    ) {
        // `mask[attr] == true` hides that attribute's numeric side and
        // `mask[3 + attr]` its categorical side — the serving path's
        // unknown-value outcome, which must suppress the matching dispatch
        // table, never fire it. Each attribute answers both lookups: the
        // numeric columns as a code too, the categorical one as a number.
        let d = dataset(&data_rows);
        let compiled = CompiledRuleSet::compile(&rules);
        for row in 0..d.n_rows() {
            let num = |attr: usize| {
                (!mask[attr]).then(|| match attr {
                    2 => f64::from(d.cat(attr, row)),
                    _ => d.num(attr, row),
                })
            };
            let cat = |attr: usize| {
                (!mask[3 + attr]).then(|| match attr {
                    2 => d.cat(attr, row),
                    _ => d.num(attr, row).abs() as u32 % 4,
                })
            };
            prop_assert_eq!(
                compiled.first_match_lookup(num, cat),
                rules.first_match_lookup(num, cat),
                "row {} mask {:?} of {:?}", row, &mask, &rules
            );
        }
    }

    #[test]
    fn first_match_takes_the_lowest_ranked_matching_rule(
        data_rows in rows(),
        rules in ruleset(),
        dup_at in 0usize..64,
    ) {
        // Ranked tie-break: duplicating one rule at the end must never
        // change any decision (the lower index always wins), and whatever
        // either engine returns must be the *lowest* index whose rule
        // matches, checked against a brute-force scan.
        let d = dataset(&data_rows);
        let mut with_dup = rules.clone();
        if !rules.is_empty() {
            let i = dup_at % rules.len();
            with_dup.push(rules.rules()[i].clone());
        }
        let compiled = CompiledRuleSet::compile(&with_dup);
        for row in 0..d.n_rows() {
            let brute = with_dup
                .rules()
                .iter()
                .position(|r| r.matches(&d, row));
            prop_assert_eq!(with_dup.first_match(&d, row), brute);
            prop_assert_eq!(compiled.first_match(&d, row), brute);
            if !rules.is_empty() {
                prop_assert_eq!(compiled.first_match(&d, row), rules.first_match(&d, row));
            }
        }
    }

    #[test]
    fn batch_matcher_agrees_with_row_at_a_time(data_rows in rows(), rules in ruleset()) {
        let d = dataset(&data_rows);
        let compiled = CompiledRuleSet::compile(&rules);
        let matcher = compiled.matcher(&d);
        for row in 0..d.n_rows() {
            prop_assert_eq!(matcher.first_match(row), rules.first_match(&d, row));
        }
    }
}
