//! Round trip of the canonical query rendering.
//!
//! The market's quote cache keys every entry by `pretty::render(q)`, and
//! a request whose text is byte-equal to a key is answered from that
//! entry without being parsed. That is sound exactly when
//! `parse_rule(render(q)) == q` for every query `q` that parses: a key
//! then names one query, and text that spells a key prices that very
//! query. These properties check the invariant, and that `render` is
//! idempotent, over random rules mixing variables, integer and text
//! constants (with `#`, `(`, `,`, `{` and other syntax inside quotes),
//! comparison and `in` predicates, and relation names that prefix one
//! another.

use proptest::prelude::*;
use proptest::TestRng;
use qbdp::prelude::*;
use qbdp::query::pretty::render;

/// Relation names (some prefix others) and arities.
const RELS: &[(&str, usize)] = &[("R", 1), ("RR", 2), ("S", 2), ("S_1", 3)];

/// Variable names, including one spelled like a relation.
const VARS: &[&str] = &["x", "y", "z", "R"];

/// Text constants written quoted.
const QUOTED: &[&str] = &[
    "R#0(",
    "R(",
    "R#1(x",
    "RR(",
    "S(x, y)",
    "a,b",
    "{",
    "}",
    "{1, 2}",
    "(",
    ")",
    "#",
    "a b",
    "",
    "x = y",
    "p in q",
    "-3",
    "42",
    ":",
    "Q() :- R(x)",
    "σ",
    "it's",
];

/// Text constants written as bare identifiers.
const BARE: &[&str] = &["a1", "WA", "b-2", "in"];

const OPS: &[&str] = &["=", "!=", "<", "<=", ">", ">="];

const SEPS: &[&str] = &[", ", ",", " , ", ",  "];

fn var() -> impl Strategy<Value = String> {
    (0..VARS.len()).prop_map(|i| VARS[i].to_string())
}

fn literal() -> impl Strategy<Value = String> {
    prop_oneof![
        (-5i64..200).prop_map(|i| i.to_string()),
        (0..QUOTED.len()).prop_map(|i| format!("'{}'", QUOTED[i])),
        (0..BARE.len()).prop_map(|i| BARE[i].to_string()),
    ]
}

fn term() -> impl Strategy<Value = String> {
    prop_oneof![var(), var(), literal()]
}

fn atom() -> impl Strategy<Value = String> {
    (0..RELS.len(), 0..SEPS.len()).prop_flat_map(|(r, sep)| {
        let (name, arity) = RELS[r];
        proptest::collection::vec(term(), arity)
            .prop_map(move |terms| format!("{name}({})", terms.join(SEPS[sep])))
    })
}

fn pred() -> impl Strategy<Value = String> {
    prop_oneof![
        (var(), 0..OPS.len(), literal(), any::<bool>()).prop_map(|(v, op, lit, spaced)| {
            if spaced {
                format!("{v} {} {lit}", OPS[op])
            } else {
                format!("{v}{}{lit}", OPS[op])
            }
        }),
        (var(), proptest::collection::vec(literal(), 1..4))
            .prop_map(|(v, lits)| format!("{v} in {{{}}}", lits.join(", "))),
    ]
}

/// A rule text: atoms and predicates in shuffled order, so predicates
/// may precede the atoms that bind their variables.
fn rule() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec((atom(), any::<u64>()), 1..4),
        proptest::collection::vec((pred(), any::<u64>()), 0..3),
        proptest::collection::vec(var(), 0..3),
        0..SEPS.len(),
    )
        .prop_map(|(atoms, preds, head, sep)| {
            let mut body: Vec<(String, u64)> = atoms.into_iter().chain(preds).collect();
            body.sort_by_key(|(_, k)| *k);
            let body: Vec<String> = body.into_iter().map(|(item, _)| item).collect();
            format!("Q({}) :- {}", head.join(", "), body.join(SEPS[sep]))
        })
}

fn catalog() -> Catalog {
    let col = Column::int_range(0, 4);
    let mut b = CatalogBuilder::new();
    for &(name, arity) in RELS {
        let attrs: Vec<String> = (0..arity).map(|i| format!("A{i}")).collect();
        let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        b = b.uniform_relation(name, &attrs, &col);
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn render_round_trips_and_is_idempotent(text in rule()) {
        let cat = catalog();
        let schema = cat.schema();
        // Rules the parser refuses (unsafe variables, a comma inside a
        // quoted atom argument, ...) are outside the property.
        if let Ok(q) = parse_rule(schema, &text) {
            let key = render(&q, schema);
            let again = parse_rule(schema, &key);
            prop_assert!(again.is_ok(), "`{text}` renders to `{key}`, which does not parse: {again:?}");
            let again = again.unwrap();
            prop_assert_eq!(&again, &q, "`{}` renders to `{}`", text, key);
            prop_assert_eq!(render(&again, schema), key);
        }
    }
}

/// The generator must not drift into mostly unparsable rules, or the
/// property above would pass vacuously.
#[test]
fn most_generated_rules_parse() {
    let cat = catalog();
    let strategy = rule();
    let mut rng = TestRng::new(7);
    let total = 2000;
    let parsed = (0..total)
        .filter(|_| parse_rule(cat.schema(), &strategy.sample(&mut rng)).is_ok())
        .count();
    assert!(
        parsed * 4 >= total,
        "only {parsed}/{total} generated rules parse"
    );
}
