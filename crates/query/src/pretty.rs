//! Human-readable rendering of queries (round-trips through the parser).

use crate::ast::{ConjunctiveQuery, Pred, Term, Ucq};
use crate::bundle::Bundle;
use qbdp_catalog::Schema;
use std::fmt;

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_cq(f, self, None)
    }
}

/// Write a CQ in datalog syntax. Relation names come from `schema`; a
/// query rendered without one (its `Display`) names relations `R#<id>`,
/// since a query holds relation ids, not names.
fn write_cq(
    out: &mut impl fmt::Write,
    q: &ConjunctiveQuery,
    schema: Option<&Schema>,
) -> fmt::Result {
    write!(out, "{}(", q.name())?;
    for (i, v) in q.head().iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        out.write_str(q.var_name(*v))?;
    }
    out.write_str(") :- ")?;
    let mut first = true;
    for atom in q.atoms() {
        if !first {
            out.write_str(", ")?;
        }
        first = false;
        match schema {
            Some(s) => out.write_str(s.relation(atom.rel).name())?,
            None => write!(out, "R#{}", atom.rel.0)?,
        }
        out.write_char('(')?;
        for (i, t) in atom.terms.iter().enumerate() {
            if i > 0 {
                out.write_str(", ")?;
            }
            match t {
                Term::Var(v) => out.write_str(q.var_name(*v))?,
                Term::Const(c) => write!(out, "{c:?}")?,
            }
        }
        out.write_char(')')?;
    }
    for p in q.preds() {
        if !first {
            out.write_str(", ")?;
        }
        first = false;
        let v = q.var_name(p.var);
        match &p.pred {
            Pred::Eq(c) => write!(out, "{v} = {c:?}")?,
            Pred::Ne(c) => write!(out, "{v} != {c:?}")?,
            Pred::Lt(c) => write!(out, "{v} < {c}")?,
            Pred::Le(c) => write!(out, "{v} <= {c}")?,
            Pred::Gt(c) => write!(out, "{v} > {c}")?,
            Pred::Ge(c) => write!(out, "{v} >= {c}")?,
            Pred::InSet(cs) => {
                write!(out, "{v} in {{")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        out.write_str(", ")?;
                    }
                    write!(out, "{c:?}")?;
                }
                out.write_char('}')?;
            }
        }
    }
    Ok(())
}

impl fmt::Debug for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Ucq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.disjuncts().iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Ucq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Bundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, q) in self.queries().iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{q}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Bundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Render a CQ with relation names resolved against a schema: the
/// canonical spelling the quote cache keys by. The output re-parses to
/// the same query (`parse_rule(schema, &render(q, schema)) == q`).
pub fn render(q: &ConjunctiveQuery, schema: &Schema) -> String {
    let mut out = String::with_capacity(64);
    // Writing into a `String` cannot fail.
    let _ = write_cq(&mut out, q, Some(schema));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_query, parse_rule};
    use qbdp_catalog::{CatalogBuilder, Column};

    #[test]
    fn render_roundtrip() {
        let col = Column::int_range(0, 5);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X"], &col)
            .uniform_relation("S", &["X", "Y"], &col)
            .build()
            .unwrap();
        let src = "Q(x, y) :- R(x), S(x, y), y > 2, x in {1, 2}";
        let q = parse_rule(cat.schema(), src).unwrap();
        let rendered = render(&q, cat.schema());
        let q2 = parse_rule(cat.schema(), &rendered).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn render_constants() {
        let col = Column::texts(["a1", "a2"]);
        let cat = CatalogBuilder::new()
            .relation("R", &[("X", col.clone()), ("Y", col)])
            .build()
            .unwrap();
        let q = parse_rule(cat.schema(), "Q(x) :- R(x, 'a1')").unwrap();
        let rendered = render(&q, cat.schema());
        assert!(rendered.contains("'a1'"));
        let q2 = parse_rule(cat.schema(), &rendered).unwrap();
        assert_eq!(q, q2);
    }

    /// Relation names are written from the schema, never substituted
    /// into the rendered text, so constants spelled like `R#<id>(` stay
    /// as they are and distinct queries keep distinct renderings.
    #[test]
    fn constants_spelled_like_relation_ids_survive() {
        let col = Column::texts(["R#0(", "R(", "R#1("]);
        let cat = CatalogBuilder::new()
            .relation("R", &[("X", col.clone())])
            .relation("RR", &[("X", col)])
            .build()
            .unwrap();
        for src in [
            "Q(x) :- R(x), x = 'R#0('",
            "Q(x) :- R(x), x = 'R('",
            "Q(x) :- RR(x), x in {'R#1(', 'R#0('}",
        ] {
            let q = parse_rule(cat.schema(), src).unwrap();
            assert_eq!(render(&q, cat.schema()), src);
        }
    }

    #[test]
    fn ucq_display() {
        let col = Column::int_range(0, 5);
        let cat = CatalogBuilder::new()
            .uniform_relation("R", &["X"], &col)
            .uniform_relation("T", &["X"], &col)
            .build()
            .unwrap();
        let u = parse_query(cat.schema(), "U(x) :- R(x); U(x) :- T(x)").unwrap();
        let s = u.to_string();
        assert!(s.contains(';'));
    }
}
