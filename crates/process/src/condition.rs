//! The condition sub-language of the process-description grammar.
//!
//! The paper's BNF defines conditions as `<data>.<property> <op> <value>`
//! with `<op> ::= < | > | =` and properties such as `Classification`,
//! `Size`, `Location`.  The case-study constraint `Cons1` combines atoms
//! with `and`:  `if (D10.Classification = "Resolution File" and
//! D10.Value > 8) then Merge else End`.  [`Condition`] models that
//! language (with the natural extensions `!=`, `<=`, `>=`, `or`, `not`,
//! and an existence atom) and evaluates against a
//! [`DataState`] values.

use crate::data::DataState;
use gridflow_ontology::Value;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Comparison operator of a condition atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompareOp {
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<=`
    Le,
    /// `>=`
    Ge,
}

impl CompareOp {
    /// Apply the operator to an ordered comparison result.
    fn holds(&self, ord: Option<Ordering>, eq: bool) -> bool {
        match self {
            CompareOp::Eq => eq,
            CompareOp::Ne => !eq,
            CompareOp::Lt => ord == Some(Ordering::Less),
            CompareOp::Gt => ord == Some(Ordering::Greater),
            CompareOp::Le => eq || ord == Some(Ordering::Less),
            CompareOp::Ge => eq || ord == Some(Ordering::Greater),
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompareOp::Lt => "<",
            CompareOp::Gt => ">",
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Le => "<=",
            CompareOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A boolean condition over data properties.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Condition {
    /// Always true (the "else"/default branch of a Choice).
    True,
    /// `<data>.<property> <op> <value>` — the paper's atom.
    Compare {
        /// Data-item identifier (e.g. `D10`).
        data: String,
        /// Property name (e.g. `Classification`).
        property: String,
        /// Comparison operator.
        op: CompareOp,
        /// Right-hand side literal.
        value: Value,
    },
    /// The data item exists in the state (written `exists <data>`).
    Exists(String),
    /// Conjunction.
    And(Box<Condition>, Box<Condition>),
    /// Disjunction.
    Or(Box<Condition>, Box<Condition>),
    /// Negation.
    Not(Box<Condition>),
}

impl Condition {
    /// Convenience constructor for a comparison atom.
    pub fn compare(
        data: impl Into<String>,
        property: impl Into<String>,
        op: CompareOp,
        value: impl Into<Value>,
    ) -> Self {
        Condition::Compare {
            data: data.into(),
            property: property.into(),
            op,
            value: value.into(),
        }
    }

    /// `<data>.Classification = <classification>` — the dominant atom in
    /// the paper's service signatures (C1–C8 of Fig. 13).
    pub fn classified(data: impl Into<String>, classification: impl Into<String>) -> Self {
        Condition::compare(
            data,
            "Classification",
            CompareOp::Eq,
            Value::str(classification),
        )
    }

    /// Conjunction (builder style).
    pub fn and(self, other: Condition) -> Self {
        Condition::And(Box::new(self), Box::new(other))
    }

    /// Disjunction (builder style).
    pub fn or(self, other: Condition) -> Self {
        Condition::Or(Box::new(self), Box::new(other))
    }

    /// Negation (builder style).
    pub fn negate(self) -> Self {
        Condition::Not(Box::new(self))
    }

    /// Conjunction of an iterator of conditions; empty yields [`Condition::True`].
    pub fn all<I: IntoIterator<Item = Condition>>(conds: I) -> Self {
        let mut iter = conds.into_iter();
        match iter.next() {
            None => Condition::True,
            Some(first) => iter.fold(first, |acc, c| acc.and(c)),
        }
    }

    /// Evaluate against `state`: a comparison on a missing data item or
    /// property is simply false (the environment "does not yet satisfy"
    /// the condition).  This is the semantics the planner's validity simulation
    /// needs: preconditions on absent data fail rather than abort.
    pub fn eval(&self, state: &DataState) -> bool {
        match self {
            Condition::True => true,
            Condition::Exists(data) => state.contains(data),
            Condition::Compare {
                data,
                property,
                op,
                value,
            } => match state.property(data, property) {
                Some(actual) => op.holds(actual.partial_cmp_value(value), actual.loose_eq(value)),
                None => false,
            },
            Condition::And(a, b) => a.eval(state) && b.eval(state),
            Condition::Or(a, b) => a.eval(state) || b.eval(state),
            Condition::Not(c) => !c.eval(state),
        }
    }
}

impl fmt::Display for Condition {
    /// Precedence-aware rendering: `and` binds tighter than `or`; `not`
    /// and atoms are primary.  The output is re-parseable by the PDL
    /// parser (print→parse round-trips).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn write(c: &Condition, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match c {
                Condition::True => write!(f, "true"),
                Condition::Exists(d) => write!(f, "exists {d}"),
                Condition::Compare {
                    data,
                    property,
                    op,
                    value,
                } => write!(f, "{data}.{property} {op} {value}"),
                Condition::And(a, b) => {
                    // The parser is left-associative; parenthesise the
                    // right child when it is itself a binary node so the
                    // printed form re-parses to the identical tree.
                    for (i, side) in [a, b].into_iter().enumerate() {
                        if i > 0 {
                            write!(f, " and ")?;
                        }
                        let parens = matches!(side.as_ref(), Condition::Or(_, _))
                            || (i == 1 && matches!(side.as_ref(), Condition::And(_, _)));
                        if parens {
                            write!(f, "(")?;
                            write(side, f)?;
                            write!(f, ")")?;
                        } else {
                            write(side, f)?;
                        }
                    }
                    Ok(())
                }
                Condition::Or(a, b) => {
                    for (i, side) in [a, b].into_iter().enumerate() {
                        if i > 0 {
                            write!(f, " or ")?;
                        }
                        let parens = i == 1 && matches!(side.as_ref(), Condition::Or(_, _));
                        if parens {
                            write!(f, "(")?;
                            write(side, f)?;
                            write!(f, ")")?;
                        } else {
                            write(side, f)?;
                        }
                    }
                    Ok(())
                }
                Condition::Not(inner) => {
                    write!(f, "not ")?;
                    match inner.as_ref() {
                        Condition::And(_, _) | Condition::Or(_, _) => {
                            write!(f, "(")?;
                            write(inner, f)?;
                            write!(f, ")")
                        }
                        _ => write(inner, f),
                    }
                }
            }
        }
        write(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::DataItem;

    fn state() -> DataState {
        DataState::new().with(
            "D10",
            DataItem::classified("Resolution File").with("Value", Value::Float(9.5)),
        )
    }

    #[test]
    fn cons1_of_the_paper_evaluates() {
        // Cons1: D10.Classification = "Resolution File" and D10.Value > 8
        let cons1 = Condition::classified("D10", "Resolution File").and(Condition::compare(
            "D10",
            "Value",
            CompareOp::Gt,
            8.0,
        ));
        assert!(cons1.eval(&state()));

        let mut better = state();
        better.set_property("D10", "Value", Value::Float(7.2));
        assert!(!cons1.eval(&better));
    }

    #[test]
    fn all_six_operators() {
        let s = DataState::new().with("D", DataItem::new().with("X", Value::Int(5)));
        let check = |op, rhs: i64| Condition::compare("D", "X", op, rhs).eval(&s);
        assert!(check(CompareOp::Eq, 5));
        assert!(check(CompareOp::Ne, 4));
        assert!(check(CompareOp::Lt, 6));
        assert!(check(CompareOp::Gt, 4));
        assert!(check(CompareOp::Le, 5));
        assert!(check(CompareOp::Ge, 5));
        assert!(!check(CompareOp::Lt, 5));
        assert!(!check(CompareOp::Gt, 5));
    }

    #[test]
    fn lenient_eval_treats_missing_as_false() {
        let c = Condition::compare("Nope", "X", CompareOp::Eq, 1i64);
        assert!(!c.eval(&DataState::new()));
        // but Not(missing) is true under lenient semantics
        assert!(c.clone().negate().eval(&DataState::new()));
    }

    #[test]
    fn exists_atom() {
        let s = DataState::new().with("D1", DataItem::new());
        assert!(Condition::Exists("D1".into()).eval(&s));
        assert!(!Condition::Exists("D2".into()).eval(&s));
    }

    #[test]
    fn boolean_combinators() {
        let s = state();
        let t = Condition::True;
        let f = Condition::compare("D10", "Value", CompareOp::Lt, 0i64);
        assert!(t.clone().or(f.clone()).eval(&s));
        assert!(!t.clone().and(f.clone()).eval(&s));
        assert!(f.clone().negate().eval(&s));
        assert!(Condition::all([]).eval(&s));
        assert!(Condition::all([t.clone(), t.clone()]).eval(&s));
        assert!(!Condition::all([t, f]).eval(&s));
    }

    #[test]
    fn cross_type_numeric_comparison() {
        let s = DataState::new().with("D", DataItem::new().with("X", Value::Int(8)));
        assert!(Condition::compare("D", "X", CompareOp::Lt, 8.5).eval(&s));
        assert!(Condition::compare("D", "X", CompareOp::Eq, 8.0).eval(&s));
    }

    #[test]
    fn incomparable_types_fail_ordering_but_support_ne() {
        let s = DataState::new().with("D", DataItem::new().with("X", Value::str("abc")));
        assert!(!Condition::compare("D", "X", CompareOp::Lt, 5i64).eval(&s));
        assert!(!Condition::compare("D", "X", CompareOp::Eq, 5i64).eval(&s));
        assert!(Condition::compare("D", "X", CompareOp::Ne, 5i64).eval(&s));
    }

    #[test]
    fn missing_property_is_false_for_every_operator_leniently() {
        // The item exists but lacks the property: no operator — not even
        // `!=` — may claim the comparison holds.
        let s = DataState::new().with("D", DataItem::new().with("Other", Value::Int(1)));
        for op in [
            CompareOp::Lt,
            CompareOp::Gt,
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Le,
            CompareOp::Ge,
        ] {
            let c = Condition::compare("D", "X", op, 5i64);
            assert!(!c.eval(&s), "{op} held on a missing property");
        }
    }

    #[test]
    fn lt_le_boundary_at_equal_values() {
        let s = DataState::new().with("D", DataItem::new().with("X", Value::Int(8)));
        let check = |op, rhs: i64| Condition::compare("D", "X", op, rhs).eval(&s);
        assert!(!check(CompareOp::Lt, 8), "< is strict");
        assert!(check(CompareOp::Le, 8), "<= admits equality");
        assert!(!check(CompareOp::Gt, 8), "> is strict");
        assert!(check(CompareOp::Ge, 8), ">= admits equality");
        // The boundary also holds across the int/float divide.
        let f = |op, rhs: f64| Condition::compare("D", "X", op, rhs).eval(&s);
        assert!(!f(CompareOp::Lt, 8.0));
        assert!(f(CompareOp::Le, 8.0));
    }

    #[test]
    fn type_mismatched_ordering_fails_closed() {
        // A bool is neither equal nor ordered against a number: `!=` is
        // the only comparison that may hold, and `<=`/`>=` must not leak
        // through their equality half.
        let s = DataState::new().with("D", DataItem::new().with("X", Value::Bool(true)));
        let check = |op| Condition::compare("D", "X", op, 1i64).eval(&s);
        assert!(!check(CompareOp::Lt));
        assert!(!check(CompareOp::Gt));
        assert!(!check(CompareOp::Eq));
        assert!(!check(CompareOp::Le));
        assert!(!check(CompareOp::Ge));
        assert!(check(CompareOp::Ne));
    }

    #[test]
    fn display_round_trips_structure() {
        let c = Condition::classified("D10", "Resolution File").and(Condition::compare(
            "D10",
            "Value",
            CompareOp::Gt,
            8i64,
        ));
        assert_eq!(
            c.to_string(),
            "D10.Classification = \"Resolution File\" and D10.Value > 8"
        );
        let nested = Condition::True
            .or(Condition::True)
            .and(Condition::Exists("D".into()));
        assert_eq!(nested.to_string(), "(true or true) and exists D");
        let negated = Condition::True.and(Condition::True).negate();
        assert_eq!(negated.to_string(), "not (true and true)");
    }
}
