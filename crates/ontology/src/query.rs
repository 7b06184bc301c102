//! A small query engine over instances.
//!
//! The information, brokerage, and matchmaking services of the paper locate
//! offerings "subject to a wide range of conditions".  [`Query`] expresses
//! those conditions as a tree of slot predicates combined with conjunction,
//! disjunction, and negation, evaluated against the instances of a
//! [`KnowledgeBase`].

use crate::instance::Instance;
use crate::kb::KnowledgeBase;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// A predicate on a single slot of an instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SlotCond {
    /// Slot value equals the operand (numerically tolerant).
    Eq(String, Value),
    /// Slot value differs from the operand (or slot is absent).
    Ne(String, Value),
    /// Slot value is strictly less than the operand.
    Lt(String, Value),
    /// Slot value is less than or equal to the operand.
    Le(String, Value),
    /// Slot value is strictly greater than the operand.
    Gt(String, Value),
    /// Slot value is greater than or equal to the operand.
    Ge(String, Value),
    /// Slot is a list containing the operand, or a string containing the
    /// operand substring.
    Contains(String, Value),
    /// Slot carries any value at all.
    Exists(String),
}

impl SlotCond {
    /// Evaluate the predicate on one instance.
    pub fn matches(&self, instance: &Instance) -> bool {
        match self {
            SlotCond::Eq(slot, operand) => instance
                .get(slot)
                .map(|v| v.loose_eq(operand))
                .unwrap_or(false),
            SlotCond::Ne(slot, operand) => instance
                .get(slot)
                .map(|v| !v.loose_eq(operand))
                .unwrap_or(true),
            SlotCond::Lt(slot, operand) => Self::cmp_is(instance, slot, operand, Ordering::Less),
            SlotCond::Gt(slot, operand) => Self::cmp_is(instance, slot, operand, Ordering::Greater),
            SlotCond::Le(slot, operand) => {
                Self::cmp_is(instance, slot, operand, Ordering::Less)
                    || SlotCond::Eq(slot.clone(), operand.clone()).matches(instance)
            }
            SlotCond::Ge(slot, operand) => {
                Self::cmp_is(instance, slot, operand, Ordering::Greater)
                    || SlotCond::Eq(slot.clone(), operand.clone()).matches(instance)
            }
            SlotCond::Contains(slot, operand) => match instance.get(slot) {
                Some(Value::List(items)) => items.iter().any(|v| v.loose_eq(operand)),
                Some(Value::Str(s)) => operand
                    .as_str()
                    .map(|needle| s.contains(needle))
                    .unwrap_or(false),
                _ => false,
            },
            SlotCond::Exists(slot) => instance.get(slot).is_some(),
        }
    }

    fn cmp_is(instance: &Instance, slot: &str, operand: &Value, expect: Ordering) -> bool {
        instance
            .get(slot)
            .and_then(|v| v.partial_cmp_value(operand))
            .map(|o| o == expect)
            .unwrap_or(false)
    }
}

/// A query: an instance-class filter plus a boolean combination of slot
/// predicates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Query {
    /// Matches every instance (optionally restricted by the class filter
    /// given to [`Query::run`]).
    All,
    /// A single slot predicate.
    Cond(SlotCond),
    /// All sub-queries must match.
    And(Vec<Query>),
    /// At least one sub-query must match.
    Or(Vec<Query>),
    /// The sub-query must not match.
    Not(Box<Query>),
}

impl Query {
    /// Convenience: a single-predicate query.
    pub fn cond(cond: SlotCond) -> Self {
        Query::Cond(cond)
    }

    /// Evaluate the query on one instance.
    pub fn matches(&self, instance: &Instance) -> bool {
        match self {
            Query::All => true,
            Query::Cond(c) => c.matches(instance),
            Query::And(qs) => qs.iter().all(|q| q.matches(instance)),
            Query::Or(qs) => qs.iter().any(|q| q.matches(instance)),
            Query::Not(q) => !q.matches(instance),
        }
    }

    /// Run the query over a knowledge base, optionally restricted to the
    /// instances of `class` (including subclasses).  Results come back in
    /// deterministic id order.
    pub fn run<'a>(&self, kb: &'a KnowledgeBase, class: Option<&'a str>) -> Vec<&'a Instance> {
        let matches = |i: &&Instance| self.matches(i);
        match class {
            Some(c) => kb.instances_of(c).filter(|i| matches(i)).collect(),
            None => kb.instances().filter(matches).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassDef;
    use crate::slot::SlotDef;
    use crate::value::ValueType;

    fn sample_kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new("q");
        kb.add_class(
            ClassDef::new("Resource")
                .with_slot(SlotDef::required("Name", ValueType::Str))
                .with_slot(SlotDef::optional("Speed", ValueType::Float))
                .with_slot(SlotDef::optional("Domain", ValueType::Str))
                .with_slot(SlotDef::multi("Tags", ValueType::Str)),
        )
        .unwrap();
        kb.add_class(ClassDef::new("Cluster").with_parent("Resource"))
            .unwrap();
        kb.add_instance(
            Instance::new("r1", "Resource")
                .with("Name", Value::str("alpha"))
                .with("Speed", Value::Float(2.4))
                .with("Domain", Value::str("ucf.edu"))
                .with("Tags", Value::str_list(["reliable", "cheap"])),
        )
        .unwrap();
        kb.add_instance(
            Instance::new("r2", "Cluster")
                .with("Name", Value::str("beta"))
                .with("Speed", Value::Float(3.2))
                .with("Domain", Value::str("purdue.edu")),
        )
        .unwrap();
        kb.add_instance(
            Instance::new("r3", "Resource")
                .with("Name", Value::str("gamma"))
                .with("Speed", Value::Int(1)),
        )
        .unwrap();
        kb
    }

    #[test]
    fn eq_and_ne() {
        let kb = sample_kb();
        let q = Query::cond(SlotCond::Eq("Name".into(), Value::str("alpha")));
        assert_eq!(q.run(&kb, None).len(), 1);
        let q = Query::cond(SlotCond::Ne("Name".into(), Value::str("alpha")));
        assert_eq!(q.run(&kb, None).len(), 2);
    }

    #[test]
    fn ne_matches_absent_slot() {
        let kb = sample_kb();
        let q = Query::cond(SlotCond::Ne("Domain".into(), Value::str("x")));
        // r3 has no Domain: Ne treats absence as "differs".
        assert!(q.run(&kb, None).iter().any(|i| i.id == "r3"));
    }

    #[test]
    fn numeric_comparisons_cross_int_float() {
        let kb = sample_kb();
        let q = Query::cond(SlotCond::Gt("Speed".into(), Value::Float(2.0)));
        let ids: Vec<&str> = q.run(&kb, None).iter().map(|i| i.id.as_str()).collect();
        assert_eq!(ids, vec!["r1", "r2"]);
        let q = Query::cond(SlotCond::Le("Speed".into(), Value::Int(1)));
        assert_eq!(q.run(&kb, None).len(), 1);
        let q = Query::cond(SlotCond::Ge("Speed".into(), Value::Float(3.2)));
        assert_eq!(q.run(&kb, None).len(), 1);
        let q = Query::cond(SlotCond::Lt("Speed".into(), Value::Float(2.4)));
        assert_eq!(q.run(&kb, None).len(), 1);
    }

    #[test]
    fn contains_on_lists_and_strings() {
        let kb = sample_kb();
        let q = Query::cond(SlotCond::Contains("Tags".into(), Value::str("reliable")));
        assert_eq!(q.run(&kb, None).len(), 1);
        let q = Query::cond(SlotCond::Contains("Domain".into(), Value::str(".edu")));
        assert_eq!(q.run(&kb, None).len(), 2);
    }

    #[test]
    fn exists_predicate() {
        let kb = sample_kb();
        let q = Query::cond(SlotCond::Exists("Domain".into()));
        assert_eq!(q.run(&kb, None).len(), 2);
    }

    #[test]
    fn boolean_combinators() {
        let kb = sample_kb();
        let q = Query::And(vec![
            Query::cond(SlotCond::Gt("Speed".into(), Value::Float(2.0))),
            Query::cond(SlotCond::Contains("Domain".into(), Value::str("ucf"))),
        ]);
        assert_eq!(q.run(&kb, None).len(), 1);
        let q = Query::Or(vec![
            Query::cond(SlotCond::Eq("Name".into(), Value::str("alpha"))),
            Query::cond(SlotCond::Eq("Name".into(), Value::str("beta"))),
        ]);
        assert_eq!(q.run(&kb, None).len(), 2);
        let q = Query::Not(Box::new(Query::cond(SlotCond::Exists("Domain".into()))));
        assert_eq!(q.run(&kb, None).len(), 1);
    }

    #[test]
    fn class_filter_includes_subclasses() {
        let kb = sample_kb();
        assert_eq!(Query::All.run(&kb, Some("Resource")).len(), 3);
        assert_eq!(Query::All.run(&kb, Some("Cluster")).len(), 1);
        assert_eq!(Query::All.run(&kb, Some("Nonexistent")).len(), 0);
    }

    #[test]
    fn empty_and_matches_everything_empty_or_nothing() {
        let kb = sample_kb();
        assert_eq!(Query::And(vec![]).run(&kb, None).len(), 3);
        assert_eq!(Query::Or(vec![]).run(&kb, None).len(), 0);
    }
}
