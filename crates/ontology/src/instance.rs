//! Instances: frames populating the classes of a knowledge base.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An instance (frame) of a class: an identifier plus slot assignments.
///
/// Slot values are stored in a `BTreeMap` so that serialization and
/// iteration order are deterministic — figure-regeneration binaries print
/// instance tables and must produce stable output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Unique identifier (e.g. `"A5"`, `"D10"`, `"TR12"` in Fig. 13).
    pub id: String,
    /// Name of the class this instance populates.
    pub class: String,
    /// Slot-name → value assignments.
    pub values: BTreeMap<String, Value>,
}

impl Instance {
    /// A new instance of `class` with no slot values.
    pub fn new(id: impl Into<String>, class: impl Into<String>) -> Self {
        Instance {
            id: id.into(),
            class: class.into(),
            values: BTreeMap::new(),
        }
    }

    /// Assign a slot value (builder style).
    pub fn with(mut self, slot: impl Into<String>, value: Value) -> Self {
        self.values.insert(slot.into(), value);
        self
    }

    /// Assign a slot value in place.
    pub fn set(&mut self, slot: impl Into<String>, value: Value) {
        self.values.insert(slot.into(), value);
    }

    /// Remove a slot value, returning it if present.
    pub fn unset(&mut self, slot: &str) -> Option<Value> {
        self.values.remove(slot)
    }

    /// Borrow the value stored under `slot`, if any.
    pub fn get(&self, slot: &str) -> Option<&Value> {
        self.values.get(slot)
    }

    /// The string stored under `slot`, if present and a string.
    pub fn get_str(&self, slot: &str) -> Option<&str> {
        self.get(slot).and_then(Value::as_str)
    }

    /// The integer stored under `slot`, if present and an integer.
    pub fn get_int(&self, slot: &str) -> Option<i64> {
        self.get(slot).and_then(Value::as_int)
    }

    /// The list stored under `slot`, if present and a list.
    pub fn get_list(&self, slot: &str) -> Option<&[Value]> {
        self.get(slot).and_then(Value::as_list)
    }

    /// The referenced instance id stored under `slot`.
    pub fn get_ref(&self, slot: &str) -> Option<&str> {
        self.get(slot).and_then(Value::as_ref_id)
    }

    /// The ids referenced by a multi-valued reference slot, in order.
    pub fn get_ref_list(&self, slot: &str) -> Vec<&str> {
        self.get_list(slot)
            .map(|items| items.iter().filter_map(Value::as_ref_id).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let inst = Instance::new("D1", "Data")
            .with("Name", Value::str("parameters"))
            .with("Size", Value::Int(3_000))
            .with("Creator", Value::reference("User"))
            .with("Tags", Value::str_list(["pod", "input"]));
        assert_eq!(inst.get_str("Name"), Some("parameters"));
        assert_eq!(inst.get_int("Size"), Some(3_000));
        assert_eq!(inst.get_ref("Creator"), Some("User"));
        assert_eq!(inst.get_list("Tags").map(|l| l.len()), Some(2));
        assert!(inst.get("Missing").is_none());
    }

    #[test]
    fn set_and_unset() {
        let mut inst = Instance::new("A1", "Activity");
        inst.set("Status", Value::str("Ready"));
        assert_eq!(inst.get_str("Status"), Some("Ready"));
        assert_eq!(inst.unset("Status"), Some(Value::str("Ready")));
        assert!(inst.get("Status").is_none());
        assert!(inst.unset("Status").is_none());
    }

    #[test]
    fn ref_list_extracts_ids_in_order() {
        let inst = Instance::new("PD", "ProcessDescription")
            .with("Activity Set", Value::ref_list(["BEGIN", "POD", "END"]));
        assert_eq!(
            inst.get_ref_list("Activity Set"),
            vec!["BEGIN", "POD", "END"]
        );
        assert!(inst.get_ref_list("Transition Set").is_empty());
    }

    #[test]
    fn mixed_list_skips_non_refs() {
        let inst = Instance::new("X", "C").with(
            "L",
            Value::List(vec![
                Value::reference("a"),
                Value::Int(1),
                Value::reference("b"),
            ]),
        );
        assert_eq!(inst.get_ref_list("L"), vec!["a", "b"]);
    }

    #[test]
    fn serde_round_trip() {
        let inst = Instance::new("D1", "Data").with("Size", Value::Int(1));
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(inst, back);
    }
}
