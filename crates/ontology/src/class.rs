//! Class definitions with single inheritance.

use crate::slot::SlotDef;
use serde::{Deserialize, Serialize};

/// A frame class: a named collection of slot definitions, optionally
/// inheriting the slots of a parent class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassDef {
    /// Class name, unique in a knowledge base.
    pub name: String,
    /// Human-readable documentation.
    pub doc: String,
    /// Parent class, if any (single inheritance, as in Protégé's usual
    /// modelling style for this ontology).
    pub parent: Option<String>,
    /// Slots declared directly on this class.  Effective slots (including
    /// inherited ones) are resolved by the knowledge base.
    pub slots: Vec<SlotDef>,
    /// Abstract classes structure the taxonomy but cannot be instantiated.
    pub is_abstract: bool,
}

impl ClassDef {
    /// A new concrete class with no parent and no slots.
    pub fn new(name: impl Into<String>) -> Self {
        ClassDef {
            name: name.into(),
            doc: String::new(),
            parent: None,
            slots: Vec::new(),
            is_abstract: false,
        }
    }

    /// Attach documentation (builder style).
    pub fn with_doc(mut self, doc: impl Into<String>) -> Self {
        self.doc = doc.into();
        self
    }

    /// Set the parent class (builder style).
    pub fn with_parent(mut self, parent: impl Into<String>) -> Self {
        self.parent = Some(parent.into());
        self
    }

    /// Add a slot (builder style).
    pub fn with_slot(mut self, slot: SlotDef) -> Self {
        self.slots.push(slot);
        self
    }

    /// Mark the class abstract (builder style).
    pub fn abstract_class(mut self) -> Self {
        self.is_abstract = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueType;

    #[test]
    fn builder_composes() {
        let c = ClassDef::new("Resource")
            .with_doc("A grid resource")
            .with_slot(SlotDef::required("Name", ValueType::Str))
            .with_slot(SlotDef::optional("Location", ValueType::Str));
        assert_eq!(c.name, "Resource");
        assert_eq!(c.slots.len(), 2);
        assert_eq!(c.slots[0].name, "Name");
        assert!(!c.is_abstract);
    }

    #[test]
    fn parent_and_abstract() {
        let c = ClassDef::new("ComputeResource")
            .with_parent("Resource")
            .abstract_class();
        assert_eq!(c.parent.as_deref(), Some("Resource"));
        assert!(c.is_abstract);
    }
}
