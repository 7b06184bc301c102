//! Error type shared by all knowledge-base operations.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, OntologyError>;

/// Errors raised by knowledge-base operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OntologyError {
    /// A class with the same name is already defined.
    DuplicateClass(String),
    /// The referenced class does not exist in the knowledge base.
    UnknownClass(String),
    /// An instance with the same identifier already exists.
    DuplicateInstance(String),
    /// The referenced instance does not exist in the knowledge base.
    UnknownInstance(String),
    /// A slot referenced by an instance is not defined on (or inherited by)
    /// its class.
    UnknownSlot {
        /// Class the lookup was performed on.
        class: String,
        /// Slot that could not be resolved.
        slot: String,
    },
    /// A required slot carries no value.
    MissingRequiredSlot {
        /// Instance that failed validation.
        instance: String,
        /// The required slot with no value.
        slot: String,
    },
    /// A value violates one of the facets of its slot.
    FacetViolation {
        /// Instance that failed validation.
        instance: String,
        /// Slot whose facet was violated.
        slot: String,
        /// Human-readable description of the violated facet.
        reason: String,
    },
    /// A cycle was detected in the class hierarchy.
    InheritanceCycle(String),
    /// The parent class referenced by a class definition does not exist.
    UnknownParent {
        /// Class whose parent is missing.
        class: String,
        /// The missing parent.
        parent: String,
    },
    /// An abstract class cannot be instantiated directly.
    AbstractClass(String),
    /// Serialization / deserialization failure.
    Serde(String),
}

impl fmt::Display for OntologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateClass(c) => write!(f, "class `{c}` is already defined"),
            Self::UnknownClass(c) => write!(f, "unknown class `{c}`"),
            Self::DuplicateInstance(i) => write!(f, "instance `{i}` is already defined"),
            Self::UnknownInstance(i) => write!(f, "unknown instance `{i}`"),
            Self::UnknownSlot { class, slot } => {
                write!(f, "class `{class}` has no slot `{slot}`")
            }
            Self::MissingRequiredSlot { instance, slot } => {
                write!(f, "instance `{instance}` is missing required slot `{slot}`")
            }
            Self::FacetViolation {
                instance,
                slot,
                reason,
            } => write!(
                f,
                "instance `{instance}` slot `{slot}` violates facet: {reason}"
            ),
            Self::InheritanceCycle(c) => {
                write!(f, "inheritance cycle detected through class `{c}`")
            }
            Self::UnknownParent { class, parent } => {
                write!(f, "class `{class}` references unknown parent `{parent}`")
            }
            Self::AbstractClass(c) => {
                write!(f, "class `{c}` is abstract and cannot be instantiated")
            }
            Self::Serde(msg) => write!(f, "serialization error: {msg}"),
        }
    }
}

impl std::error::Error for OntologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = OntologyError::UnknownSlot {
            class: "Data".into(),
            slot: "Sizee".into(),
        };
        assert_eq!(e.to_string(), "class `Data` has no slot `Sizee`");
    }

    #[test]
    fn error_implements_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&OntologyError::UnknownClass("X".into()));
    }

    #[test]
    fn facet_violation_mentions_all_parts() {
        let e = OntologyError::FacetViolation {
            instance: "D1".into(),
            slot: "Size".into(),
            reason: "value 12 below minimum 100".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("D1"));
        assert!(msg.contains("Size"));
        assert!(msg.contains("below minimum"));
    }
}
