//! The knowledge base: class taxonomy plus instance catalog.
//!
//! The paper's ontology service "maintains and distributes ontology shells
//! (i.e., ontologies with classes and slots but without instances) as well
//! as ontologies populated with instances, global ontologies, and
//! user-specific ontologies".  [`KnowledgeBase`] is that artifact: it can be
//! a shell (no instances) or populated, it validates instances against the
//! faceted class definitions, resolves inherited slots, answers taxonomy
//! and membership queries, and round-trips through JSON for the persistent
//! storage service.

use crate::class::ClassDef;
use crate::error::{OntologyError, Result};
use crate::instance::Instance;
use crate::slot::SlotDef;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A named collection of classes and instances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnowledgeBase {
    /// Name of the ontology (e.g. `"grid-core"` or a user-specific name).
    pub name: String,
    classes: BTreeMap<String, ClassDef>,
    instances: BTreeMap<String, Instance>,
}

impl KnowledgeBase {
    /// An empty knowledge base.
    pub fn new(name: impl Into<String>) -> Self {
        KnowledgeBase {
            name: name.into(),
            classes: BTreeMap::new(),
            instances: BTreeMap::new(),
        }
    }

    // ------------------------------------------------------------------
    // Classes
    // ------------------------------------------------------------------

    /// Add a class definition.
    ///
    /// Fails if a class with the same name exists or if the declared
    /// parent is unknown (a parent must pre-exist, so no cycle can form).
    pub fn add_class(&mut self, class: ClassDef) -> Result<()> {
        if self.classes.contains_key(&class.name) {
            return Err(OntologyError::DuplicateClass(class.name));
        }
        if let Some(parent) = &class.parent {
            if !self.classes.contains_key(parent) {
                return Err(OntologyError::UnknownParent {
                    class: class.name.clone(),
                    parent: parent.clone(),
                });
            }
        }
        self.classes.insert(class.name.clone(), class);
        Ok(())
    }

    /// Look up a class definition.
    pub fn class(&self, name: &str) -> Option<&ClassDef> {
        self.classes.get(name)
    }

    /// Iterate over all class definitions in name order.
    pub fn classes(&self) -> impl Iterator<Item = &ClassDef> {
        self.classes.values()
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Is `class` equal to `ancestor` or a (transitive) subclass of it?
    pub fn is_subclass_of(&self, class: &str, ancestor: &str) -> bool {
        let mut current = Some(class);
        let mut hops = 0usize;
        while let Some(name) = current {
            if name == ancestor {
                return true;
            }
            current = self.classes.get(name).and_then(|c| c.parent.as_deref());
            hops += 1;
            if hops > self.classes.len() {
                return false; // defensive: corrupt hierarchy
            }
        }
        false
    }

    /// The effective slots of a class: inherited slots first (root-most
    /// ancestor first), overridden by name by more-derived declarations.
    pub fn effective_slots(&self, class: &str) -> Result<Vec<&SlotDef>> {
        if !self.classes.contains_key(class) {
            return Err(OntologyError::UnknownClass(class.to_owned()));
        }
        // Collect the ancestry chain from root to leaf.
        let mut chain = Vec::new();
        let mut current = Some(class);
        while let Some(name) = current {
            let def = self
                .classes
                .get(name)
                .ok_or_else(|| OntologyError::UnknownClass(name.to_owned()))?;
            chain.push(def);
            current = def.parent.as_deref();
            if chain.len() > self.classes.len() {
                return Err(OntologyError::InheritanceCycle(class.to_owned()));
            }
        }
        chain.reverse();
        let mut slots: Vec<&SlotDef> = Vec::new();
        for def in chain {
            for slot in &def.slots {
                if let Some(existing) = slots.iter_mut().find(|s| s.name == slot.name) {
                    *existing = slot; // derived class overrides
                } else {
                    slots.push(slot);
                }
            }
        }
        Ok(slots)
    }

    // ------------------------------------------------------------------
    // Instances
    // ------------------------------------------------------------------

    /// Add an instance after validating it; slots with defaults that the
    /// instance omits are filled in from the class definition.
    pub fn add_instance(&mut self, mut instance: Instance) -> Result<()> {
        if self.instances.contains_key(&instance.id) {
            return Err(OntologyError::DuplicateInstance(instance.id));
        }
        self.apply_defaults(&mut instance)?;
        self.validate_instance(&instance)?;
        self.instances.insert(instance.id.clone(), instance);
        Ok(())
    }

    fn apply_defaults(&self, instance: &mut Instance) -> Result<()> {
        let defaults: Vec<(String, Value)> = self
            .effective_slots(&instance.class)?
            .into_iter()
            .filter(|s| !instance.values.contains_key(&s.name))
            .filter_map(|s| s.facets.default.clone().map(|d| (s.name.clone(), d)))
            .collect();
        for (name, value) in defaults {
            instance.values.insert(name, value);
        }
        Ok(())
    }

    /// Validate an instance against its class without storing it.
    pub fn validate_instance(&self, instance: &Instance) -> Result<()> {
        let class = self
            .classes
            .get(&instance.class)
            .ok_or_else(|| OntologyError::UnknownClass(instance.class.clone()))?;
        if class.is_abstract {
            return Err(OntologyError::AbstractClass(class.name.clone()));
        }
        let slots = self.effective_slots(&instance.class)?;
        // Required slots must be present.
        for slot in &slots {
            if slot.facets.required && !instance.values.contains_key(&slot.name) {
                return Err(OntologyError::MissingRequiredSlot {
                    instance: instance.id.clone(),
                    slot: slot.name.clone(),
                });
            }
        }
        // All present values must belong to a known slot and satisfy facets.
        for (name, value) in &instance.values {
            let slot = slots.iter().find(|s| &s.name == name).ok_or_else(|| {
                OntologyError::UnknownSlot {
                    class: instance.class.clone(),
                    slot: name.clone(),
                }
            })?;
            slot.facets
                .check(value)
                .map_err(|reason| OntologyError::FacetViolation {
                    instance: instance.id.clone(),
                    slot: name.clone(),
                    reason,
                })?;
            if let Some(ref_class) = &slot.facets.ref_class {
                self.check_ref_class(instance, &slot.name, value, ref_class)?;
            }
        }
        Ok(())
    }

    /// Reference-class facet check: every referenced instance that is
    /// *present in this KB* must belong to `ref_class` or a subclass.
    /// Dangling references are tolerated (ontologies are assembled
    /// piecewise and merged; see [`Self::dangling_refs`] to audit them).
    fn check_ref_class(
        &self,
        instance: &Instance,
        slot: &str,
        value: &Value,
        ref_class: &str,
    ) -> Result<()> {
        let ids: Vec<&str> = match value {
            Value::Ref(id) => vec![id.as_str()],
            Value::List(items) => items.iter().filter_map(Value::as_ref_id).collect(),
            _ => Vec::new(),
        };
        for id in ids {
            if let Some(target) = self.instances.get(id) {
                if !self.is_subclass_of(&target.class, ref_class) {
                    return Err(OntologyError::FacetViolation {
                        instance: instance.id.clone(),
                        slot: slot.to_owned(),
                        reason: format!(
                            "referenced instance `{id}` has class `{}`, expected `{ref_class}`",
                            target.class
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Re-validate every stored instance (e.g. after schema evolution).
    /// Returns all errors rather than stopping at the first.
    pub fn validate_all(&self) -> Vec<OntologyError> {
        self.instances
            .values()
            .filter_map(|i| self.validate_instance(i).err())
            .collect()
    }

    /// Instance ids referenced by some slot but absent from the KB.
    pub fn dangling_refs(&self) -> Vec<(String, String, String)> {
        let mut out = Vec::new();
        for inst in self.instances.values() {
            for (slot, value) in &inst.values {
                let ids: Vec<&str> = match value {
                    Value::Ref(id) => vec![id.as_str()],
                    Value::List(items) => items.iter().filter_map(Value::as_ref_id).collect(),
                    _ => Vec::new(),
                };
                for id in ids {
                    if !self.instances.contains_key(id) {
                        out.push((inst.id.clone(), slot.clone(), id.to_owned()));
                    }
                }
            }
        }
        out
    }

    /// Look up an instance by id.
    pub fn instance(&self, id: &str) -> Option<&Instance> {
        self.instances.get(id)
    }

    /// Mutably look up an instance by id.
    ///
    /// Mutations bypass validation for efficiency (the coordination service
    /// updates `Status` slots at every workflow step); call
    /// [`Self::validate_all`] to audit.
    pub fn instance_mut(&mut self, id: &str) -> Option<&mut Instance> {
        self.instances.get_mut(id)
    }

    /// Remove an instance, returning it.
    pub fn remove_instance(&mut self, id: &str) -> Result<Instance> {
        self.instances
            .remove(id)
            .ok_or_else(|| OntologyError::UnknownInstance(id.to_owned()))
    }

    /// Iterate over all instances in id order.
    pub fn instances(&self) -> impl Iterator<Item = &Instance> {
        self.instances.values()
    }

    /// Iterate over the instances of `class` *or any of its subclasses*.
    pub fn instances_of<'a>(&'a self, class: &'a str) -> impl Iterator<Item = &'a Instance> + 'a {
        self.instances
            .values()
            .filter(move |i| self.is_subclass_of(&i.class, class))
    }

    /// Number of instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Is this a shell (classes and slots but no instances)?
    pub fn is_shell(&self) -> bool {
        self.instances.is_empty()
    }

    /// A shell copy: same classes, no instances.  This is what the ontology
    /// service hands out to end-users who then populate it.
    pub fn shell(&self) -> KnowledgeBase {
        KnowledgeBase {
            name: format!("{}-shell", self.name),
            classes: self.classes.clone(),
            instances: BTreeMap::new(),
        }
    }

    /// Merge another knowledge base into this one.
    ///
    /// Classes present in both must be identical; instances must not
    /// collide.  This is how a populated user ontology is combined with the
    /// global grid ontology.
    pub fn merge(&mut self, other: &KnowledgeBase) -> Result<()> {
        for class in other.classes.values() {
            match self.classes.get(&class.name) {
                None => {
                    self.classes.insert(class.name.clone(), class.clone());
                }
                Some(existing) if existing == class => {}
                Some(_) => return Err(OntologyError::DuplicateClass(class.name.clone())),
            }
        }
        for inst in other.instances.values() {
            if self.instances.contains_key(&inst.id) {
                return Err(OntologyError::DuplicateInstance(inst.id.clone()));
            }
        }
        for inst in other.instances.values() {
            self.instances.insert(inst.id.clone(), inst.clone());
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// Serialize to pretty JSON (persistent-storage wire format).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string_pretty(self).map_err(|e| OntologyError::Serde(e.to_string()))
    }

    /// Deserialize from JSON.
    pub fn from_json(json: &str) -> Result<KnowledgeBase> {
        serde_json::from_str(json).map_err(|e| OntologyError::Serde(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::SlotDef;
    use crate::value::ValueType;

    fn kb_with_data_class() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new("test");
        kb.add_class(
            ClassDef::new("Data")
                .with_slot(SlotDef::required("Name", ValueType::Str))
                .with_slot(SlotDef::optional("Size", ValueType::Int).with_range(Some(0.0), None))
                .with_slot(
                    SlotDef::optional("Format", ValueType::Str).with_default(Value::str("Text")),
                ),
        )
        .unwrap();
        kb
    }

    #[test]
    fn duplicate_class_rejected() {
        let mut kb = kb_with_data_class();
        let err = kb.add_class(ClassDef::new("Data")).unwrap_err();
        assert_eq!(err, OntologyError::DuplicateClass("Data".into()));
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut kb = KnowledgeBase::new("t");
        let err = kb
            .add_class(ClassDef::new("Child").with_parent("Nope"))
            .unwrap_err();
        assert!(matches!(err, OntologyError::UnknownParent { .. }));
    }

    #[test]
    fn instance_validation_happy_path_and_defaults() {
        let mut kb = kb_with_data_class();
        kb.add_instance(Instance::new("D1", "Data").with("Name", Value::str("img")))
            .unwrap();
        let d1 = kb.instance("D1").unwrap();
        assert_eq!(d1.get_str("Format"), Some("Text")); // default applied
    }

    #[test]
    fn missing_required_slot_rejected() {
        let mut kb = kb_with_data_class();
        let err = kb
            .add_instance(Instance::new("D1", "Data").with("Size", Value::Int(1)))
            .unwrap_err();
        assert!(matches!(err, OntologyError::MissingRequiredSlot { .. }));
    }

    #[test]
    fn facet_violation_rejected() {
        let mut kb = kb_with_data_class();
        let err = kb
            .add_instance(
                Instance::new("D1", "Data")
                    .with("Name", Value::str("x"))
                    .with("Size", Value::Int(-5)),
            )
            .unwrap_err();
        assert!(matches!(err, OntologyError::FacetViolation { .. }));
    }

    #[test]
    fn unknown_slot_rejected() {
        let mut kb = kb_with_data_class();
        let err = kb
            .add_instance(
                Instance::new("D1", "Data")
                    .with("Name", Value::str("x"))
                    .with("Sizee", Value::Int(5)),
            )
            .unwrap_err();
        assert!(matches!(err, OntologyError::UnknownSlot { .. }));
    }

    #[test]
    fn inheritance_resolves_effective_slots() {
        let mut kb = KnowledgeBase::new("t");
        kb.add_class(
            ClassDef::new("Resource")
                .with_slot(SlotDef::required("Name", ValueType::Str))
                .with_slot(SlotDef::optional("Location", ValueType::Str)),
        )
        .unwrap();
        kb.add_class(
            ClassDef::new("Cluster")
                .with_parent("Resource")
                .with_slot(SlotDef::optional("Number of Nodes", ValueType::Int)),
        )
        .unwrap();
        let names: Vec<&str> = kb
            .effective_slots("Cluster")
            .unwrap()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(names, vec!["Name", "Location", "Number of Nodes"]);
        assert!(kb.is_subclass_of("Cluster", "Resource"));
        assert!(!kb.is_subclass_of("Resource", "Cluster"));
    }

    #[test]
    fn derived_class_overrides_slot_by_name() {
        let mut kb = KnowledgeBase::new("t");
        kb.add_class(ClassDef::new("Base").with_slot(SlotDef::optional("Speed", ValueType::Int)))
            .unwrap();
        kb.add_class(
            ClassDef::new("Derived")
                .with_parent("Base")
                .with_slot(SlotDef::required("Speed", ValueType::Float)),
        )
        .unwrap();
        let slots = kb.effective_slots("Derived").unwrap();
        assert_eq!(slots.len(), 1, "the override replaces, not appends");
        let slot = slots[0];
        assert!(slot.facets.required);
        assert_eq!(slot.facets.value_type, ValueType::Float);
    }

    #[test]
    fn abstract_class_cannot_be_instantiated() {
        let mut kb = KnowledgeBase::new("t");
        kb.add_class(ClassDef::new("Abstract").abstract_class())
            .unwrap();
        let err = kb.add_instance(Instance::new("x", "Abstract")).unwrap_err();
        assert_eq!(err, OntologyError::AbstractClass("Abstract".into()));
    }

    #[test]
    fn instances_of_includes_subclasses() {
        let mut kb = KnowledgeBase::new("t");
        kb.add_class(ClassDef::new("Resource")).unwrap();
        kb.add_class(ClassDef::new("Cluster").with_parent("Resource"))
            .unwrap();
        kb.add_instance(Instance::new("r1", "Resource")).unwrap();
        kb.add_instance(Instance::new("c1", "Cluster")).unwrap();
        assert_eq!(kb.instances_of("Resource").count(), 2);
        assert_eq!(kb.instances_of("Cluster").count(), 1);
    }

    #[test]
    fn ref_class_facet_enforced_for_present_targets() {
        let mut kb = KnowledgeBase::new("t");
        kb.add_class(ClassDef::new("Hardware")).unwrap();
        kb.add_class(ClassDef::new("Software")).unwrap();
        kb.add_class(
            ClassDef::new("Resource").with_slot(SlotDef::reference("Hardware", "Hardware")),
        )
        .unwrap();
        kb.add_instance(Instance::new("hw1", "Hardware")).unwrap();
        kb.add_instance(Instance::new("sw1", "Software")).unwrap();
        kb.add_instance(Instance::new("r1", "Resource").with("Hardware", Value::reference("hw1")))
            .unwrap();
        let err = kb
            .add_instance(Instance::new("r2", "Resource").with("Hardware", Value::reference("sw1")))
            .unwrap_err();
        assert!(matches!(err, OntologyError::FacetViolation { .. }));
    }

    #[test]
    fn dangling_refs_are_tolerated_and_reported() {
        let mut kb = KnowledgeBase::new("t");
        kb.add_class(ClassDef::new("Hardware")).unwrap();
        kb.add_class(
            ClassDef::new("Resource").with_slot(SlotDef::reference("Hardware", "Hardware")),
        )
        .unwrap();
        kb.add_instance(
            Instance::new("r1", "Resource").with("Hardware", Value::reference("missing")),
        )
        .unwrap();
        let dangling = kb.dangling_refs();
        assert_eq!(dangling.len(), 1);
        assert_eq!(dangling[0].2, "missing");
    }

    #[test]
    fn shell_strips_instances() {
        let mut kb = kb_with_data_class();
        kb.add_instance(Instance::new("D1", "Data").with("Name", Value::str("x")))
            .unwrap();
        let shell = kb.shell();
        assert!(shell.is_shell());
        assert_eq!(shell.class_count(), 1);
        assert!(!kb.is_shell());
    }

    #[test]
    fn merge_combines_and_detects_conflicts() {
        let mut global = kb_with_data_class();
        let mut user = global.shell();
        user.add_instance(Instance::new("D1", "Data").with("Name", Value::str("x")))
            .unwrap();
        global.merge(&user).unwrap();
        assert_eq!(global.instance_count(), 1);
        // Second merge collides on D1.
        assert!(matches!(
            global.merge(&user).unwrap_err(),
            OntologyError::DuplicateInstance(_)
        ));
    }

    #[test]
    fn merge_rejects_conflicting_class_definitions() {
        let mut a = KnowledgeBase::new("a");
        a.add_class(ClassDef::new("C").with_slot(SlotDef::optional("X", ValueType::Int)))
            .unwrap();
        let mut b = KnowledgeBase::new("b");
        b.add_class(ClassDef::new("C").with_slot(SlotDef::optional("X", ValueType::Str)))
            .unwrap();
        assert!(matches!(
            a.merge(&b).unwrap_err(),
            OntologyError::DuplicateClass(_)
        ));
    }

    #[test]
    fn json_round_trip() {
        let mut kb = kb_with_data_class();
        kb.add_instance(Instance::new("D1", "Data").with("Name", Value::str("x")))
            .unwrap();
        let json = kb.to_json().unwrap();
        let back = KnowledgeBase::from_json(&json).unwrap();
        assert_eq!(kb, back);
    }

    #[test]
    fn validate_all_reports_every_error() {
        let mut kb = kb_with_data_class();
        kb.add_instance(Instance::new("D1", "Data").with("Name", Value::str("x")))
            .unwrap();
        // Corrupt two instances through the unchecked mutable path.
        kb.add_instance(Instance::new("D2", "Data").with("Name", Value::str("y")))
            .unwrap();
        kb.instance_mut("D1").unwrap().set("Size", Value::Int(-1));
        kb.instance_mut("D2").unwrap().unset("Name");
        let errors = kb.validate_all();
        assert_eq!(errors.len(), 2);
    }
}
