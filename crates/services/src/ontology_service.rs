//! The ontology service: "maintain\[s\] and distribute\[s\] ontology shells
//! (i.e., ontologies with classes and slots but without instances) as
//! well as ontologies populated with instances, global ontologies, and
//! user-specific ontologies" (§2).

use crate::error::{Result, ServiceError};
use gridflow_ontology::KnowledgeBase;
use std::collections::BTreeMap;

/// The ontology service core: a catalog of named knowledge bases.
#[derive(Debug, Clone, Default)]
pub struct OntologyService {
    ontologies: BTreeMap<String, KnowledgeBase>,
}

impl OntologyService {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// A catalog preloaded with the paper's grid ontology shell
    /// (Fig. 12) under the name `"grid-core"`.
    pub fn with_grid_core() -> Self {
        let mut svc = Self::new();
        svc.publish(gridflow_ontology::schema::grid_ontology_shell());
        svc
    }

    /// Publish (or replace) an ontology under its own name.
    pub fn publish(&mut self, kb: KnowledgeBase) {
        self.ontologies.insert(kb.name.clone(), kb);
    }

    /// Retrieve a full (possibly populated) ontology.
    pub fn get(&self, name: &str) -> Result<&KnowledgeBase> {
        self.ontologies
            .get(name)
            .ok_or_else(|| ServiceError::NotFound(format!("ontology `{name}`")))
    }

    /// Retrieve the *shell* of an ontology: classes and slots, no
    /// instances.
    pub fn get_shell(&self, name: &str) -> Result<KnowledgeBase> {
        Ok(self.get(name)?.shell())
    }

    /// Merge a user-specific populated ontology into a global one,
    /// in place.
    pub fn merge_into(&mut self, global: &str, user: &KnowledgeBase) -> Result<()> {
        let target = self
            .ontologies
            .get_mut(global)
            .ok_or_else(|| ServiceError::NotFound(format!("ontology `{global}`")))?;
        target.merge(user)?;
        Ok(())
    }

    /// Names of all published ontologies.
    pub fn names(&self) -> Vec<&str> {
        self.ontologies.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridflow_ontology::{Instance, Value};

    #[test]
    fn grid_core_is_preloaded_as_shell() {
        let svc = OntologyService::with_grid_core();
        let kb = svc.get("grid-core").unwrap();
        assert!(kb.is_shell());
        assert_eq!(kb.class_count(), 10);
        assert_eq!(svc.names(), vec!["grid-core"]);
    }

    #[test]
    fn get_shell_strips_instances() {
        let mut svc = OntologyService::with_grid_core();
        let mut populated = svc.get("grid-core").unwrap().clone();
        populated.name = "user-1".into();
        populated
            .add_instance(Instance::new("D1", "Data").with("Name", Value::str("projections")))
            .unwrap();
        svc.publish(populated);
        assert_eq!(svc.get("user-1").unwrap().instance_count(), 1);
        let shell = svc.get_shell("user-1").unwrap();
        assert!(shell.is_shell());
    }

    #[test]
    fn missing_ontology_is_not_found() {
        let svc = OntologyService::new();
        assert!(matches!(svc.get("nope"), Err(ServiceError::NotFound(_))));
    }

    #[test]
    fn merge_into_combines_user_data() {
        let mut svc = OntologyService::with_grid_core();
        let mut user = svc.get_shell("grid-core").unwrap();
        user.name = "user-kb".into();
        user.add_instance(Instance::new("D1", "Data").with("Name", Value::str("x")))
            .unwrap();
        svc.merge_into("grid-core", &user).unwrap();
        assert_eq!(svc.get("grid-core").unwrap().instance_count(), 1);
        // Second merge collides.
        assert!(svc.merge_into("grid-core", &user).is_err());
    }
}
