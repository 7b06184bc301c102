//! The persistent storage service: "Persistent storage services provide
//! access to the data needed for the execution of user tasks" (§2), and
//! process descriptions "can be archived using the system knowledge
//! base" (§3).
//!
//! A versioned key-value store over JSON documents: every `put` appends a
//! new version; readers fetch the latest or any historical version; the
//! whole store snapshots to a single JSON document for durability.

use crate::error::{Result, ServiceError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One stored version.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionedDoc {
    /// 1-based version number.
    pub version: u64,
    /// The document.
    pub body: serde_json::Value,
}

/// The storage service core.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StorageService {
    entries: BTreeMap<String, Vec<VersionedDoc>>,
}

impl StorageService {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a document under `key`, returning the new version number.
    pub fn put(&mut self, key: impl Into<String>, body: serde_json::Value) -> u64 {
        let versions = self.entries.entry(key.into()).or_default();
        let version = versions.len() as u64 + 1;
        versions.push(VersionedDoc { version, body });
        version
    }

    /// Fetch the latest version of `key`.
    pub fn get(&self, key: &str) -> Result<&VersionedDoc> {
        self.entries
            .get(key)
            .and_then(|v| v.last())
            .ok_or_else(|| ServiceError::NotFound(key.to_owned()))
    }

    /// Fetch a specific version of `key`.
    pub fn get_version(&self, key: &str, version: u64) -> Result<&VersionedDoc> {
        self.entries
            .get(key)
            .and_then(|v| v.iter().find(|d| d.version == version))
            .ok_or_else(|| ServiceError::NotFound(format!("{key}@v{version}")))
    }

    /// All keys, in order.
    pub fn keys(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Keys matching a prefix (cheap namespace listing).
    pub fn keys_with_prefix<'a>(&'a self, prefix: &'a str) -> Vec<&'a str> {
        self.entries
            .keys()
            .filter(move |k| k.starts_with(prefix))
            .map(String::as_str)
            .collect()
    }

    /// Number of stored versions of `key` (0 if absent).
    pub fn version_count(&self, key: &str) -> u64 {
        self.entries.get(key).map(|v| v.len() as u64).unwrap_or(0)
    }

    /// Serialize the whole store.
    pub fn snapshot(&self) -> Result<String> {
        serde_json::to_string_pretty(self)
            .map_err(|e| ServiceError::BadRequest(format!("snapshot: {e}")))
    }

    /// Restore a store from a snapshot.
    pub fn restore(snapshot: &str) -> Result<Self> {
        serde_json::from_str(snapshot)
            .map_err(|e| ServiceError::BadRequest(format!("restore: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn put_get_versioning() {
        let mut s = StorageService::new();
        assert_eq!(s.put("pd/3dsd", json!({"v": 1})), 1);
        assert_eq!(s.put("pd/3dsd", json!({"v": 2})), 2);
        assert_eq!(s.get("pd/3dsd").unwrap().body, json!({"v": 2}));
        assert_eq!(s.get_version("pd/3dsd", 1).unwrap().body, json!({"v": 1}));
        assert_eq!(s.version_count("pd/3dsd"), 2);
        assert_eq!(s.version_count("nope"), 0);
    }

    #[test]
    fn missing_keys_and_versions_error() {
        let s = StorageService::new();
        assert!(matches!(s.get("x"), Err(ServiceError::NotFound(_))));
        let mut s = StorageService::new();
        s.put("x", json!(1));
        assert!(s.get_version("x", 2).is_err());
    }

    #[test]
    fn prefix_listing() {
        let mut s = StorageService::new();
        s.put("pd/a", json!(1));
        s.put("pd/b", json!(1));
        s.put("case/a", json!(1));
        assert_eq!(s.keys_with_prefix("pd/"), vec!["pd/a", "pd/b"]);
        assert_eq!(s.keys().len(), 3);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut s = StorageService::new();
        s.put("a", json!({"x": [1, 2, 3]}));
        s.put("a", json!({"x": [4]}));
        s.put("b", json!("text"));
        let snap = s.snapshot().unwrap();
        let restored = StorageService::restore(&snap).unwrap();
        assert_eq!(s, restored);
    }
}
