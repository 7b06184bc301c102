//! Error type spanning the service layer.

use std::fmt;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ServiceError>;

/// Errors raised by core services.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Underlying grid substrate error.
    Grid(gridflow_grid::GridError),
    /// Underlying process/workflow error.
    Process(gridflow_process::ProcessError),
    /// Underlying ontology error.
    Ontology(gridflow_ontology::OntologyError),
    /// Underlying agent-substrate error.
    Agent(gridflow_agents::AgentError),
    /// No service offering registered under this name.
    UnknownOffering(String),
    /// No container could execute the activity, even after retries.
    ActivityFailed {
        /// The activity that could not execute.
        activity: String,
        /// The service it needed.
        service: String,
    },
    /// Enactment needed re-planning but it was disabled or exhausted.
    ReplanExhausted {
        /// Re-plans attempted.
        attempts: usize,
    },
    /// Re-planning could not produce a viable plan.
    NoViablePlan(String),
    /// Authentication failure.
    AuthDenied(String),
    /// Storage key not found.
    NotFound(String),
    /// Malformed request payload at the agent protocol layer.
    BadRequest(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Grid(e) => write!(f, "grid: {e}"),
            Self::Process(e) => write!(f, "process: {e}"),
            Self::Ontology(e) => write!(f, "ontology: {e}"),
            Self::Agent(e) => write!(f, "agent: {e}"),
            Self::UnknownOffering(s) => write!(f, "unknown service offering `{s}`"),
            Self::ActivityFailed { activity, service } => {
                write!(f, "activity `{activity}` (service `{service}`) failed on every candidate container")
            }
            Self::ReplanExhausted { attempts } => {
                write!(f, "re-planning exhausted after {attempts} attempts")
            }
            Self::NoViablePlan(msg) => write!(f, "no viable plan: {msg}"),
            Self::AuthDenied(msg) => write!(f, "authentication denied: {msg}"),
            Self::NotFound(key) => write!(f, "not found: `{key}`"),
            Self::BadRequest(msg) => write!(f, "bad request: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<gridflow_grid::GridError> for ServiceError {
    fn from(e: gridflow_grid::GridError) -> Self {
        ServiceError::Grid(e)
    }
}

impl From<gridflow_process::ProcessError> for ServiceError {
    fn from(e: gridflow_process::ProcessError) -> Self {
        ServiceError::Process(e)
    }
}

impl From<gridflow_ontology::OntologyError> for ServiceError {
    fn from(e: gridflow_ontology::OntologyError) -> Self {
        ServiceError::Ontology(e)
    }
}

impl From<gridflow_agents::AgentError> for ServiceError {
    fn from(e: gridflow_agents::AgentError) -> Self {
        ServiceError::Agent(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: ServiceError = gridflow_grid::GridError::ContainerDown("ac".into()).into();
        assert!(e.to_string().contains("ac"));
        let e: ServiceError = gridflow_process::ProcessError::Enactment("boom".into()).into();
        assert!(e.to_string().contains("boom"));
        assert!(ServiceError::ActivityFailed {
            activity: "P3DR1".into(),
            service: "P3DR".into()
        }
        .to_string()
        .contains("P3DR1"));
    }
}
