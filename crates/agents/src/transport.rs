//! Pluggable message-transport interception.
//!
//! Every message routed through [`crate::Directory::deliver`] first
//! passes through the directory's [`Transport`], if one is installed.
//! The transport decides what actually reaches the wire: it may pass the
//! message through unchanged, swallow it (a network drop), duplicate it,
//! hold it back and release it later bundled with a subsequent message
//! (delay/reorder), or rewrite it.
//!
//! The production stack installs no transport — routing is direct and
//! lossless.  The deterministic-simulation harness
//! (`gridflow-harness`) installs a seeded fault-injecting transport to
//! exercise the §1 failure scenarios ("the ability to recover from
//! errors caused by the failure of individual nodes is a critical
//! aspect") without touching service code.

use crate::message::AclMessage;
use std::sync::Arc;

/// A message interceptor sitting between senders and the directory's
/// mailbox routing.
///
/// `intercept` receives each outbound message and returns the messages
/// to actually deliver, in order:
///
/// * `vec![msg]` — pass through unchanged;
/// * `vec![]` — drop the message (the sender still sees `Ok`: a lost
///   datagram, not an addressing error);
/// * `vec![msg.clone(), msg]` — duplicate delivery;
/// * hold `msg` internally and return it from a *later* call — delayed
///   or reordered delivery.
///
/// Implementations must be `Send + Sync`; interception happens on the
/// sending agent's thread.  Determinism is the implementor's contract:
/// a transport that decides from an owned seeded RNG keyed by the
/// intercept sequence makes whole-stack runs replayable.
pub trait Transport: Send + Sync {
    /// Map one outbound message to the messages actually delivered.
    fn intercept(&self, msg: AclMessage) -> Vec<AclMessage>;

    /// Messages the transport is still holding (delayed, not yet
    /// released).  Drivers may call this at quiescence to flush or
    /// account for in-flight traffic.  Default: none.
    fn drain(&self) -> Vec<AclMessage> {
        Vec::new()
    }
}

/// The directory's transport slot: an optional shared [`Transport`]
/// behind a lock, cloneable alongside the directory itself.
///
/// A newtype so [`crate::Directory`] keeps its derived `Debug`
/// (trait objects have none) and so install/clear stay race-free
/// against concurrent `deliver` calls.
#[derive(Clone, Default)]
pub struct TransportSlot {
    inner: Arc<parking_lot::RwLock<Option<Arc<dyn Transport>>>>,
}

impl TransportSlot {
    /// Install a transport, replacing any previous one.
    pub fn set(&self, transport: Arc<dyn Transport>) {
        *self.inner.write() = Some(transport);
    }

    /// Remove the installed transport (routing becomes direct again).
    pub fn clear(&self) {
        *self.inner.write() = None;
    }

    /// The currently installed transport, if any.
    pub fn get(&self) -> Option<Arc<dyn Transport>> {
        self.inner.read().clone()
    }
}

impl std::fmt::Debug for TransportSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let installed = self.inner.read().is_some();
        f.debug_struct("TransportSlot")
            .field("installed", &installed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Delivers every message once, in send order.
    struct Identity;

    impl Transport for Identity {
        fn intercept(&self, msg: AclMessage) -> Vec<AclMessage> {
            vec![msg]
        }
    }

    #[test]
    fn slot_set_get_clear() {
        let slot = TransportSlot::default();
        assert!(slot.get().is_none());
        slot.set(Arc::new(Identity));
        assert!(slot.get().is_some());
        assert_eq!(format!("{slot:?}"), "TransportSlot { installed: true }");
        slot.clear();
        assert!(slot.get().is_none());
    }

    #[test]
    fn default_drain_is_empty() {
        assert!(Identity.drain().is_empty());
    }
}
