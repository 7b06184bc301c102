//! The authentication service: "The authentication services contribute
//! to the security of the environment" (§2).  The grid "consists of
//! autonomous nodes in different administrative domains" (§1), so
//! authorization is domain-scoped: a principal authenticates once and is
//! granted tokens whose capabilities list the domains it may dispatch
//! work into.
//!
//! This is a *simulation-grade* authenticator: secrets are verified by a
//! salted FNV-1a digest, which resists casual inspection of stored state
//! but is **not** a cryptographic KDF.  The substitution is documented in
//! DESIGN.md; nothing in the reproduced experiments depends on
//! cryptographic strength.

use crate::error::{Result, ServiceError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A granted token.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Token {
    /// Opaque token id.
    pub id: u64,
    /// Principal it was granted to.
    pub principal: String,
    /// Domains the holder may use.
    pub domains: Vec<String>,
    /// Remaining uses (tokens expire by use count in virtual worlds).
    pub remaining_uses: u32,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Principal {
    name: String,
    salt: u64,
    digest: u64,
    domains: Vec<String>,
}

/// The authentication service core.
#[derive(Debug, Clone, Default)]
pub struct AuthService {
    principals: BTreeMap<String, Principal>,
    tokens: BTreeMap<u64, Token>,
    next_token: u64,
    next_salt: u64,
}

fn fnv1a(salt: u64, secret: &str) -> u64 {
    let mut hash = 0xcbf29ce484222325u64 ^ salt;
    for b in secret.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

impl AuthService {
    /// An empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enroll a principal with access to the given domains.
    pub fn enroll<I, S>(&mut self, name: impl Into<String>, secret: &str, domains: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let name = name.into();
        self.next_salt = self
            .next_salt
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let salt = self.next_salt;
        self.principals.insert(
            name.clone(),
            Principal {
                name,
                salt,
                digest: fnv1a(salt, secret),
                domains: domains.into_iter().map(Into::into).collect(),
            },
        );
    }

    /// Authenticate and mint a token with `uses` remaining uses.
    pub fn authenticate(&mut self, name: &str, secret: &str, uses: u32) -> Result<Token> {
        let principal = self
            .principals
            .get(name)
            .ok_or_else(|| ServiceError::AuthDenied(format!("unknown principal `{name}`")))?;
        if fnv1a(principal.salt, secret) != principal.digest {
            return Err(ServiceError::AuthDenied("bad secret".into()));
        }
        self.next_token += 1;
        let token = Token {
            id: self.next_token,
            principal: principal.name.clone(),
            domains: principal.domains.clone(),
            remaining_uses: uses,
        };
        self.tokens.insert(token.id, token.clone());
        Ok(token)
    }

    /// Check (and consume one use of) a token for dispatching into
    /// `domain`.
    pub fn authorize(&mut self, token_id: u64, domain: &str) -> Result<()> {
        let token = self
            .tokens
            .get_mut(&token_id)
            .ok_or_else(|| ServiceError::AuthDenied("unknown token".into()))?;
        if token.remaining_uses == 0 {
            return Err(ServiceError::AuthDenied("token expired".into()));
        }
        if !token.domains.iter().any(|d| d == domain) {
            return Err(ServiceError::AuthDenied(format!(
                "principal `{}` has no access to domain `{domain}`",
                token.principal
            )));
        }
        token.remaining_uses -= 1;
        Ok(())
    }

    /// Revoke a token.
    pub fn revoke(&mut self, token_id: u64) -> Result<()> {
        self.tokens
            .remove(&token_id)
            .map(|_| ())
            .ok_or_else(|| ServiceError::AuthDenied("unknown token".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> AuthService {
        let mut auth = AuthService::new();
        auth.enroll("hyu", "virus-lab", ["ucf.edu", "purdue.edu"]);
        auth.enroll("guest", "guest", ["ucf.edu"]);
        auth
    }

    #[test]
    fn authenticate_and_authorize() {
        let mut auth = service();
        let token = auth.authenticate("hyu", "virus-lab", 3).unwrap();
        auth.authorize(token.id, "ucf.edu").unwrap();
        auth.authorize(token.id, "purdue.edu").unwrap();
        assert!(matches!(
            auth.authorize(token.id, "anl.gov"),
            Err(ServiceError::AuthDenied(_))
        ));
    }

    #[test]
    fn bad_secret_and_unknown_principal_denied() {
        let mut auth = service();
        assert!(auth.authenticate("hyu", "wrong", 1).is_err());
        assert!(auth.authenticate("nobody", "x", 1).is_err());
    }

    #[test]
    fn tokens_expire_by_use() {
        let mut auth = service();
        let token = auth.authenticate("guest", "guest", 2).unwrap();
        auth.authorize(token.id, "ucf.edu").unwrap();
        auth.authorize(token.id, "ucf.edu").unwrap();
        let err = auth.authorize(token.id, "ucf.edu").unwrap_err();
        assert!(err.to_string().contains("expired"));
    }

    #[test]
    fn failed_domain_check_does_not_consume_a_use() {
        let mut auth = service();
        let token = auth.authenticate("guest", "guest", 1).unwrap();
        let _ = auth.authorize(token.id, "anl.gov");
        auth.authorize(token.id, "ucf.edu").unwrap();
    }

    #[test]
    fn revoke_kills_token() {
        let mut auth = service();
        let token = auth.authenticate("hyu", "virus-lab", 10).unwrap();
        auth.revoke(token.id).unwrap();
        assert!(auth.authorize(token.id, "ucf.edu").is_err());
        assert!(auth.revoke(token.id).is_err());
    }

    #[test]
    fn same_secret_different_salts() {
        let mut auth = AuthService::new();
        auth.enroll("a", "s", ["d"]);
        auth.enroll("b", "s", ["d"]);
        let pa = auth.principals.get("a").unwrap().digest;
        let pb = auth.principals.get("b").unwrap().digest;
        assert_ne!(pa, pb, "salts must differentiate equal secrets");
    }
}
