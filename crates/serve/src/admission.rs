//! Admission control: bounded registries and bounded requests.
//!
//! The server sheds load instead of degrading everyone: a request that
//! would push past a bound gets a typed `overloaded` response immediately
//! (the client can retry, back off or target another server). Memory needs
//! no bound of its own beyond the resident set: a session's
//! [`pwu_spapt::EvalCache`] memo is empty between requests.

use crate::protocol::{ErrorKind, ProtocolError};

/// The bounds one server enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Maximum sessions (any state) registered at once; `create` past this
    /// is refused.
    pub max_sessions: usize,
    /// Maximum sessions resident in memory (active or degraded); `create`
    /// and `resume` past this are refused until something is suspended.
    pub max_resident: usize,
    /// Maximum iterations one `step` request may ask for; bigger requests
    /// are refused (bounded work per request keeps the loop responsive).
    pub max_steps_per_request: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            max_sessions: 4096,
            max_resident: 1024,
            max_steps_per_request: 64,
        }
    }
}

impl AdmissionPolicy {
    /// Checks a `create` against the registry size.
    ///
    /// # Errors
    /// Returns an [`ErrorKind::Overloaded`] error when the registry is full.
    pub fn admit_create(&self, registered: usize) -> Result<(), ProtocolError> {
        if registered >= self.max_sessions {
            return Err(ProtocolError::new(
                ErrorKind::Overloaded,
                format!(
                    "session registry is full ({} of {}); kill or retry later",
                    registered, self.max_sessions
                ),
            ));
        }
        Ok(())
    }

    /// Checks that another session may be loaded into memory.
    ///
    /// # Errors
    /// Returns an [`ErrorKind::Overloaded`] error when the resident set is
    /// full.
    pub fn admit_resident(&self, resident: usize) -> Result<(), ProtocolError> {
        if resident >= self.max_resident {
            return Err(ProtocolError::new(
                ErrorKind::Overloaded,
                format!(
                    "resident-session limit reached ({} of {}); suspend something first",
                    resident, self.max_resident
                ),
            ));
        }
        Ok(())
    }

    /// Checks a `step` request's iteration count.
    ///
    /// # Errors
    /// Returns an [`ErrorKind::Overloaded`] error when `n` exceeds the
    /// per-request bound (and a `bad-request` error when `n` is zero).
    pub fn admit_steps(&self, n: usize) -> Result<(), ProtocolError> {
        if n == 0 {
            return Err(ProtocolError::new(
                ErrorKind::BadRequest,
                "step count must be at least 1",
            ));
        }
        if n > self.max_steps_per_request {
            return Err(ProtocolError::new(
                ErrorKind::Overloaded,
                format!(
                    "step count {n} exceeds the per-request bound {}; split the request",
                    self.max_steps_per_request
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_produce_typed_overloads() {
        let p = AdmissionPolicy {
            max_sessions: 2,
            max_resident: 1,
            max_steps_per_request: 8,
        };
        assert!(p.admit_create(1).is_ok());
        assert_eq!(p.admit_create(2).unwrap_err().kind, ErrorKind::Overloaded);
        assert!(p.admit_resident(0).is_ok());
        assert_eq!(p.admit_resident(1).unwrap_err().kind, ErrorKind::Overloaded);
        assert!(p.admit_steps(8).is_ok());
        assert_eq!(p.admit_steps(9).unwrap_err().kind, ErrorKind::Overloaded);
        assert_eq!(p.admit_steps(0).unwrap_err().kind, ErrorKind::BadRequest);
    }
}
