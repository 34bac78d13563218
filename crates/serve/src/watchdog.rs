//! Per-session watchdog deadlines: a cost-unit budget for one step.
//!
//! The measurement loop accounts everything in *cost units* (simulated
//! seconds of measurement time), so the watchdog does too: a step whose
//! annotation cost exceeds the deadline is treated as a runaway — its
//! outcome is discarded (a [`crate::session::Session`] step is pure with
//! respect to the durable checkpoint, so discarding is free) and a strike
//! is recorded. A committed step clears the strikes; the
//! [`WatchdogPolicy::STRIKE_LIMIT`]-th consecutive strike marks the session
//! degraded instead of wedging the server.

/// The watchdog policy one server applies to every session step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogPolicy {
    /// Per-step deadline in cost units. `f64::INFINITY` disables the
    /// watchdog.
    pub max_step_cost: f64,
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        Self {
            max_step_cost: f64::INFINITY,
        }
    }
}

impl WatchdogPolicy {
    /// The consecutive over-budget attempt that degrades a session: the
    /// attempts before it are shed and the session stays active.
    pub const STRIKE_LIMIT: usize = 3;

    /// Whether a step that cost `step_cost` busts the deadline.
    #[must_use]
    pub fn busted(&self, step_cost: f64) -> bool {
        step_cost > self.max_step_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_watchdog_never_trips() {
        let w = WatchdogPolicy::default();
        assert!(!w.busted(f64::MAX));
        assert!(!w.busted(f64::INFINITY));
    }
}
