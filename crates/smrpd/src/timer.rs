//! A monotonic-clock timer driver mirroring the simulator's
//! [`smrp_sim::TimerToken`] semantics.
//!
//! The simulator's engine gives every armed timer a never-reused token;
//! cancelling a token silences exactly that entry, and a timer armed
//! *before* a node crash but due *after* its repair still fires. The
//! daemon needs identical semantics on wall-clock time, so this driver
//! parks its timers on the engine's own [`TimerWheel`]:
//!
//! * [`schedule`](TimerDriver::schedule) files a `(deadline, payload)`
//!   entry under a caller-supplied token (the fresh one the router drew
//!   from its [`smrp_sim::Ctx`]) and remembers the token's wheel handle;
//! * [`cancel`](TimerDriver::cancel) cancels that handle, O(1);
//! * timers pop in `(deadline, arm order)` order, the engine's
//!   `(time, seq)` order.

use std::collections::HashMap;

use smrp_sim::{SimTime, TimerHandle, TimerToken, TimerWheel};

/// Pending-timer store keyed by [`TimerToken`], generic over the
/// router's timer payload.
#[derive(Debug)]
pub struct TimerDriver<T> {
    wheel: TimerWheel<(TimerToken, T)>,
    /// token → the wheel handle of its pending entry.
    handles: HashMap<TimerToken, TimerHandle>,
    /// Arm order; breaks deadline ties on the wheel.
    seq: u64,
}

impl<T> Default for TimerDriver<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerDriver<T> {
    /// An empty driver.
    pub fn new() -> Self {
        TimerDriver {
            wheel: TimerWheel::new(),
            handles: HashMap::new(),
            seq: 0,
        }
    }

    /// Arms `token` to deliver `payload` at `deadline`. The token must not
    /// be pending, the engine's rule: every token a router arms is fresh
    /// from its context's counter.
    pub fn schedule(&mut self, deadline: SimTime, token: TimerToken, payload: T) {
        let handle = self.wheel.schedule(deadline, self.seq, (token, payload));
        self.seq += 1;
        let pending = self.handles.insert(token, handle);
        debug_assert!(pending.is_none(), "{token:?} armed while still pending");
    }

    /// Silences `token` if it is armed; unknown tokens are a no-op,
    /// matching the engine's tolerance for cancelling already-fired
    /// timers.
    pub fn cancel(&mut self, token: TimerToken) {
        if let Some(handle) = self.handles.remove(&token) {
            self.wheel.cancel(handle);
        }
    }

    /// Earliest live deadline, if any.
    pub(crate) fn next_deadline(&mut self) -> Option<SimTime> {
        self.wheel.peek_key().map(|(at, _)| at)
    }

    /// Pops one timer whose deadline is `<= now`, in deadline order.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(TimerToken, T)> {
        if self.next_deadline()? > now {
            return None;
        }
        let (_, _, (token, payload)) = self.wheel.pop()?;
        self.handles.remove(&token);
        Some((token, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tok(ctx: &mut u64) -> TimerToken {
        // Tokens in the daemon come from `Ctx::standalone`'s shared
        // counter; tests fabricate the same monotone sequence.
        let t = TimerToken::from_raw(*ctx);
        *ctx += 1;
        t
    }

    #[test]
    fn fires_in_deadline_order() {
        let mut c = 0;
        let mut d = TimerDriver::new();
        let (t1, t2, t3) = (tok(&mut c), tok(&mut c), tok(&mut c));
        d.schedule(SimTime::from_ms(30.0), t3, "late");
        d.schedule(SimTime::from_ms(10.0), t1, "early");
        d.schedule(SimTime::from_ms(20.0), t2, "mid");
        assert_eq!(d.next_deadline(), Some(SimTime::from_ms(10.0)));
        assert_eq!(d.pop_due(SimTime::from_ms(25.0)), Some((t1, "early")));
        assert_eq!(d.pop_due(SimTime::from_ms(25.0)), Some((t2, "mid")));
        assert_eq!(d.pop_due(SimTime::from_ms(25.0)), None);
        assert_eq!(d.pop_due(SimTime::from_ms(30.0)), Some((t3, "late")));
        assert_eq!(d.wheel.len(), 0);
    }

    #[test]
    fn cancel_tombstones_without_disturbing_others() {
        let mut c = 0;
        let mut d = TimerDriver::new();
        let (t1, t2) = (tok(&mut c), tok(&mut c));
        d.schedule(SimTime::from_ms(5.0), t1, 'a');
        d.schedule(SimTime::from_ms(6.0), t2, 'b');
        d.cancel(t1);
        assert_eq!(d.wheel.len(), 1);
        assert_eq!(d.next_deadline(), Some(SimTime::from_ms(6.0)));
        assert_eq!(d.pop_due(SimTime::from_ms(10.0)), Some((t2, 'b')));
        // Cancelling something already gone is a no-op.
        d.cancel(t2);
        assert_eq!(d.pop_due(SimTime::from_ms(10.0)), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "armed while still pending")]
    fn arming_a_pending_token_is_a_bug() {
        let mut c = 0;
        let mut d = TimerDriver::new();
        let t = tok(&mut c);
        d.schedule(SimTime::from_ms(5.0), t, 1u32);
        d.schedule(SimTime::from_ms(50.0), t, 2u32);
    }

    /// The daemon's loop peeks the next deadline to size its sleep, and a
    /// frame that arrives meanwhile can arm a nearer timer. Peeking has
    /// already moved the wheel's cursor past the far entry's tick, so the
    /// nearer one lands behind the cursor and must still pop first.
    #[test]
    fn a_timer_armed_after_a_far_peek_pops_first() {
        let mut c = 0;
        let mut d = TimerDriver::new();
        let (far, near, tie) = (tok(&mut c), tok(&mut c), tok(&mut c));
        d.schedule(SimTime::from_ms(500.0), far, "far");
        assert_eq!(d.next_deadline(), Some(SimTime::from_ms(500.0)));
        d.schedule(SimTime::from_ms(20.0), near, "near");
        d.schedule(SimTime::from_ms(500.0), tie, "tie");
        assert_eq!(d.next_deadline(), Some(SimTime::from_ms(20.0)));
        assert_eq!(d.pop_due(SimTime::from_ms(19.0)), None);
        assert_eq!(d.pop_due(SimTime::from_ms(20.0)), Some((near, "near")));
        // Equal deadlines pop in arm order.
        assert_eq!(d.pop_due(SimTime::from_ms(500.0)), Some((far, "far")));
        assert_eq!(d.pop_due(SimTime::from_ms(500.0)), Some((tie, "tie")));
        assert_eq!(d.wheel.len(), 0);
    }
}
