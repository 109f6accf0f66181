//! Wall-clock time for hosts that drive protocol behaviors outside the
//! discrete-event engine.
//!
//! Inside [`crate::NetSim`] virtual time is whatever the event queue says
//! it is. A real host — the `smrpd` daemon — still wants to speak the
//! protocol in [`SimTime`] units (router configs, recovery plans and
//! golden traces are all expressed in it), so it needs a clock that maps
//! wall time onto the protocol's virtual timeline. [`MonotonicClock`]
//! does that with an optional speedup factor, letting a replay of a
//! 3-second scenario finish in a fraction of a wall second while every
//! relative deadline keeps its meaning.

use std::time::{Duration, Instant};

use crate::time::SimTime;

/// Wall-clock time mapped onto the protocol timeline, anchored at
/// construction and scaled by a speedup factor.
///
/// With `speed = 1.0` one wall second is one protocol second; with
/// `speed = 10.0` the protocol timeline runs ten times faster than the
/// wall, so a 3000 ms scenario horizon passes in 300 ms of real time.
/// All hosts of one replay must anchor their clocks at the same moment
/// (e.g. behind a barrier) for their timelines to agree.
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    start: Instant,
    speed: f64,
}

impl MonotonicClock {
    /// Anchors a clock at an explicit instant (so several clocks can share
    /// one origin).
    pub fn anchored_at(start: Instant, speed: f64) -> Self {
        assert!(
            speed.is_finite() && speed > 0.0,
            "clock speed must be finite and positive, got {speed}"
        );
        MonotonicClock { start, speed }
    }

    /// Converts a protocol-timeline span into the wall-clock span that
    /// realizes it under this clock's speed. Useful for computing receive
    /// timeouts: "sleep until the next timer deadline" becomes
    /// `to_wall(deadline - now)`.
    pub fn to_wall(&self, span: SimTime) -> Duration {
        Duration::from_nanos((span.as_ns() as f64 / self.speed).ceil() as u64)
    }

    /// The current instant on the protocol timeline. Successive calls
    /// never go backwards.
    pub fn now(&self) -> SimTime {
        let wall_ns = self.start.elapsed().as_nanos() as f64;
        SimTime::from_ns((wall_ns * self.speed) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_scales_wall_time() {
        let c = MonotonicClock::anchored_at(Instant::now(), 1000.0);
        std::thread::sleep(Duration::from_millis(2));
        // 2 ms wall at 1000x is at least 2 s of protocol time.
        assert!(c.now() >= SimTime::from_ms(2000.0));
        // Round-tripping a span through to_wall inverts the speed factor.
        assert_eq!(
            c.to_wall(SimTime::from_ms(1000.0)),
            Duration::from_millis(1)
        );
    }

    #[test]
    fn monotonic_clocks_sharing_an_anchor_agree() {
        let origin = Instant::now();
        let a = MonotonicClock::anchored_at(origin, 50.0);
        let b = MonotonicClock::anchored_at(origin, 50.0);
        let (ta, tb) = (a.now(), b.now());
        let skew = ta.as_ns().abs_diff(tb.as_ns());
        // Both read the same origin; back-to-back reads are microseconds
        // apart even under heavy scheduling noise.
        assert!(skew < 500_000_000, "skew {skew} ns");
    }
}
