//! Hierarchical event wheel with generation-stamped handles.
//!
//! The engine parks every pending event here: message deliveries, timers,
//! scheduled failures and repairs. Most are short-lived — a delivery a few
//! milliseconds out, a soft-state timer (Hello tick, refresh re-arm, RTO
//! retransmit) that is re-armed or cancelled before it fires — and the
//! payloads are fat (a message plus its addressing, ~100 bytes). A binary
//! heap sifts those payloads through `O(log n)` levels per push and pop
//! and cannot cancel at all — dead timers must be filtered when they
//! fire. The wheel moves 4-byte slab indices instead and gives `O(1)`
//! schedule and cancel:
//!
//! * virtual time is bucketed into ticks of 2^19 ns (≈ 0.52 ms);
//! * [`LEVELS`] levels of [`SLOTS`] slots each cover spans of 64, 64²,
//!   64³ and 64⁴ ticks — entries land in the coarsest level that can hold
//!   their delay and cascade down as the cursor crosses level boundaries;
//!   a stretch of empty ticks is skipped, not walked — the cursor jumps
//!   to the next slot boundary of the lowest occupied level;
//! * entries beyond level coverage (≈ 2.4 h of virtual time) wait in an
//!   overflow list; they join the levels as the cursor brings them within
//!   coverage, and the cursor jumps to the earliest one when the levels
//!   drain;
//! * every entry lives in a slab slot stamped with a *generation*; a
//!   [`TimerHandle`] is `(slot, generation)`, so a stale handle — one
//!   whose timer already fired or was cancelled, even if the slab slot
//!   was since reused — can never cancel the wrong timer.
//!
//! Determinism is preserved exactly: every entry carries the caller's
//! global sequence number, a drained tick is sorted by `(time, seq)`
//! before it is consumed, and ticks are strictly time-ordered, so pop
//! order is identical to a `(time, seq)`-keyed heap.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Slots per wheel level (64: slot indices are 6-bit fields of the tick).
pub(crate) const SLOTS: usize = 64;
/// Number of wheel levels.
pub(crate) const LEVELS: usize = 4;
const SLOT_BITS: u32 = 6;
/// log2 of the level-0 tick length in nanoseconds (2^19 ns ≈ 0.524 ms).
const TICK_BITS: u32 = 19;

/// A generation-stamped reference to a scheduled timer.
///
/// Handles are cheap (`Copy`, 8 bytes) and *stale-safe*: once the timer
/// fires or is cancelled, its slab slot's generation advances, so the old
/// handle no longer matches and [`TimerWheel::cancel`] is a no-op on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle {
    index: u32,
    generation: u32,
}

struct SlabEntry<E> {
    time: SimTime,
    seq: u64,
    generation: u32,
    /// Scheduled and not yet cancelled or popped.
    live: bool,
    event: Option<E>,
}

/// The wheel itself; `E` is the event payload.
pub struct TimerWheel<E> {
    slab: Vec<SlabEntry<E>>,
    free: Vec<u32>,
    levels: [[Vec<u32>; SLOTS]; LEVELS],
    overflow: Vec<u32>,
    /// Entries (live or cancelled) currently parked in each level.
    parked: [usize; LEVELS],
    /// Drained-but-unconsumed entries, sorted ascending by `(time, seq)`.
    ready: VecDeque<u32>,
    /// Next tick to drain; every entry with `tick < cursor` is in `ready`.
    cursor: u64,
    /// Live (scheduled, not cancelled, not popped) entries anywhere.
    live: usize,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel anchored at time zero.
    pub fn new() -> Self {
        TimerWheel {
            slab: Vec::new(),
            free: Vec::new(),
            levels: std::array::from_fn(|_| std::array::from_fn(|_| Vec::new())),
            overflow: Vec::new(),
            parked: [0; LEVELS],
            ready: VecDeque::new(),
            cursor: 0,
            live: 0,
        }
    }

    /// Number of live (pending) timers.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live timers are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn tick_of(time: SimTime) -> u64 {
        time.as_ns() >> TICK_BITS
    }

    /// Schedules `event` at absolute `time`. `seq` is the caller's global
    /// ordering sequence number; pops come out in `(time, seq)` order.
    ///
    /// Scheduling in the past (relative to already-popped timers) is
    /// tolerated: the entry is merged into the pending ready batch at its
    /// proper `(time, seq)` position.
    pub fn schedule(&mut self, time: SimTime, seq: u64, event: E) -> TimerHandle {
        let index = match self.free.pop() {
            Some(i) => {
                let e = &mut self.slab[i as usize];
                e.time = time;
                e.seq = seq;
                e.live = true;
                e.event = Some(event);
                i
            }
            None => {
                let i = u32::try_from(self.slab.len()).expect("timer slab exhausted");
                self.slab.push(SlabEntry {
                    time,
                    seq,
                    generation: 0,
                    live: true,
                    event: Some(event),
                });
                i
            }
        };
        self.live += 1;
        self.place(index);
        TimerHandle {
            index,
            generation: self.slab[index as usize].generation,
        }
    }

    /// Cancels the timer behind `handle`. Returns `true` if a live timer
    /// was cancelled; `false` if the handle is stale (already fired or
    /// cancelled, slot possibly reused).
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        let Some(e) = self.slab.get_mut(handle.index as usize) else {
            return false;
        };
        if e.generation != handle.generation || !e.live {
            return false;
        }
        // Lazy removal: drop the payload now, leave the index parked in
        // its slot/ready position; it is reclaimed when encountered.
        e.live = false;
        e.event = None;
        self.live -= 1;
        true
    }

    /// `(time, seq)` of the earliest live timer, if any.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.settle();
        let &front = self.ready.front()?;
        let e = &self.slab[front as usize];
        Some((e.time, e.seq))
    }

    /// Removes and returns the earliest live timer.
    pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        self.settle();
        let front = self.ready.pop_front()?;
        let e = &mut self.slab[front as usize];
        let time = e.time;
        let seq = e.seq;
        let event = e.event.take().expect("settled front entry has a payload");
        e.live = false;
        self.live -= 1;
        self.release(front);
        Some((time, seq, event))
    }

    /// Reclaims a consumed or cancelled slab slot, bumping its generation
    /// so outstanding handles to it go stale.
    fn release(&mut self, index: u32) {
        let e = &mut self.slab[index as usize];
        e.generation = e.generation.wrapping_add(1);
        e.event = None;
        self.free.push(index);
    }

    /// Ensures the front of `ready` is a live entry, draining ticks (and
    /// re-anchoring the overflow) as needed. Afterwards `ready` is either
    /// empty (wheel exhausted) or fronted by a live entry.
    fn settle(&mut self) {
        loop {
            // Discard cancelled entries parked at the front.
            while let Some(&front) = self.ready.front() {
                if self.slab[front as usize].live {
                    return;
                }
                self.ready.pop_front();
                self.release(front);
            }
            if self.live == 0 {
                return;
            }
            let Some(level) = self.parked.iter().position(|&n| n != 0) else {
                // Everything live waits in the overflow: re-anchor the
                // cursor at the earliest overflow tick and re-place.
                let min_tick = self
                    .overflow
                    .iter()
                    .map(|&i| Self::tick_of(self.slab[i as usize].time))
                    .min()
                    .expect("live entries must be parked somewhere");
                self.cursor = self.cursor.max(min_tick);
                self.replace_overflow();
                continue;
            };
            // Nothing is parked below `level`, and a parked entry's slot
            // never starts before the cursor, so every tick short of the
            // next level-`level` slot boundary is empty: skip them. (At
            // level 0 the boundary is the cursor itself.)
            self.cursor = self
                .cursor
                .next_multiple_of(1 << (SLOT_BITS * level as u32));
            self.drain_tick();
        }
    }

    /// Advances the cursor over one tick: cascades any level boundaries
    /// being crossed, then drains the level-0 slot for that tick into
    /// `ready` in `(time, seq)` order.
    fn drain_tick(&mut self) {
        let c = self.cursor;
        // Entering a new top-level slot: overflow entries the levels now
        // span must join them here, or a level entry parked since, for a
        // later tick, would be drained first.
        let top_span = 1u64 << (SLOT_BITS * (LEVELS as u32 - 1));
        if c & (top_span - 1) == 0 && !self.overflow.is_empty() {
            self.replace_overflow();
        }
        // Highest level first, so entries can cascade down through
        // several levels at a shared boundary.
        for level in (1..LEVELS).rev() {
            let shift = SLOT_BITS * level as u32;
            if c & ((1 << shift) - 1) == 0 {
                let slot = ((c >> shift) & (SLOTS as u64 - 1)) as usize;
                // Cascading re-places strictly below `level`, so the
                // slot's buffer can be lent out and handed back emptied,
                // capacity intact.
                let mut cascading = std::mem::take(&mut self.levels[level][slot]);
                self.parked[level] -= cascading.len();
                for index in cascading.drain(..) {
                    if self.slab[index as usize].live {
                        self.place(index);
                    } else {
                        self.release(index);
                    }
                }
                debug_assert!(self.levels[level][slot].is_empty());
                self.levels[level][slot] = cascading;
            }
        }
        let slot = (c & (SLOTS as u64 - 1)) as usize;
        let mut batch = std::mem::take(&mut self.levels[0][slot]);
        self.parked[0] -= batch.len();
        batch.retain(|&index| {
            if self.slab[index as usize].live {
                true
            } else {
                self.release(index);
                false
            }
        });
        batch.sort_unstable_by_key(|&index| {
            let e = &self.slab[index as usize];
            (e.time, e.seq)
        });
        self.ready.extend(batch.drain(..));
        self.levels[0][slot] = batch;
        self.cursor = c + 1;
    }

    /// Re-places every overflow entry relative to the current cursor;
    /// those still beyond level coverage go back to the overflow.
    fn replace_overflow(&mut self) {
        for index in std::mem::take(&mut self.overflow) {
            if self.slab[index as usize].live {
                self.place(index);
            } else {
                self.release(index);
            }
        }
    }

    /// Parks `index` in the structure appropriate for its delay: the
    /// sorted ready batch if its tick was already drained, else the
    /// coarsest wheel level that spans it, else the overflow.
    fn place(&mut self, index: u32) {
        let (time, seq) = {
            let e = &self.slab[index as usize];
            (e.time, e.seq)
        };
        let tick = Self::tick_of(time);
        if tick < self.cursor {
            // Its tick was already drained: merge into the ready batch at
            // the proper position. Everything in `ready` is `(time, seq)`
            // sorted, so a binary search finds the insertion point.
            let pos = self.ready.partition_point(|&i| {
                let e = &self.slab[i as usize];
                (e.time, e.seq) < (time, seq)
            });
            self.ready.insert(pos, index);
            return;
        }
        let delta = tick - self.cursor;
        for level in 0..LEVELS {
            let shift = SLOT_BITS * (level as u32 + 1);
            if shift < 64 && delta >= (1u64 << shift) {
                continue;
            }
            let slot_shift = SLOT_BITS * level as u32;
            let slot = ((tick >> slot_shift) & (SLOTS as u64 - 1)) as usize;
            self.levels[level][slot].push(index);
            self.parked[level] += 1;
            return;
        }
        self.overflow.push(index);
    }
}

impl<E> std::fmt::Debug for TimerWheel<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("live", &self.live)
            .field("in_levels", &self.parked.iter().sum::<usize>())
            .field("ready", &self.ready.len())
            .field("overflow", &self.overflow.len())
            .field("cursor_tick", &self.cursor)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: f64) -> SimTime {
        SimTime::from_ms(v)
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new();
        w.schedule(ms(3.0), 2, "c");
        w.schedule(ms(1.0), 0, "a");
        w.schedule(ms(2.0), 1, "b");
        // Two entries share one tick (0.524 ms): seq breaks the tie after
        // the sub-tick time comparison.
        w.schedule(ms(1.0), 5, "a2");
        let order: Vec<_> = std::iter::from_fn(|| w.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec!["a", "a2", "b", "c"]);
        assert!(w.is_empty());
    }

    #[test]
    fn same_tick_different_times_sort_by_time() {
        let mut w = TimerWheel::new();
        // 0.2 ms and 0.4 ms share tick 0; insertion order reversed.
        w.schedule(SimTime::from_ns(400_000), 0, "late");
        w.schedule(SimTime::from_ns(200_000), 1, "early");
        assert_eq!(w.pop().unwrap().2, "early");
        assert_eq!(w.pop().unwrap().2, "late");
    }

    #[test]
    fn cancel_prevents_fire_and_is_o1_observable() {
        let mut w = TimerWheel::new();
        let h = w.schedule(ms(5.0), 0, "x");
        w.schedule(ms(6.0), 1, "y");
        assert_eq!(w.len(), 2);
        assert!(w.cancel(h));
        assert_eq!(w.len(), 1);
        assert!(!w.cancel(h), "double cancel is a stale no-op");
        assert_eq!(w.pop().unwrap().2, "y");
        assert!(w.pop().is_none());
    }

    #[test]
    fn stale_handle_cannot_cancel_reused_slot() {
        let mut w = TimerWheel::new();
        let h1 = w.schedule(ms(1.0), 0, "first");
        assert_eq!(w.pop().unwrap().2, "first");
        // The slab slot is reused for a fresh timer; the old handle's
        // generation no longer matches.
        let h2 = w.schedule(ms(2.0), 1, "second");
        assert!(!w.cancel(h1), "stale handle must not cancel the new timer");
        assert_eq!(w.len(), 1);
        assert!(w.cancel(h2));
        assert!(w.pop().is_none());
    }

    #[test]
    fn far_future_entries_cascade_down() {
        let mut w = TimerWheel::new();
        // Spread across all levels: ~0.5 ms/tick means these cover level
        // 0 (few ticks) through level 3 (millions of ticks).
        let times = [0.7, 40.0, 2_000.0, 150_000.0, 6_000_000.0];
        for (i, &t) in times.iter().enumerate() {
            w.schedule(ms(t), i as u64, i);
        }
        let popped: Vec<_> = std::iter::from_fn(|| w.pop()).collect();
        assert_eq!(popped.len(), times.len());
        for (i, (time, _, e)) in popped.into_iter().enumerate() {
            assert_eq!(e, i);
            assert_eq!(time, ms(times[i]));
        }
    }

    #[test]
    fn overflow_beyond_levels_is_reanchored() {
        let mut w = TimerWheel::new();
        // > 64^4 ticks ≈ 2.4 h: parks in the overflow list.
        let far = ms(10_000_000.0);
        let h = w.schedule(far, 1, "far");
        w.schedule(ms(1.0), 0, "near");
        assert_eq!(w.pop().unwrap().2, "near");
        assert_eq!(w.peek_key(), Some((far, 1)));
        assert_eq!(w.pop().unwrap().2, "far");
        assert!(!w.cancel(h), "already popped");
    }

    #[test]
    fn overflow_entry_is_not_overtaken_by_a_later_level_entry() {
        let mut w = TimerWheel::new();
        let tick = |t: u64| SimTime::from_ns(t << TICK_BITS);
        let coverage = (SLOTS as u64).pow(LEVELS as u32);
        // Beyond coverage as seen from tick 0: parks in the overflow.
        w.schedule(tick(coverage + 100), 0, "overflow");
        w.schedule(tick(200), 1, "near");
        assert_eq!(w.pop().unwrap().2, "near");
        // Within coverage of the cursor as it stands now, so it parks in
        // the top level — for a later tick than the overflow entry's.
        w.schedule(tick(coverage + 150), 2, "top level");
        assert_eq!(w.pop().unwrap().2, "overflow");
        assert_eq!(w.pop().unwrap().2, "top level");
        assert!(w.is_empty());
    }

    #[test]
    fn cancelled_overflow_entries_are_reclaimed() {
        let mut w = TimerWheel::new();
        let h = w.schedule(ms(10_000_000.0), 0, "far");
        w.schedule(ms(20_000_000.0), 1, "farther");
        assert!(w.cancel(h));
        assert_eq!(w.pop().unwrap().2, "farther");
        assert!(w.pop().is_none());
    }

    #[test]
    fn schedule_into_drained_tick_merges_in_order() {
        let mut w = TimerWheel::new();
        w.schedule(ms(10.0), 0, "a");
        assert_eq!(w.pop().unwrap().2, "a");
        // Cursor has advanced past the 10 ms tick; a new entry in that
        // same tick (as happens when a handler at t schedules with zero
        // delay) must still come out, ordered by (time, seq).
        w.schedule(ms(10.0), 2, "c");
        w.schedule(ms(10.0), 1, "b");
        w.schedule(ms(11.0), 3, "d");
        let order: Vec<_> = std::iter::from_fn(|| w.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec!["b", "c", "d"]);
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_global_order() {
        let mut w = TimerWheel::new();
        let mut seq = 0u64;
        let mut sched = |w: &mut TimerWheel<u64>, t: f64| {
            let s = seq;
            seq += 1;
            w.schedule(ms(t), s, s);
        };
        sched(&mut w, 50.0);
        sched(&mut w, 10.0);
        assert_eq!(w.pop().unwrap().2, 1);
        sched(&mut w, 30.0);
        sched(&mut w, 20.0);
        assert_eq!(w.pop().unwrap().2, 3);
        assert_eq!(w.pop().unwrap().2, 2);
        assert_eq!(w.pop().unwrap().2, 0);
        assert!(w.is_empty());
    }

    #[test]
    fn debug_is_informative() {
        let mut w: TimerWheel<()> = TimerWheel::new();
        w.schedule(ms(1.0), 0, ());
        let text = format!("{w:?}");
        assert!(text.contains("TimerWheel"));
        assert!(text.contains("live"));
    }
}
