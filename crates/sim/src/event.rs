//! The deterministic event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for a min-heap: earliest time first, then FIFO on ties.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue with FIFO tie-breaking.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled, making simulations fully deterministic.
///
/// # Example
///
/// ```
/// use smrp_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ms(2.0), "late");
/// q.schedule(SimTime::from_ms(1.0), "early");
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at absolute `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Schedules `event` at `time` under a caller-supplied sequence
    /// number. This lets the engine key this heap by the same global
    /// sequence it gives the event wheel, so both backends pop one
    /// `(time, seq)` order.
    ///
    /// Do not mix with [`EventQueue::schedule`] on the same queue — the
    /// internal counter knows nothing about caller-supplied values.
    pub(crate) fn schedule_keyed(&mut self, time: SimTime, seq: u64, event: E) {
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// `(time, seq)` key of the earliest pending event.
    pub(crate) fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.time, e.seq))
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("scheduled_total", &self.seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(3.0), 3);
        q.schedule(SimTime::from_ms(1.0), 1);
        q.schedule(SimTime::from_ms(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(5.0);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(1.0), ());
        assert_eq!(q.peek_key().map(|(t, _)| t), Some(SimTime::from_ms(1.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_key().map(|(t, _)| t), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(10.0), "b");
        q.schedule(SimTime::from_ms(5.0), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(SimTime::from_ms(7.0), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
    }
}
