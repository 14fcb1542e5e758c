//! The discrete-event queue both event loops ([`crate::run_stream`]
//! and the serving layer's `run_serve`) pop their timelines from.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Pending events ordered by simulated time, simultaneous events in
/// insertion order — the tie-break that makes every timeline a pure
/// function of its inputs.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }
}

impl<E> EventQueue<E> {
    /// Schedule `ev` at `t_ns`.
    pub fn push(&mut self, t_ns: f64, ev: E) {
        self.heap.push(Entry { t_ns, seq: self.seq, ev });
        self.seq += 1;
    }

    /// Remove the earliest event (first pushed among equal times).
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| (e.t_ns, e.ev))
    }
}

/// Heap entry ordered by (time, insertion sequence).
struct Entry<E> {
    t_ns: f64,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    /// Reversed so `BinaryHeap` pops the *earliest* event first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.t_ns.total_cmp(&self.t_ns).then(other.seq.cmp(&self.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_by_time_then_insertion_order() {
        let mut q = EventQueue::default();
        for (t, ev) in [(5.0, 'a'), (1.0, 'b'), (5.0, 'c'), (0.0, 'd'), (1.0, 'e')] {
            q.push(t, ev);
        }
        let order: Vec<(f64, char)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, [(0.0, 'd'), (1.0, 'b'), (1.0, 'e'), (5.0, 'a'), (5.0, 'c')]);
    }
}
