//! The discrete-event queue.
//!
//! Events fire in `(time, key)` order. The caller supplies each event's
//! key — the engine derives it from (origin node, per-origin sequence) —
//! and keys are unique, so the pop order is a property of the keys alone:
//! it never depends on queue internals or on *when* an event was pushed.
//!
//! The structure is a bucketed timing ring (a light-weight calendar
//! queue), chosen over a binary heap because queue traffic dominates the
//! engine's hot path at 1000-node scale: simulation events cluster in the
//! near future (MAC backoffs and airtime are milliseconds out, protocol
//! timers a second or two), so hashing events into fixed-width time
//! buckets makes push and pop O(1) amortized where a heap pays a
//! cache-hostile O(log n) sift each way. Events beyond the ring's window
//! (long Trickle intervals) wait in a small 4-ary overflow heap and
//! surface when their bucket comes into view; when the ring goes idle the
//! cursor jumps straight to the overflow minimum, so sparse phases don't
//! scan empty buckets.
//!
//! Two more hot-path choices: the queue stores 24-byte `(time, key,
//! slot)` entries and keeps the event payloads in a slot slab recycled
//! through a free list — moved entries are small copyable keys instead of
//! payloads (a delivered frame rides inline in its event), which keeps
//! bucket appends, sorted inserts, and the open-bucket sort cheap — and
//! buckets, slab, and free list all retain capacity, so steady-state
//! operation allocates nothing.

use crate::time::SimTime;

/// Queue entry: the event's ordering key plus the slab slot of its
/// payload. Derived `Ord` compares `(at, key)` first; `slot` is never
/// reached because keys are unique.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: SimTime,
    key: u64,
    slot: u32,
}

/// log2 of the bucket width in microseconds: 1.024 ms buckets, sized so a
/// bucket holds a handful of events under engine workloads.
const BUCKET_SHIFT: u64 = 10;

/// Ring size in buckets; the window covers ≈ 4.2 s of simulated time,
/// comfortably beyond MAC timescales and short protocol timers.
const RING_BUCKETS: u64 = 4096;

/// Protocol timers (routing beacons, traffic periods, ARQ completions)
/// routinely land up to 2 s out. Events inside the ring window are O(1);
/// everything past it spills to the far heap, so shrinking the window
/// below this horizon would silently push the *common case* through the
/// heap and forfeit the calendar ring's whole advantage.
const PROTOCOL_TIMER_HORIZON_US: u64 = 2_000_000;

// Fail fast at compile time if a retuning of `RING_BUCKETS`/`BUCKET_SHIFT`
// shrinks the ≈4.2 s ring window below the 2 s protocol-timer horizon.
const _: () = assert!(
    (RING_BUCKETS << BUCKET_SHIFT) >= PROTOCOL_TIMER_HORIZON_US,
    "calendar-ring window (RING_BUCKETS << BUCKET_SHIFT microseconds) is below the \
     2 s protocol-timer horizon; near-term timers would spill to the far heap \
     on every push. Keep the window >= 2_000_000 us (the shipped tuning gives \
     ~4.2 s) or retune both constants together."
);

/// Overflow-heap fan-out. Four children per node: shallower than a binary
/// heap, and the children of `i` share a cache line.
const ARITY: usize = 4;

/// Virtual bucket index of a timestamp.
fn vbucket(at: SimTime) -> u64 {
    at.as_micros() >> BUCKET_SHIFT
}

/// Time-ordered event queue with caller-keyed tie-breaking. See the
/// module docs for the bucketed-ring design. The queue never inspects
/// payloads `K`; ordering lives entirely in the `(time, key)` pairs.
pub struct EventQueue<K> {
    /// Ring bucket `vb % RING_BUCKETS` holds virtual bucket `vb` while
    /// `cursor <= vb < cursor + RING_BUCKETS`. Only the open bucket (at
    /// `cursor`) is sorted; the rest are unsorted append lists.
    ring: Vec<Vec<Entry>>,
    /// Entries currently in ring buckets and not yet popped.
    ring_len: usize,
    /// Virtual index of the open bucket.
    cursor: u64,
    /// Pop position within the open bucket.
    drain: usize,
    /// 4-ary min-heap of entries at or beyond the ring window; they join
    /// their ring bucket when it opens.
    far: Vec<Entry>,
    /// Event payloads addressed by `Entry::slot`.
    slots: Vec<Option<K>>,
    /// Vacated slots awaiting reuse.
    free: Vec<u32>,
}

impl<K> Default for EventQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> EventQueue<K> {
    /// Empty queue.
    pub fn new() -> Self {
        Self {
            ring: (0..RING_BUCKETS).map(|_| Vec::new()).collect(),
            ring_len: 0,
            cursor: 0,
            drain: 0,
            far: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Schedules `kind` to fire at `at`; simultaneous events fire in
    /// ascending `key` order.
    ///
    /// Keys must be unique per `(at, key)` pair across the queue's
    /// lifetime. The engine derives them from (origin node, per-origin
    /// sequence), which makes the pop order independent of *when* an
    /// event was pushed (locally during a window, or merged in at a shard
    /// barrier).
    pub fn push(&mut self, at: SimTime, key: u64, kind: K) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(kind);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("event queue slot overflow");
                self.slots.push(Some(kind));
                s
            }
        };
        let entry = Entry { at, key, slot };
        // The engine never schedules into the past (dispatch asserts event
        // times are monotone), but the clamp keeps plain-`EventQueue`
        // users correct: a late event joins the open bucket and pops next.
        let vb = vbucket(at).max(self.cursor);
        if vb == self.cursor {
            // Open bucket: keep the undrained tail sorted. The search is
            // restricted past `drain` so an entry pushed with a time at or
            // before already-popped entries still lands in the future.
            let b = &mut self.ring[(vb % RING_BUCKETS) as usize];
            let pos = self.drain + b[self.drain..].partition_point(|e| *e < entry);
            b.insert(pos, entry);
        } else if vb < self.cursor + RING_BUCKETS {
            self.ring[(vb % RING_BUCKETS) as usize].push(entry);
        } else {
            far_push(&mut self.far, entry);
            return;
        }
        self.ring_len += 1;
    }

    /// Removes and returns the earliest event with its time and key.
    pub fn pop(&mut self) -> Option<(SimTime, u64, K)> {
        self.pop_filtered(None)
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `deadline`. One positioning pass instead of the peek-then-pop two —
    /// this is the engine's per-event path.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, u64, K)> {
        self.pop_filtered(Some(deadline))
    }

    #[inline]
    fn pop_filtered(&mut self, deadline: Option<SimTime>) -> Option<(SimTime, u64, K)> {
        loop {
            let b = &self.ring[(self.cursor % RING_BUCKETS) as usize];
            if let Some(&e) = b.get(self.drain) {
                if deadline.is_some_and(|d| e.at > d) {
                    return None;
                }
                self.drain += 1;
                self.ring_len -= 1;
                let kind = self.slots[e.slot as usize].take().expect("slot occupied");
                self.free.push(e.slot);
                return Some((e.at, e.key, kind));
            }
            if self.ring_len == 0 && self.far.is_empty() {
                return None;
            }
            self.advance();
        }
    }

    /// Time and key of the next event, without removing it.
    pub fn peek(&mut self) -> Option<(SimTime, u64)> {
        if !self.position() {
            return None;
        }
        let e = self.ring[(self.cursor % RING_BUCKETS) as usize][self.drain];
        Some((e.at, e.key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.far.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Advances the cursor until the open bucket holds an unpopped entry.
    /// Returns false when the queue is empty.
    fn position(&mut self) -> bool {
        loop {
            if self.drain < self.ring[(self.cursor % RING_BUCKETS) as usize].len() {
                return true;
            }
            if self.ring_len == 0 && self.far.is_empty() {
                return false;
            }
            self.advance();
        }
    }

    /// Closes the (exhausted) open bucket and opens the next occupied one:
    /// steps forward while the ring holds entries, jumps straight to the
    /// overflow minimum when it doesn't, then folds in overflow entries
    /// belonging to the newly opened bucket and sorts it.
    fn advance(&mut self) {
        self.ring[(self.cursor % RING_BUCKETS) as usize].clear();
        self.drain = 0;
        if self.ring_len > 0 {
            self.cursor += 1;
        } else {
            let min = self.far.first().expect("advance on empty queue");
            debug_assert!(vbucket(min.at) > self.cursor, "overflow entry missed");
            self.cursor = vbucket(min.at);
        }
        let b_idx = (self.cursor % RING_BUCKETS) as usize;
        while let Some(&top) = self.far.first() {
            if vbucket(top.at) != self.cursor {
                break;
            }
            far_pop(&mut self.far);
            self.ring[b_idx].push(top);
            self.ring_len += 1;
        }
        // Unique (at, key) pairs: unstable sort is deterministic here.
        self.ring[b_idx].sort_unstable();
    }
}

/// Pushes onto the 4-ary min-heap.
fn far_push(heap: &mut Vec<Entry>, entry: Entry) {
    heap.push(entry);
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / ARITY;
        if heap[i] < heap[parent] {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

/// Removes the 4-ary min-heap's root.
fn far_pop(heap: &mut Vec<Entry>) {
    let last = heap.pop().expect("pop on empty heap");
    if heap.is_empty() {
        return;
    }
    let len = heap.len();
    let mut i = 0;
    loop {
        let first = ARITY * i + 1;
        if first >= len {
            break;
        }
        let mut best = first;
        for c in first + 1..(first + ARITY).min(len) {
            if heap[c] < heap[best] {
                best = c;
            }
        }
        if heap[best] < last {
            heap[i] = heap[best];
            i = best;
        } else {
            break;
        }
    }
    heap[i] = last;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops everything, returning the payloads in pop order.
    fn drain(q: &mut EventQueue<u32>) -> Vec<u32> {
        std::iter::from_fn(|| q.pop()).map(|(_, _, k)| k).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), 0, 3);
        q.push(SimTime::from_micros(10), 1, 1);
        q.push(SimTime::from_micros(20), 2, 2);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_pop_in_key_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for id in 0..50u32 {
            q.push(t, u64::from(id), id);
        }
        assert_eq!(drain(&mut q), (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(7), 4, 9u32);
        assert_eq!(q.peek(), Some((SimTime::from_micros(7), 4)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((SimTime::from_micros(7), 4, 9)));
        assert!(q.is_empty());
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn scattered_times_pop_fully_sorted() {
        // Hash-scattered times with duplicates: pops must come out sorted
        // by time and by key within a time, across slot recycling.
        let mut q = EventQueue::new();
        let mut popped: Vec<(u64, u64)> = Vec::new();
        let mut key = 0u64;
        for _round in 0..4 {
            for i in 0..500u64 {
                let t = (i ^ 0x5DEECE66D).wrapping_mul(25214903917) % 97;
                q.push(SimTime::from_micros(t), key, ());
                key += 1;
            }
            // Drain half between rounds so free-list reuse is exercised.
            for _ in 0..250 {
                let (t, k, ()) = q.pop().unwrap();
                popped.push((t.as_micros(), k));
            }
        }
        while let Some((t, k, ())) = q.pop() {
            popped.push((t.as_micros(), k));
        }
        assert_eq!(popped.len(), 2000);
        // The final drain is sorted by (time, key).
        for w in popped[1000..].windows(2) {
            assert!(w[0] < w[1], "final drain out of order: {w:?}");
        }
    }

    #[test]
    fn keyed_pushes_order_by_key_not_insertion() {
        // Same timestamp, keys pushed out of order: pop order follows the
        // keys — the property the engine's barrier merge relies on.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(100);
        for (key, id) in [(30u64, 3u32), (10, 1), (20, 2)] {
            q.push(t, key, id);
        }
        q.push(SimTime::from_micros(50), 99, 0);
        assert_eq!(drain(&mut q), vec![0, 1, 2, 3]);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), 0, 10u32);
        q.push(SimTime::from_micros(5), 1, 5);
        assert_eq!(q.pop(), Some((SimTime::from_micros(5), 1, 5)));
        q.push(SimTime::from_micros(7), 2, 7);
        q.push(SimTime::from_micros(20), 3, 20);
        assert_eq!(drain(&mut q), vec![7, 10, 20]);
    }
}
