//! The pool's page-replacement policy: SIEVE.
//!
//! The buffer pool reports frame events (`on_admit`, `on_access`) and asks
//! [`Sieve`] for a victim when a miss finds no free frame. `victim` takes
//! an evictability predicate (a frame is evictable when it holds a page and
//! its pin count is zero) and asks it only about the frames its hand
//! visits, so choosing a victim costs the same at any pool size. SIEVE is
//! lazy promotion / FIFO with a sweeping hand (Zhang et al., NSDI'24); it
//! is the one policy, held by the pool as a concrete type.

/// The replacement policy a pool uses. One variant: the parameter survives
/// on [`crate::BufferPool::new`] and `Database::set_memory_budget` only
/// because the frozen benchmark names `ReplacementPolicy::Sieve` in two
/// calls; dropping it is a benchmark-only follow-up (ROADMAP 11(c), 11(g)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// SIEVE: FIFO order with a hand that spares visited pages once and
    /// never moves objects on hit.
    Sieve,
}

/// SIEVE replacement: FIFO insertion order, a `visited` bit set on hit, and
/// a hand sweeping old→older that spares visited pages once. Unlike clock,
/// the hand does not wrap over freshly admitted pages mid-sweep, and hits
/// never move objects.
///
/// The queue is an intrusive doubly-linked list over frame indices
/// (`newer`/`older` neighbor arrays), so `on_admit` and eviction unlink in
/// O(1). This matters on big pools: a 10k-frame pool admits a page on every
/// miss, and a `Vec`-backed queue would pay an O(capacity) scan-and-shift
/// on each one.
pub struct Sieve {
    /// `newer[f]` / `older[f]`: list neighbors of frame `f`, [`Sieve::NONE`]
    /// at the ends. Head = newest admission, tail = oldest.
    newer: Vec<usize>,
    older: Vec<usize>,
    /// Whether frame `f` is currently linked into the queue.
    linked: Vec<bool>,
    visited: Vec<bool>,
    head: usize,
    tail: usize,
    /// Frame the hand points at (the next eviction candidate); `NONE` means
    /// the next sweep (re)starts at the tail.
    hand: usize,
    len: usize,
}

impl Sieve {
    /// Sentinel for "no frame" in the neighbor arrays and the hand.
    const NONE: usize = usize::MAX;

    /// A SIEVE over `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Sieve {
            newer: vec![Self::NONE; capacity],
            older: vec![Self::NONE; capacity],
            linked: vec![false; capacity],
            visited: vec![false; capacity],
            head: Self::NONE,
            tail: Self::NONE,
            hand: Self::NONE,
            len: 0,
        }
    }

    /// Removes `frame` from the queue. The hand, if parked on `frame`,
    /// steps to its newer neighbor — the same frame the sweep would visit
    /// next.
    fn unlink(&mut self, frame: usize) {
        if !self.linked.get(frame).copied().unwrap_or(false) {
            return;
        }
        let nw = self.newer.get(frame).copied().unwrap_or(Self::NONE);
        let ol = self.older.get(frame).copied().unwrap_or(Self::NONE);
        match self.newer.get_mut(ol) {
            Some(slot) => *slot = nw,
            None => self.tail = nw,
        }
        match self.older.get_mut(nw) {
            Some(slot) => *slot = ol,
            None => self.head = ol,
        }
        if let Some(l) = self.linked.get_mut(frame) {
            *l = false;
        }
        if self.hand == frame {
            self.hand = nw;
        }
        self.len -= 1;
    }
}

impl Sieve {
    /// A resident frame was hit.
    pub fn on_access(&mut self, frame: usize) {
        if let Some(bit) = self.visited.get_mut(frame) {
            *bit = true;
        }
    }

    /// A page was loaded into `frame`.
    pub fn on_admit(&mut self, frame: usize) {
        if frame >= self.linked.len() {
            return;
        }
        // New objects enter at the head unvisited. A re-admitted frame
        // (dirty write-back failure re-registering its page) moves there.
        self.unlink(frame);
        if let Some(slot) = self.older.get_mut(frame) {
            *slot = self.head;
        }
        if let Some(slot) = self.newer.get_mut(frame) {
            *slot = Self::NONE;
        }
        match self.newer.get_mut(self.head) {
            Some(slot) => *slot = frame,
            None => self.tail = frame,
        }
        self.head = frame;
        if let Some(l) = self.linked.get_mut(frame) {
            *l = true;
        }
        if let Some(bit) = self.visited.get_mut(frame) {
            *bit = false;
        }
        self.len += 1;
    }

    /// Frames currently in the queue (admitted and not yet evicted).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds no frame.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Chooses a frame to evict. `evictable(f)` is true when frame `f`
    /// holds an unpinned page; it is asked once per frame the hand visits,
    /// at most `2 · len + 1` times. Returns `None` when no frame is
    /// evictable.
    pub fn victim(&mut self, evictable: impl Fn(usize) -> bool) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        // At most two passes over the queue: one clears visited bits, one
        // must find an unvisited evictable frame (if any frame is evictable).
        for _ in 0..2 * self.len + 1 {
            let frame = if self.linked.get(self.hand).copied().unwrap_or(false) {
                self.hand
            } else {
                self.tail // (re)start at the tail = oldest
            };
            if frame == Self::NONE {
                return None;
            }
            if !evictable(frame) {
                // Pinned or empty: skip without touching its visited bit.
                self.hand = self.newer.get(frame).copied().unwrap_or(Self::NONE);
                continue;
            }
            if self.visited.get(frame).copied().unwrap_or(false) {
                if let Some(bit) = self.visited.get_mut(frame) {
                    *bit = false;
                }
                self.hand = self.newer.get(frame).copied().unwrap_or(Self::NONE);
            } else {
                self.unlink(frame);
                return Some(frame);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn unpinned(pinned: &[usize]) -> impl Fn(usize) -> bool + '_ {
        move |f| !pinned.contains(&f)
    }

    #[test]
    fn sieve_evicts_oldest_unvisited() {
        let mut s = Sieve::new(3);
        s.on_admit(0); // oldest
        s.on_admit(1);
        s.on_admit(2); // newest
        s.on_access(0); // oldest is visited → spared once
        assert_eq!(s.victim(unpinned(&[])), Some(1));
        // Hand stays put: next eviction continues toward the head.
        assert_eq!(s.victim(unpinned(&[])), Some(2));
        // Only 0 remains; its visited bit was cleared by the first sweep.
        assert_eq!(s.victim(unpinned(&[])), Some(0));
        assert_eq!(s.victim(unpinned(&[])), None);
    }

    #[test]
    fn sieve_skips_pinned_without_clearing() {
        let mut s = Sieve::new(3);
        s.on_admit(0);
        s.on_admit(1);
        s.on_admit(2);
        s.on_access(1);
        // 0 pinned; 1 visited (spared); 2 evicted.
        assert_eq!(s.victim(unpinned(&[0])), Some(2));
    }

    #[test]
    fn victim_asks_only_about_the_frames_its_hand_visits() {
        // Counting predicate calls, not timing them: a victim's cost must
        // not grow with the pool. Miri interprets every admission, so it
        // checks the same counts on a smaller queue.
        let n: usize = if cfg!(miri) { 1 << 10 } else { 1 << 20 };
        let mut s = Sieve::new(n);
        for f in 0..n {
            s.on_admit(f);
        }
        assert_eq!(s.len(), n);
        let calls = Cell::new(0usize);
        // Frames `1..=busy` are pinned; every other frame is evictable.
        let victim = |s: &mut Sieve, busy: usize| {
            calls.set(0);
            let v = s.victim(|f| {
                calls.set(calls.get() + 1);
                !(1..=busy).contains(&f)
            });
            (v, calls.get())
        };
        // Every frame unvisited: the oldest goes, after one question.
        assert_eq!(victim(&mut s, 0), (Some(0), 1));
        // The k oldest left (frames 1..=k) are pinned: k skips, then one
        // eviction.
        let k = 37;
        assert_eq!(victim(&mut s, k), (Some(k + 1), k + 1));
        // Every frame visited: one pass clears the bits, the next evicts.
        for f in 0..n {
            s.on_access(f);
        }
        let len = s.len();
        let (v, asked) = victim(&mut s, 0);
        assert!(v.is_some());
        assert!(asked <= 2 * len + 1, "{asked} questions for {len} frames");
        assert_eq!(s.len(), len - 1);
    }
}
