//! Pluggable page-replacement policies.
//!
//! The buffer pool reports frame events (`on_admit`, `on_access`,
//! `on_evict`) and asks the policy for a victim when a miss needs a frame.
//! `victim` receives an evictability mask (a frame is evictable when it
//! holds a page and its pin count is zero) and must only return frames the
//! mask allows. Three policies ship: Clock (second chance), SIEVE (lazy
//! promotion / FIFO with a sweeping hand — Zhang et al., NSDI'24), and an
//! exact LRU.

use std::fmt;

/// A page-replacement policy over a fixed set of `capacity` frames.
pub trait Replacer: Send {
    /// Stable short name for stats and bench output.
    fn name(&self) -> &'static str;
    /// A resident frame was hit.
    fn on_access(&mut self, frame: usize);
    /// A page was loaded into `frame`.
    fn on_admit(&mut self, frame: usize);
    /// `frame` was emptied outside of `victim` (pool shutdown paths).
    fn on_evict(&mut self, frame: usize);
    /// Chooses a frame to evict. `evictable[f]` is true when frame `f`
    /// holds an unpinned page. Returns `None` when no frame is evictable.
    fn victim(&mut self, evictable: &[bool]) -> Option<usize>;
}

/// Which [`Replacer`] a pool uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// Second-chance clock: one reference bit per frame, a sweeping hand.
    Clock,
    /// SIEVE: FIFO order with a hand that spares visited pages once and
    /// never moves objects on hit.
    Sieve,
    /// Exact least-recently-used via per-frame timestamps.
    Lru,
}

impl ReplacementPolicy {
    /// All shipped policies, in bench-report order.
    pub const ALL: [ReplacementPolicy; 3] = [
        ReplacementPolicy::Clock,
        ReplacementPolicy::Sieve,
        ReplacementPolicy::Lru,
    ];

    /// Stable lowercase name (`clock` / `sieve` / `lru`).
    pub fn as_str(self) -> &'static str {
        match self {
            ReplacementPolicy::Clock => "clock",
            ReplacementPolicy::Sieve => "sieve",
            ReplacementPolicy::Lru => "lru",
        }
    }

    /// Builds the policy's replacer for a pool of `capacity` frames.
    pub fn replacer(self, capacity: usize) -> Box<dyn Replacer> {
        match self {
            ReplacementPolicy::Clock => Box::new(Clock::new(capacity)),
            ReplacementPolicy::Sieve => Box::new(Sieve::new(capacity)),
            ReplacementPolicy::Lru => Box::new(Lru::new(capacity)),
        }
    }
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Second-chance clock replacement.
pub struct Clock {
    referenced: Vec<bool>,
    hand: usize,
}

impl Clock {
    /// A clock over `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        Clock {
            referenced: vec![false; capacity.max(1)],
            hand: 0,
        }
    }
}

impl Replacer for Clock {
    fn name(&self) -> &'static str {
        "clock"
    }

    fn on_access(&mut self, frame: usize) {
        if let Some(bit) = self.referenced.get_mut(frame) {
            *bit = true;
        }
    }

    fn on_admit(&mut self, frame: usize) {
        self.on_access(frame);
    }

    fn on_evict(&mut self, frame: usize) {
        if let Some(bit) = self.referenced.get_mut(frame) {
            *bit = false;
        }
    }

    fn victim(&mut self, evictable: &[bool]) -> Option<usize> {
        let n = self.referenced.len().min(evictable.len());
        if n == 0 || !evictable.iter().take(n).any(|&e| e) {
            return None;
        }
        // Two sweeps suffice: the first clears every referenced bit on an
        // evictable frame, the second must then find one.
        for _ in 0..2 * n + 1 {
            let f = self.hand;
            self.hand = (self.hand + 1) % n;
            if !evictable.get(f).copied().unwrap_or(false) {
                continue;
            }
            if self.referenced.get(f).copied().unwrap_or(false) {
                if let Some(bit) = self.referenced.get_mut(f) {
                    *bit = false;
                }
            } else {
                return Some(f);
            }
        }
        None
    }
}

/// SIEVE replacement: FIFO insertion order, a `visited` bit set on hit, and
/// a hand sweeping old→older that spares visited pages once. Unlike clock,
/// the hand does not wrap over freshly admitted pages mid-sweep, and hits
/// never move objects.
///
/// The queue is an intrusive doubly-linked list over frame indices
/// (`newer`/`older` neighbor arrays), so `on_admit` and eviction unlink in
/// O(1). This matters on big pools: a 10k-frame pool admits a page on every
/// miss *and* on every prefetch install, and a `Vec`-backed queue would pay
/// an O(capacity) scan-and-shift on each one.
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

impl Replacer for Sieve {
    fn name(&self) -> &'static str {
        "sieve"
    }

    fn on_access(&mut self, frame: usize) {
        if let Some(bit) = self.visited.get_mut(frame) {
            *bit = true;
        }
    }

    fn on_admit(&mut self, frame: usize) {
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

    fn on_evict(&mut self, frame: usize) {
        self.unlink(frame);
    }

    fn victim(&mut self, evictable: &[bool]) -> Option<usize> {
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
            if !evictable.get(frame).copied().unwrap_or(false) {
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

/// Exact LRU via monotonically increasing access stamps.
pub struct Lru {
    stamp: Vec<u64>,
    clock: u64,
}

impl Lru {
    /// An LRU over `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        Lru {
            stamp: vec![0; capacity.max(1)],
            clock: 0,
        }
    }
}

impl Replacer for Lru {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn on_access(&mut self, frame: usize) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(s) = self.stamp.get_mut(frame) {
            *s = clock;
        }
    }

    fn on_admit(&mut self, frame: usize) {
        self.on_access(frame);
    }

    fn on_evict(&mut self, frame: usize) {
        if let Some(s) = self.stamp.get_mut(frame) {
            *s = 0;
        }
    }

    fn victim(&mut self, evictable: &[bool]) -> Option<usize> {
        self.stamp
            .iter()
            .enumerate()
            .take(evictable.len())
            .filter(|(f, _)| evictable.get(*f).copied().unwrap_or(false))
            .min_by_key(|(_, &s)| s)
            .map(|(f, _)| f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask(n: usize, pinned: &[usize]) -> Vec<bool> {
        (0..n).map(|f| !pinned.contains(&f)).collect()
    }

    #[test]
    fn policy_names_match_replacers() {
        for p in ReplacementPolicy::ALL {
            assert_eq!(p.replacer(4).name(), p.as_str());
        }
    }

    #[test]
    fn clock_gives_second_chances() {
        let mut c = Clock::new(3);
        for f in 0..3 {
            c.on_admit(f);
        }
        // All referenced: first sweep clears, second evicts frame 0.
        assert_eq!(c.victim(&mask(3, &[])), Some(0));
        // Re-admit 0; access 1 so it survives over 2.
        c.on_admit(0);
        c.on_access(1);
        assert_eq!(c.victim(&mask(3, &[])), Some(2));
    }

    #[test]
    fn clock_respects_pins() {
        let mut c = Clock::new(2);
        c.on_admit(0);
        c.on_admit(1);
        assert_eq!(c.victim(&mask(2, &[0])), Some(1));
        assert_eq!(c.victim(&[false, false]), None);
    }

    #[test]
    fn sieve_evicts_oldest_unvisited() {
        let mut s = Sieve::new(3);
        s.on_admit(0); // oldest
        s.on_admit(1);
        s.on_admit(2); // newest
        s.on_access(0); // oldest is visited → spared once
        assert_eq!(s.victim(&mask(3, &[])), Some(1));
        // Hand stays put: next eviction continues toward the head.
        assert_eq!(s.victim(&mask(3, &[])), Some(2));
        // Only 0 remains; its visited bit was cleared by the first sweep.
        assert_eq!(s.victim(&mask(3, &[])), Some(0));
        assert_eq!(s.victim(&mask(3, &[])), None);
    }

    #[test]
    fn sieve_skips_pinned_without_clearing() {
        let mut s = Sieve::new(3);
        s.on_admit(0);
        s.on_admit(1);
        s.on_admit(2);
        s.on_access(1);
        // 0 pinned; 1 visited (spared); 2 evicted.
        assert_eq!(s.victim(&mask(3, &[0])), Some(2));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut l = Lru::new(3);
        l.on_admit(0);
        l.on_admit(1);
        l.on_admit(2);
        l.on_access(0);
        assert_eq!(l.victim(&mask(3, &[])), Some(1));
        assert_eq!(l.victim(&mask(3, &[1])), Some(2));
        assert_eq!(l.victim(&[false, false, false]), None);
    }
}
