//! The plan/result cache: normalized query → encoded response body.
//!
//! Keys come from [`smoke_planner::wire::QuerySpec::cache_key`] (prefixed
//! with the request type and view name by the server), so equivalent queries
//! — same rid set in any order, flipped equality operands, reordered
//! conjunctions — share an entry. Values are complete encoded response
//! bodies, which guarantees a cache hit is byte-for-byte the response
//! executing the query would have produced. A body is a shared `Arc<str>`:
//! the miss that encodes it hands the same allocation to the cache and to its
//! socket, and a hit is a reference-count bump under the lock, never a copy
//! of a reply that can run to megabytes.
//!
//! Eviction is least-recently-used via a monotonically increasing touch
//! tick; hit/miss/eviction counters are exposed through the `STATS` request.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counter snapshot of a [`QueryCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

#[derive(Debug)]
struct Entry {
    tick: u64,
    body: Arc<str>,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<String, Entry>,
    tick: u64,
}

/// A bounded, thread-safe LRU cache of encoded response bodies.
#[derive(Debug)]
pub struct QueryCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl QueryCache {
    /// Creates a cache holding at most `capacity` entries. Capacity 0
    /// disables caching entirely (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            inner: Mutex::new(Inner::default()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up a key, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<str>> {
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // A poisoned lock means a session panicked while touching the map;
        // every mutation below leaves the map structurally sound at each
        // step, so recovering the guard is safe — and a degraded cache must
        // never take the serving path down with it.
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.tick = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.body))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) an entry, evicting the least recently used one
    /// when full.
    pub fn insert(&self, key: &str, body: Arc<str>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(key) {
            entry.tick = tick;
            entry.body = body;
            return;
        }
        if inner.map.len() >= self.capacity {
            // O(n) victim scan — capacities are small (hundreds), and the
            // scan only runs once the cache is full.
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(key.to_string(), Entry { tick, body });
    }

    /// Current counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self
                .inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .map
                .len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_eviction_counting() {
        let cache = QueryCache::new(2);
        assert_eq!(cache.get("a"), None);
        cache.insert("a", "1".into());
        cache.insert("b", "2".into());
        assert_eq!(cache.get("a").as_deref(), Some("1"));
        // `b` is now the least recently used; inserting `c` evicts it.
        cache.insert("c", "3".into());
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("a").as_deref(), Some("1"));
        assert_eq!(cache.get("c").as_deref(), Some("3"));
        let counters = cache.counters();
        assert_eq!(counters.hits, 3);
        assert_eq!(counters.misses, 2);
        assert_eq!(counters.evictions, 1);
        assert_eq!(counters.entries, 2);
    }

    #[test]
    fn reinsert_refreshes_instead_of_evicting() {
        let cache = QueryCache::new(2);
        cache.insert("a", "1".into());
        cache.insert("b", "2".into());
        cache.insert("a", "1b".into());
        assert_eq!(cache.counters().evictions, 0);
        assert_eq!(cache.get("a").as_deref(), Some("1b"));
    }

    #[test]
    fn hits_share_the_inserted_body() {
        let cache = QueryCache::new(2);
        let body: Arc<str> = Arc::from("{\"status\":\"ok\"}");
        cache.insert("a", Arc::clone(&body));
        let first = cache.get("a").unwrap();
        let second = cache.get("a").unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert!(Arc::ptr_eq(&first, &body));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = QueryCache::new(0);
        cache.insert("a", "1".into());
        assert_eq!(cache.get("a"), None);
        assert_eq!(cache.counters().entries, 0);
        assert_eq!(cache.counters().hits, 0);
    }
}
