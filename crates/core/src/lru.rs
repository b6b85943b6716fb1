//! A small, deterministic least-recently-used map.
//!
//! Backs each prepared handle's pre-flight memo and, in the serving layer,
//! the prepared-matrix registry and the plan cache. Recency is a monotone
//! logical tick bumped on every insert and hit — no wall-clock
//! involvement, so eviction order is a pure function of the access
//! sequence (which keeps the serving example's end state reproducible).

use std::collections::HashMap;
use std::hash::Hash;

/// Bounded map evicting the least-recently-used entry on overflow.
#[derive(Debug)]
pub struct LruMap<K, V> {
    map: HashMap<K, (V, u64)>,
    capacity: usize,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// An empty map holding at most `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruMap {
            map: HashMap::new(),
            capacity,
            tick: 0,
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `k`, marking it most recently used on a hit.
    pub fn get(&mut self, k: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(k) {
            Some((v, last)) => {
                *last = tick;
                Some(v)
            }
            None => None,
        }
    }

    /// Looks up `k` without touching recency (for stats/tests).
    pub fn peek(&self, k: &K) -> Option<&V> {
        self.map.get(k).map(|(v, _)| v)
    }

    /// Inserts `k → v` as most recently used. If this pushes the map over
    /// capacity, the least-recently-used *other* entry is evicted and
    /// returned.
    pub fn insert(&mut self, k: K, v: V) -> Option<(K, V)> {
        self.tick += 1;
        self.map.insert(k.clone(), (v, self.tick));
        if self.map.len() <= self.capacity {
            return None;
        }
        // Evict the stalest entry; the just-inserted key carries the newest
        // tick so it can never be the victim (capacity >= 1).
        let victim = self
            .map
            .iter()
            .min_by_key(|(_, (_, t))| *t)
            .map(|(key, _)| key.clone())
            .expect("over-capacity map is non-empty");
        self.map.remove(&victim).map(|(value, _)| (victim, value))
    }

    /// Removes `k`, returning its value.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        self.map.remove(k).map(|(v, _)| v)
    }

    /// Iterates over entries in unspecified order (no recency update).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, (v, _))| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used_in_insert_order() {
        let mut m = LruMap::new(2);
        assert!(m.insert("a", 1).is_none());
        assert!(m.insert("b", 2).is_none());
        let evicted = m.insert("c", 3);
        assert_eq!(evicted, Some(("a", 1)));
        assert_eq!(m.len(), 2);
        assert!(m.peek(&"b").is_some() && m.peek(&"c").is_some());
    }

    #[test]
    fn get_refreshes_recency() {
        let mut m = LruMap::new(2);
        m.insert("a", 1);
        m.insert("b", 2);
        assert_eq!(m.get(&"a"), Some(&1)); // a is now fresher than b
        let evicted = m.insert("c", 3);
        assert_eq!(evicted, Some(("b", 2)));
    }

    #[test]
    fn peek_does_not_refresh() {
        let mut m = LruMap::new(2);
        m.insert("a", 1);
        m.insert("b", 2);
        assert_eq!(m.peek(&"a"), Some(&1)); // no recency bump
        assert_eq!(m.insert("c", 3), Some(("a", 1)));
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut m = LruMap::new(2);
        m.insert("a", 1);
        m.insert("b", 2);
        assert!(m.insert("a", 10).is_none());
        assert_eq!(m.peek(&"a"), Some(&10));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn capacity_one_keeps_newest() {
        let mut m = LruMap::new(1);
        m.insert(1, "x");
        assert_eq!(m.insert(2, "y"), Some((1, "x")));
        assert_eq!(m.peek(&2), Some(&"y"));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: LruMap<u32, u32> = LruMap::new(0);
    }
}
