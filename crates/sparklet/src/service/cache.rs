//! Lineage-keyed result cache for the job service.
//!
//! Keys are 128-bit digests of a job's *logical* lineage (problem
//! kind plus canonical input encoding — execution knobs excluded,
//! because every engine path is validated bitwise-identical), by the
//! service's [`super::JobRunner`]. Values are the job's cacheable
//! result encoding — for overlapping queries the *full* table, from
//! which each request projects its slice — so "same graph, different
//! source set" is one entry, one computation.
//!
//! Bounded by bytes with deterministic LRU eviction: no clocks, no
//! sampling, so a seeded sim replay sees identical hit/miss/evict
//! sequences.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;

/// Byte-bounded LRU cache keyed by 128-bit lineage digests.
pub(crate) struct ResultCache {
    capacity: u64,
    used: u64,
    map: HashMap<u128, Bytes>,
    /// Recency order, front = least recently used.
    lru: VecDeque<u128>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    pub(crate) fn new(capacity: u64) -> Self {
        ResultCache {
            capacity,
            used: 0,
            map: HashMap::new(),
            lru: VecDeque::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn touch(&mut self, key: u128) {
        if let Some(at) = self.lru.iter().position(|&k| k == key) {
            self.lru.remove(at);
        }
        self.lru.push_back(key);
    }

    /// Look up a lineage key, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, key: u128) -> Option<Bytes> {
        match self.map.get(&key).cloned() {
            Some(v) => {
                self.hits += 1;
                self.touch(key);
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a result, evicting LRU entries until it fits. An entry
    /// larger than the whole cache is not stored at all (storing it
    /// would just evict everything for a value that must be evicted
    /// next insert anyway).
    pub(crate) fn put(&mut self, key: u128, value: Bytes) -> bool {
        let len = value.len() as u64;
        if len > self.capacity {
            return false;
        }
        if let Some(old) = self.map.remove(&key) {
            self.used -= old.len() as u64;
            if let Some(at) = self.lru.iter().position(|&k| k == key) {
                self.lru.remove(at);
            }
        }
        while self.used + len > self.capacity {
            let victim = self.lru.pop_front().expect("used>0 implies entries");
            let gone = self.map.remove(&victim).expect("lru tracks map");
            self.used -= gone.len() as u64;
            self.evictions += 1;
        }
        self.used += len;
        self.map.insert(key, value);
        self.lru.push_back(key);
        true
    }

    /// (hits, misses, evictions) since creation.
    pub(crate) fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

/// 128-bit FNV-1a over a byte stream — the service's standard lineage
/// digest. Stable across platforms and runs (no per-process seeding):
/// cache decisions must replay bit-identically from a script.
#[derive(Clone, Copy, Debug)]
pub struct LineageHasher(u128);

impl Default for LineageHasher {
    fn default() -> Self {
        // FNV-1a 128-bit offset basis.
        LineageHasher(0x6c62272e07bb014262b821756295c58d)
    }
}

impl LineageHasher {
    /// Fold bytes into the digest.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        // FNV-1a 128-bit prime.
        const PRIME: u128 = 0x0000000001000000000000000000013b;
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// The digest so far.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_oldest_first() {
        let mut c = ResultCache::new(10);
        assert!(c.put(1, Bytes::from(vec![0u8; 4])));
        assert!(c.put(2, Bytes::from(vec![0u8; 4])));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(1).is_some());
        assert!(c.put(3, Bytes::from(vec![0u8; 4])));
        assert!(c.get(2).is_none(), "2 was evicted");
        assert!(c.get(1).is_some() && c.get(3).is_some());
        assert_eq!(c.stats().2, 1);
        assert!(c.used <= 10);
    }

    #[test]
    fn oversized_entries_are_not_stored() {
        let mut c = ResultCache::new(4);
        assert!(!c.put(1, Bytes::from(vec![0u8; 5])));
        assert!(c.map.is_empty());
    }

    #[test]
    fn reinsert_replaces_and_reaccounts() {
        let mut c = ResultCache::new(10);
        assert!(c.put(1, Bytes::from(vec![0u8; 8])));
        assert!(c.put(1, Bytes::from(vec![0u8; 2])));
        assert_eq!(c.used, 2);
        assert_eq!(c.map.len(), 1);
    }

    #[test]
    fn lineage_digest_is_stable_and_input_sensitive() {
        let a = *LineageHasher::default().update(b"graph-1");
        let b = *LineageHasher::default().update(b"graph-1");
        let c = *LineageHasher::default().update(b"graph-2");
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), c.finish());
    }
}
