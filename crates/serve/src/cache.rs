//! The shared cross-tenant program cache.
//!
//! PR 4 gave every machine a private content-addressed trace cache — the
//! right shape for one long-lived machine rerunning one kernel, and the
//! wrong one for a pool: N tenants submitting the same kernel through N
//! machines would compile it N times and cache it N times. This module
//! hoists that cache above the pool: one concurrent, capacity-bounded LRU
//! shared by every submitter, keyed by content
//! ([`hyperap_arch::stream_set_hash`] of the instruction streams +
//! [`hyperap_arch::ArchConfig::geometry_hash`]).
//!
//! Correctness over the hash is never assumed: a key hit is validated by
//! comparing the full stream set (cheap — the vectorized `SearchKey`
//! equality from the slab work) *and* the geometry witness
//! ([`ArchConfig::geometry_fields`], the exact values the geometry hash
//! digests), and a collision on either half recompiles and replaces the
//! entry rather than serving the wrong program.
//!
//! Compilation happens *outside* the cache lock, so a miss never stalls
//! concurrent hits; two threads racing to compile the same cold program do
//! duplicate work once, and the second insert wins harmlessly (both values
//! are bit-identical by construction).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hyperap_arch::{stream_set_hash, ArchConfig, CompiledTrace};
use hyperap_isa::Instruction;

/// A compiled program as the cache stores it: the source streams (the
/// validation witness) plus their compiled traces, shared read-only behind
/// an `Arc` by every job that runs it.
#[derive(Debug)]
pub struct CachedProgram {
    /// Cache key: `(stream-set hash, geometry hash)`.
    pub key: (u64, u64),
    /// The instruction streams exactly as submitted, one per group.
    pub streams: Vec<Vec<Instruction>>,
    /// The geometry witness ([`ArchConfig::geometry_fields`]) the program
    /// was compiled for — the exact values the key's geometry hash
    /// digests, validated on every hit alongside stream equality so a
    /// geometry-hash collision can never serve a trace compiled for a
    /// different machine shape.
    pub geometry: [u64; 10],
    /// One compiled trace per stream.
    pub traces: Vec<CompiledTrace>,
}

impl CachedProgram {
    /// Whether any stream can touch data registers outside its own PE
    /// (`MovR`/`ReadR`/`WriteR`) — the property that rules out batching
    /// with neighbors and pins the program to a full machine.
    pub fn touches_remote_regs(&self) -> bool {
        self.streams
            .iter()
            .any(|s| s.iter().any(Instruction::touches_remote_regs))
    }
}

/// Monotonic counters describing cache behavior since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered by a validated resident entry.
    pub hits: u64,
    /// Lookups that compiled (entry absent).
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Hash collisions caught by stream validation (entry replaced).
    pub collisions: u64,
}

impl CacheStats {
    /// Hit fraction of all lookups (`0.0` when none happened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.collisions;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    program: Arc<CachedProgram>,
    /// Logical LRU clock value of the last touch.
    last_used: u64,
}

struct Inner {
    entries: HashMap<(u64, u64), Entry>,
    clock: u64,
}

/// A concurrent, capacity-bounded (LRU) program cache shared across
/// tenants and machines. See the [module docs](self).
pub struct ProgramCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    collisions: AtomicU64,
}

impl std::fmt::Debug for ProgramCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl ProgramCache {
    /// An empty cache holding at most `capacity` compiled programs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a cacheless pool would silently
    /// recompile every submission, which is never what a serving layer
    /// wants; make the bound explicit instead.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "program cache capacity must be non-zero");
        ProgramCache {
            capacity,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        crate::lock(&self.inner).entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
        }
    }

    /// Look up `streams` for the given geometry, compiling on a miss.
    ///
    /// The returned program is shared: repeated calls with equal streams
    /// return clones of one `Arc` until the entry is evicted. Hits are
    /// validated by full stream equality; a hash collision (different
    /// streams, same key) is counted, recompiled, and replaces the
    /// resident entry.
    pub fn get_or_compile(
        &self,
        streams: &[Vec<Instruction>],
        config: &ArchConfig,
    ) -> Arc<CachedProgram> {
        let geometry = config.geometry_fields();
        let key = (stream_set_hash(streams), config.geometry_hash());
        let mut collision = false;
        {
            let mut inner = crate::lock(&self.inner);
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(entry) = inner.entries.get_mut(&key) {
                if entry.program.streams == streams && entry.program.geometry == geometry {
                    entry.last_used = clock;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Arc::clone(&entry.program);
                }
                collision = true;
            }
        }
        // Compile outside the lock: a cold kernel must not stall hits.
        if collision {
            self.collisions.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let program = Arc::new(CachedProgram {
            key,
            streams: streams.to_vec(),
            geometry,
            traces: hyperap_arch::trace::compile_streams(streams, config),
        });
        let mut inner = crate::lock(&self.inner);
        inner.clock += 1;
        let clock = inner.clock;
        // A racing thread may have inserted the same program while we
        // compiled; reuse its Arc so batch coalescing (which compares by
        // pointer first) sees one shared value.
        if let Some(entry) = inner.entries.get_mut(&key) {
            if entry.program.streams == streams && entry.program.geometry == geometry {
                entry.last_used = clock;
                return Arc::clone(&entry.program);
            }
        }
        inner.entries.insert(
            key,
            Entry {
                program: Arc::clone(&program),
                last_used: clock,
            },
        );
        while inner.entries.len() > self.capacity {
            let oldest = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
                .expect("non-empty over-capacity cache");
            inner.entries.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperap_tcam::SearchKey;

    fn stream(pattern: &str) -> Vec<Vec<Instruction>> {
        vec![vec![
            Instruction::SetKey {
                key: SearchKey::parse(pattern).unwrap(),
            },
            Instruction::Search {
                acc: false,
                encode: false,
            },
            Instruction::Count,
        ]]
    }

    #[test]
    fn hit_shares_one_arc() {
        let cfg = ArchConfig::tiny();
        let cache = ProgramCache::new(4);
        let a = cache.get_or_compile(&stream("1-"), &cfg);
        let b = cache.get_or_compile(&stream("1-"), &cfg);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_geometry_is_a_distinct_entry() {
        let cache = ProgramCache::new(4);
        let mut wide = ArchConfig::tiny();
        wide.cols *= 2;
        let a = cache.get_or_compile(&stream("1-"), &ArchConfig::tiny());
        let b = cache.get_or_compile(&stream("1-"), &wide);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cfg = ArchConfig::tiny();
        let cache = ProgramCache::new(2);
        cache.get_or_compile(&stream("1-"), &cfg);
        cache.get_or_compile(&stream("0-"), &cfg);
        cache.get_or_compile(&stream("1-"), &cfg); // touch: "0-" is now LRU
        cache.get_or_compile(&stream("-1"), &cfg); // evicts "0-"
        assert_eq!(cache.stats().evictions, 1);
        cache.get_or_compile(&stream("1-"), &cfg);
        assert_eq!(cache.stats().hits, 2, "the touched entry survived");
        cache.get_or_compile(&stream("0-"), &cfg);
        assert_eq!(cache.stats().misses, 4, "the evicted entry recompiled");
    }
}
