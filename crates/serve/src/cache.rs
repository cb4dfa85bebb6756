//! The shared cross-tenant program cache.
//!
//! A pool compiles each distinct program once: N tenants submitting the
//! same kernel through N machines share one [`CompiledProgram`]. The
//! cache is one concurrent, capacity-bounded LRU shared by every submitter
//! and bound to the pool's one [`ArchConfig`], keyed by content
//! ([`hyperap_arch::stream_set_hash`] of the instruction streams).
//!
//! Correctness over the hash is never assumed: a key hit is validated by
//! comparing the full stream set (cheap — the vectorized `SearchKey`
//! equality), and a collision recompiles and replaces the entry rather
//! than serving the wrong program.
//!
//! Compilation happens *outside* the cache lock, so a miss never stalls
//! concurrent hits; two threads racing to compile the same cold program do
//! duplicate work once, and the second insert wins harmlessly (both values
//! are bit-identical by construction).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hyperap_arch::{stream_set_hash, ArchConfig, CompiledProgram};
use hyperap_isa::Instruction;

/// A compiled program as the cache stores it: the source streams (the
/// validation witness) plus their compiled program, shared read-only
/// behind an `Arc` by every job that runs it.
#[derive(Debug)]
pub struct CachedProgram {
    /// Cache key: the stream-set hash.
    pub key: u64,
    /// The instruction streams exactly as submitted, one per group.
    pub streams: Vec<Vec<Instruction>>,
    /// The streams compiled for the cache's config.
    pub program: CompiledProgram,
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
    entries: HashMap<u64, Entry>,
    clock: u64,
}

/// A concurrent, capacity-bounded (LRU) program cache shared across
/// tenants and machines. See the [module docs](self).
pub struct ProgramCache {
    capacity: usize,
    config: ArchConfig,
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
    /// An empty cache holding at most `capacity` programs compiled for
    /// `config`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a cacheless pool would silently
    /// recompile every submission, which is never what a serving layer
    /// wants; make the bound explicit instead.
    pub fn new(capacity: usize, config: ArchConfig) -> Self {
        assert!(capacity > 0, "program cache capacity must be non-zero");
        ProgramCache {
            capacity,
            config,
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

    /// Look up `streams`, compiling them for the cache's config on a miss.
    ///
    /// The returned program is shared: repeated calls with equal streams
    /// return clones of one `Arc` until the entry is evicted. Hits are
    /// validated by full stream equality; a hash collision (different
    /// streams, same key) is counted, recompiled, and replaces the
    /// resident entry.
    pub fn get_or_compile(&self, streams: &[Vec<Instruction>]) -> Arc<CachedProgram> {
        let key = stream_set_hash(streams);
        let mut collision = false;
        {
            let mut inner = crate::lock(&self.inner);
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(entry) = inner.entries.get_mut(&key) {
                if entry.program.streams == streams {
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
            program: CompiledProgram::compile(streams, &self.config),
        });
        let mut inner = crate::lock(&self.inner);
        inner.clock += 1;
        let clock = inner.clock;
        // A racing thread may have inserted the same program while we
        // compiled; reuse its Arc so batch coalescing (which compares by
        // pointer first) sees one shared value.
        if let Some(entry) = inner.entries.get_mut(&key) {
            if entry.program.streams == streams {
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
        let cache = ProgramCache::new(4, ArchConfig::tiny());
        let a = cache.get_or_compile(&stream("1-"));
        let b = cache.get_or_compile(&stream("1-"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = ProgramCache::new(2, ArchConfig::tiny());
        cache.get_or_compile(&stream("1-"));
        cache.get_or_compile(&stream("0-"));
        cache.get_or_compile(&stream("1-")); // touch: "0-" is now LRU
        cache.get_or_compile(&stream("-1")); // evicts "0-"
        assert_eq!(cache.stats().evictions, 1);
        cache.get_or_compile(&stream("1-"));
        assert_eq!(cache.stats().hits, 2, "the touched entry survived");
        cache.get_or_compile(&stream("0-"));
        assert_eq!(cache.stats().misses, 4, "the evicted entry recompiled");
    }
}
