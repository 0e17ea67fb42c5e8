//! The engine's two resident caches, built on one LRU: [`ResultCache`]
//! memoizes the [`VugResult`] of canonical `(s, t, [τ_b, τ_e])` queries and
//! [`ProfileCache`] keeps per-source [`ArrivalProfile`]s across batches.
//!
//! The engine's graph is immutable between edge ingestions, so within one
//! graph epoch a query's tspG and a source's arrival profile never change
//! and memoizing them is sound. The result cache is consulted before batch
//! planning and populated after execution; under repeated-query serving
//! traffic a hit skips the entire pipeline. The profile cache is consulted
//! before any profile forward pass. When the graph mutates
//! ([`crate::engine::QueryEngine::ingest`]) both caches are flushed
//! outright: every resident value was computed at the previous epoch, and
//! the flush releases its memory at once instead of leaving it resident
//! until LRU pressure reclaims it.
//!
//! Each cache is one mutex around a hash map and a recency index (a B-tree
//! from last-use tick to key), so a lookup, an insertion and each eviction
//! cost `O(log n)` and none scans the entries. One mutex is enough: only
//! the thread running a batch reads or fills the result cache, and the
//! profile cache is touched once per profile group, not per query. Both
//! caches are bounded by entry count and by approximate heap bytes: a
//! value larger than the whole byte budget is not cached, and inserting
//! past either bound evicts least-recently-used entries. Hit / miss /
//! insert / evict counters live under the same mutex and are read with
//! the occupancy through `stats`.

use crate::engine::QuerySpec;
use crate::polarity::ArrivalProfile;
use crate::vug::VugResult;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::mem::size_of;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tspg_graph::{TimeInterval, VertexId};

/// Sizing of a [`ResultCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum number of cached results (≥ 1; 0 is rounded up to 1).
    pub max_entries: usize,
    /// Approximate upper bound on cached heap bytes. A single result larger
    /// than this is not cached at all.
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self { max_entries: 4096, max_bytes: 64 << 20 }
    }
}

impl CacheConfig {
    /// A config with the given entry bound and the default byte limit.
    pub fn with_max_entries(max_entries: usize) -> Self {
        Self { max_entries: max_entries.max(1), ..Self::default() }
    }
}

/// A snapshot of the cache's counters and current occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Results stored (excluding replaced duplicates).
    pub insertions: u64,
    /// Entries dropped to satisfy the entry or byte bound.
    pub evictions: u64,
    /// Resident entries right now.
    pub entries: usize,
    /// Approximate resident heap bytes right now.
    pub bytes: usize,
}

impl CacheStats {
    /// Snapshot of every counter as `(name, value)` pairs for `key=value`
    /// surfaces (the `tspg-server` `stats` verb). The names carry a
    /// `cache_` prefix — and the lookup counters a `_lookup_` infix — so
    /// they never collide with [`super::BatchStats::key_values`]' names
    /// (whose `cache_hits` counts queries answered from the cache, the same
    /// quantity `cache_lookup_hits` counts from the cache's side).
    pub fn key_values(&self) -> [(&'static str, u64); 6] {
        [
            ("cache_lookup_hits", self.hits),
            ("cache_lookup_misses", self.misses),
            ("cache_insertions", self.insertions),
            ("cache_evictions", self.evictions),
            ("cache_entries", self.entries as u64),
            ("cache_bytes", self.bytes as u64),
        ]
    }

    /// Hit rate in `[0, 1]`; 0 when no lookups happened yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What [`Lru::insert`] does with a key that is already resident.
#[derive(Clone, Copy, Debug)]
enum OnResident {
    /// Keep the resident value and only mark it most recently used: the
    /// caller's value is known to equal it.
    Keep,
    /// Store the caller's value in its place, counted as an insertion.
    Replace,
}

/// One resident value, stamped with the recency tick of its last use.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    bytes: usize,
    used: u64,
}

/// Everything an [`Lru`]'s mutex guards.
#[derive(Debug)]
struct LruState<K, V> {
    entries: HashMap<K, Entry<V>>,
    /// Last-use tick → key; the first key is the least recently used.
    recency: BTreeMap<u64, K>,
    tick: u64,
    bytes: usize,
    /// Hit / miss / insert / evict tallies; the occupancy fields stay zero
    /// here and are filled in by [`Lru::stats`].
    counters: CacheStats,
}

impl<K: Copy + Eq + Hash, V> LruState<K, V> {
    /// Marks `key`'s entry, if resident, as the most recently used.
    fn touch(&mut self, key: K) -> Option<&mut Entry<V>> {
        let entry = self.entries.get_mut(&key)?;
        self.recency.remove(&entry.used);
        self.tick += 1;
        entry.used = self.tick;
        self.recency.insert(self.tick, key);
        Some(entry)
    }
}

/// The one LRU map behind both caches: a single mutex, an entry bound, a
/// byte bound and one set of counters.
#[derive(Debug)]
struct Lru<K, V> {
    state: Mutex<LruState<K, V>>,
    max_entries: usize,
    max_bytes: usize,
    on_resident: OnResident,
}

impl<K: Copy + Eq + Hash, V: Clone> Lru<K, V> {
    fn new(max_entries: usize, max_bytes: usize, on_resident: OnResident) -> Self {
        let state = LruState {
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            bytes: 0,
            counters: CacheStats::default(),
        };
        Self { state: Mutex::new(state), max_entries: max_entries.max(1), max_bytes, on_resident }
    }

    /// The guarded state. A poisoned mutex is recovered: every update below
    /// leaves the map, the recency index and the byte total consistent at
    /// any point a value clone could panic.
    fn locked(&self) -> MutexGuard<'_, LruState<K, V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`. A resident value that `usable` accepts is a hit and
    /// becomes the most recently used; one it rejects counts as a miss,
    /// like an absent key.
    fn get(&self, key: &K, usable: impl FnOnce(&V) -> bool) -> Option<V> {
        let mut state = self.locked();
        let hit = state.entries.get(key).is_some_and(|entry| usable(&entry.value));
        let found = if hit { state.touch(*key).map(|entry| entry.value.clone()) } else { None };
        match found {
            Some(_) => state.counters.hits += 1,
            None => state.counters.misses += 1,
        }
        found
    }

    /// Stores `value` (costing `bytes`) under `key`, then evicts
    /// least-recently-used entries until both bounds hold. A value larger
    /// than the whole byte budget is skipped; a resident key is handled as
    /// [`OnResident`] says.
    fn insert(&self, key: K, value: &V, bytes: usize) {
        if bytes > self.max_bytes {
            return;
        }
        let mut guard = self.locked();
        let state = &mut *guard;
        let replaced_bytes = match state.touch(key) {
            Some(_) if matches!(self.on_resident, OnResident::Keep) => return,
            Some(entry) => {
                entry.value = value.clone();
                std::mem::replace(&mut entry.bytes, bytes)
            }
            None => {
                state.tick += 1;
                state.entries.insert(key, Entry { value: value.clone(), bytes, used: state.tick });
                state.recency.insert(state.tick, key);
                0
            }
        };
        state.bytes = state.bytes - replaced_bytes + bytes;
        state.counters.insertions += 1;
        while state.entries.len() > self.max_entries || state.bytes > self.max_bytes {
            let Some((_, victim)) = state.recency.pop_first() else { break };
            if let Some(evicted) = state.entries.remove(&victim) {
                state.bytes -= evicted.bytes;
            }
            state.counters.evictions += 1;
        }
    }

    /// Drops every entry and releases its value. Not counted as evictions:
    /// the counters keep measuring capacity pressure, and their history
    /// survives the flush.
    fn clear(&self) {
        let mut state = self.locked();
        state.entries.clear();
        state.recency.clear();
        state.bytes = 0;
    }

    /// Counters plus current occupancy.
    fn stats(&self) -> CacheStats {
        let state = self.locked();
        CacheStats { entries: state.entries.len(), bytes: state.bytes, ..state.counters }
    }
}

/// Fixed heap cost of one resident entry beyond its value's own
/// allocation: the key and [`Entry`] in the hash map plus the tick and key
/// in the recency index, doubled for the spare capacity both keep (a hash
/// map stays below full load, B-tree nodes are partly empty). Charging only
/// the value's bytes would let small values blow far past `max_bytes` in
/// real memory while the accounted total stays near zero.
const fn entry_overhead<K, V>() -> usize {
    2 * (size_of::<(K, Entry<V>)>() + size_of::<(u64, K)>())
}

/// Per-entry overhead of a [`ResultCache`] entry.
const ENTRY_OVERHEAD: usize = entry_overhead::<QuerySpec, VugResult>();

/// Approximate heap footprint of one cached result.
fn entry_bytes(value: &VugResult) -> usize {
    value.tspg.approx_bytes() + ENTRY_OVERHEAD
}

/// Approximate heap footprint of one resident profile, including the
/// `Arc`'s two reference counts.
fn profile_bytes(profile: &ArrivalProfile) -> usize {
    profile.approx_bytes()
        + entry_overhead::<VertexId, Arc<ArrivalProfile>>()
        + 2 * size_of::<usize>()
}

/// The engine's LRU result cache. See the module docs.
#[derive(Debug)]
pub struct ResultCache {
    lru: Lru<QuerySpec, VugResult>,
}

impl ResultCache {
    /// Creates an empty cache with the given bounds.
    pub fn new(config: CacheConfig) -> Self {
        // Same canonical query ⇒ same tspG within an epoch: a resident
        // result never needs replacing.
        Self { lru: Lru::new(config.max_entries, config.max_bytes, OnResident::Keep) }
    }

    /// Looks up the result of a canonical query, refreshing its recency.
    pub fn get(&self, key: &QuerySpec) -> Option<VugResult> {
        self.lru.get(key, |_| true)
    }

    /// Stores the result of a canonical query, evicting LRU entries as
    /// needed. Results larger than the whole byte budget are skipped, and
    /// re-storing a resident query only refreshes its recency.
    pub fn insert(&self, key: QuerySpec, value: &VugResult) {
        self.lru.insert(key, value, entry_bytes(value));
    }

    /// Drops every resident entry at once — the ingest flush.
    ///
    /// Flushed entries are not counted as evictions (`cache_evictions`
    /// keeps measuring capacity pressure, not invalidation); the hit/miss
    /// history is preserved so hit-rate recovery after an ingest is
    /// observable in the same counters.
    pub fn clear(&self) {
        self.lru.clear();
    }

    /// Counters plus current occupancy.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }
}

/// Sizing of a [`ProfileCache`].
///
/// Profiles are per *source*, not per query, so the working set is the
/// number of hot fan-out sources — orders of magnitude smaller than the
/// result cache's key space. The defaults reflect that.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfileCacheConfig {
    /// Maximum number of resident profiles (≥ 1).
    pub max_entries: usize,
    /// Approximate upper bound on resident profile heap bytes. Profiles
    /// larger than this are not cached at all.
    pub max_bytes: usize,
}

impl Default for ProfileCacheConfig {
    fn default() -> Self {
        Self { max_entries: 128, max_bytes: 32 << 20 }
    }
}

impl ProfileCacheConfig {
    /// A config with the given entry bound and the default byte limit.
    pub fn with_max_entries(max_entries: usize) -> Self {
        Self { max_entries: max_entries.max(1), ..Self::default() }
    }
}

/// A snapshot of the profile cache's counters and current occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfileCacheStats {
    /// Lookups answered by a resident profile whose hull covers the
    /// requested window.
    pub hits: u64,
    /// Lookups that found no profile, or one with too narrow a hull.
    pub misses: u64,
    /// Profiles stored (replacements of a too-narrow same-source profile
    /// included — the value really changed).
    pub insertions: u64,
    /// Profiles dropped to satisfy the entry or byte bound.
    pub evictions: u64,
    /// Resident profiles right now.
    pub entries: usize,
    /// Approximate resident heap bytes right now.
    pub bytes: usize,
}

impl ProfileCacheStats {
    /// Snapshot of every counter as `(name, value)` pairs for `key=value`
    /// surfaces (the `tspg-server` `stats` verb). The `profile_cache_`
    /// prefix keeps the names disjoint from both [`CacheStats::key_values`]
    /// and [`super::BatchStats::key_values`].
    pub fn key_values(&self) -> [(&'static str, u64); 6] {
        [
            ("profile_cache_hits", self.hits),
            ("profile_cache_misses", self.misses),
            ("profile_cache_insertions", self.insertions),
            ("profile_cache_evictions", self.evictions),
            ("profile_cache_entries", self.entries as u64),
            ("profile_cache_bytes", self.bytes as u64),
        ]
    }
}

/// A small LRU of per-source [`ArrivalProfile`]s, consulted by the engine
/// before any profile forward pass and surviving across batches in the
/// resident server until the next ingest flushes it.
///
/// A lookup hits only when the resident profile's hull `covers` the
/// requested window (same source, hull ⊇ window — begins may differ, that
/// is the whole point of a profile); a too-narrow hull is a miss and the
/// caller's freshly computed profile replaces it.
#[derive(Debug)]
pub struct ProfileCache {
    lru: Lru<VertexId, Arc<ArrivalProfile>>,
}

impl ProfileCache {
    /// Creates an empty cache with the given bounds.
    pub fn new(config: ProfileCacheConfig) -> Self {
        Self { lru: Lru::new(config.max_entries, config.max_bytes, OnResident::Replace) }
    }

    /// Looks up a resident profile for `source` able to answer `window`,
    /// refreshing its recency.
    pub fn get(&self, source: VertexId, window: TimeInterval) -> Option<Arc<ArrivalProfile>> {
        self.lru.get(&source, |profile| profile.covers(source, window))
    }

    /// Stores a profile under its source, replacing any resident profile of
    /// that source and evicting LRU entries as needed. Profiles larger than
    /// the whole byte bound are skipped.
    pub fn insert(&self, profile: &Arc<ArrivalProfile>) {
        self.lru.insert(profile.source(), profile, profile_bytes(profile));
    }

    /// Drops every resident profile at once — the ingest flush. Like
    /// [`ResultCache::clear`], not counted as evictions.
    pub fn clear(&self) {
        self.lru.clear();
    }

    /// Counters plus current occupancy.
    pub fn stats(&self) -> ProfileCacheStats {
        let CacheStats { hits, misses, insertions, evictions, entries, bytes } = self.lru.stats();
        ProfileCacheStats { hits, misses, insertions, evictions, entries, bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vug::VugReport;
    use tspg_graph::{EdgeSet, TemporalEdge, TimeInterval};

    fn key(i: i64) -> QuerySpec {
        QuerySpec::new(0, 1, TimeInterval::new(i, i + 3))
    }

    fn result(edges: usize) -> VugResult {
        let tspg = EdgeSet::from_edges((0..edges).map(|i| TemporalEdge::new(0, 1, i as i64 + 1)));
        VugResult { tspg, report: VugReport::default() }
    }

    fn bounded(max_entries: usize, max_bytes: usize) -> ResultCache {
        ResultCache::new(CacheConfig { max_entries, max_bytes })
    }

    #[test]
    fn get_after_insert_roundtrips_and_counts() {
        let cache = ResultCache::new(CacheConfig::default());
        assert!(cache.get(&key(0)).is_none());
        cache.insert(key(0), &result(3));
        let hit = cache.get(&key(0)).expect("hit");
        assert_eq!(hit.tspg, result(3).tspg);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let cache = bounded(2, usize::MAX >> 1);
        cache.insert(key(1), &result(1));
        cache.insert(key(2), &result(1));
        // Touch key 1 so key 2 becomes LRU.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), &result(1));
        assert!(cache.get(&key(2)).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn default_cache_holds_4096_entries_before_its_first_eviction() {
        // The whole entry bound is one LRU's: no key-hash partition fills
        // early and evicts while the cache as a whole has room.
        let cache = ResultCache::new(CacheConfig::default());
        for i in 0..4096 {
            cache.insert(key(i), &result(1));
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (4096, 0), "{stats:?}");
        cache.insert(key(4096), &result(1));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (4096, 1), "{stats:?}");
        assert!(cache.get(&key(0)).is_none(), "the least recently used entry goes first");
        assert!(cache.get(&key(1)).is_some());
    }

    #[test]
    fn byte_bound_evicts_and_oversized_results_are_skipped() {
        let per_entry = entry_bytes(&result(4));
        let cache = bounded(1024, 2 * per_entry + per_entry / 2);
        cache.insert(key(1), &result(4));
        cache.insert(key(2), &result(4));
        cache.insert(key(3), &result(4));
        let stats = cache.stats();
        assert!(stats.entries <= 2, "byte bound must hold: {stats:?}");
        assert!(stats.bytes <= 2 * per_entry + per_entry / 2);
        assert!(stats.evictions >= 1);
        // A result bigger than the whole budget is never admitted.
        let tiny = bounded(1024, per_entry / 2);
        tiny.insert(key(9), &result(4));
        assert_eq!(tiny.stats().entries, 0);
        assert!(tiny.get(&key(9)).is_none());
    }

    #[test]
    fn empty_results_still_pay_per_entry_overhead() {
        // A zero-edge result owns no tspG heap at all; if the accounting
        // charged only the value's approximate bytes, max_bytes would never
        // bite and resident memory (map and recency entries per insert)
        // would grow unboundedly. With the per-entry overhead charged, a
        // byte bound sized for ~8 entries must hold the cache to ~8 entries.
        let empty = VugResult { tspg: EdgeSet::new(), report: VugReport::default() };
        assert_eq!(entry_bytes(&empty), ENTRY_OVERHEAD);
        let budget = 8 * ENTRY_OVERHEAD;
        let cache = bounded(usize::MAX >> 1, budget);
        for i in 0..256 {
            cache.insert(key(i), &empty);
        }
        let stats = cache.stats();
        assert!(stats.entries <= 8, "byte bound must limit empty entries: {stats:?}");
        assert!(stats.bytes <= budget, "{stats:?}");
        assert!(stats.evictions >= 248, "{stats:?}");
    }

    #[test]
    fn reinserting_a_key_refreshes_recency_without_double_counting() {
        let cache = bounded(2, usize::MAX >> 1);
        cache.insert(key(1), &result(1));
        cache.insert(key(2), &result(1));
        cache.insert(key(1), &result(1)); // refresh, not a new entry
        assert_eq!(cache.stats().insertions, 2);
        assert_eq!(cache.stats().entries, 2);
        cache.insert(key(3), &result(1));
        assert!(cache.get(&key(1)).is_some(), "refreshed key must survive");
        assert!(cache.get(&key(2)).is_none());
    }

    #[test]
    fn clear_flushes_every_shard_without_counting_evictions() {
        let cache = bounded(64, 1 << 20);
        for i in 0..16 {
            cache.insert(key(i), &result(2));
        }
        assert!(cache.stats().entries > 0);
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0, "{stats:?}");
        assert_eq!(stats.bytes, 0, "{stats:?}");
        assert_eq!(stats.evictions, 0, "an ingest flush is not capacity pressure");
        assert_eq!(stats.insertions, 16, "history survives the flush");
        for i in 0..16 {
            assert!(cache.get(&key(i)).is_none(), "flushed entries must be gone");
        }
        // The cache keeps working after a flush.
        cache.insert(key(0), &result(2));
        assert!(cache.get(&key(0)).is_some());
    }

    fn profile(source: VertexId, begin: i64, end: i64) -> Arc<ArrivalProfile> {
        use tspg_graph::{TemporalEdge, TemporalGraph};
        let g = TemporalGraph::from_edges(
            4,
            vec![
                TemporalEdge::new(0, 1, 2),
                TemporalEdge::new(1, 2, 4),
                TemporalEdge::new(2, 3, 6),
                TemporalEdge::new(3, 0, 8),
            ],
        );
        Arc::new(ArrivalProfile::compute(&g, source, TimeInterval::new(begin, end)))
    }

    #[test]
    fn profile_cache_hits_any_covered_window_and_counts() {
        let cache = ProfileCache::new(ProfileCacheConfig::default());
        assert!(cache.get(0, TimeInterval::new(2, 6)).is_none());
        cache.insert(&profile(0, 1, 9));
        // Any sub-window of the resident hull hits, begins included.
        for begin in 1..=5 {
            assert!(cache.get(0, TimeInterval::new(begin, 6)).is_some());
        }
        // Other sources and wider windows miss.
        assert!(cache.get(1, TimeInterval::new(2, 6)).is_none());
        assert!(cache.get(0, TimeInterval::new(0, 6)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (5, 3, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn profile_cache_replaces_stale_narrow_profiles_in_place() {
        let cache = ProfileCache::new(ProfileCacheConfig::with_max_entries(4));
        cache.insert(&profile(0, 3, 5));
        assert!(cache.get(0, TimeInterval::new(1, 9)).is_none(), "narrow hull must miss");
        cache.insert(&profile(0, 1, 9));
        assert!(cache.get(0, TimeInterval::new(1, 9)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "same source replaces, never duplicates");
        assert_eq!(stats.insertions, 2);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn profile_cache_evicts_least_recently_used_sources() {
        let cache = ProfileCache::new(ProfileCacheConfig::with_max_entries(2));
        cache.insert(&profile(0, 1, 9));
        cache.insert(&profile(1, 1, 9));
        // Touch source 0 so source 1 becomes LRU.
        assert!(cache.get(0, TimeInterval::new(2, 6)).is_some());
        cache.insert(&profile(2, 1, 9));
        assert!(cache.get(1, TimeInterval::new(2, 6)).is_none(), "LRU source must be evicted");
        assert!(cache.get(0, TimeInterval::new(2, 6)).is_some());
        assert!(cache.get(2, TimeInterval::new(2, 6)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn profile_cache_byte_bound_evicts_and_skips_oversized() {
        let per_entry = profile_bytes(&profile(0, 1, 9));
        let cache = ProfileCache::new(ProfileCacheConfig {
            max_entries: 1024,
            max_bytes: 2 * per_entry + per_entry / 2,
        });
        cache.insert(&profile(0, 1, 9));
        cache.insert(&profile(1, 1, 9));
        cache.insert(&profile(2, 1, 9));
        let stats = cache.stats();
        assert!(stats.entries <= 2, "byte bound must hold: {stats:?}");
        assert!(stats.bytes <= 2 * per_entry + per_entry / 2);
        assert!(stats.evictions >= 1);
        // A profile bigger than the whole bound is never admitted.
        let tiny = ProfileCache::new(ProfileCacheConfig { max_entries: 1024, max_bytes: 1 });
        tiny.insert(&profile(0, 1, 9));
        assert_eq!(tiny.stats().entries, 0);
    }

    #[test]
    fn profile_cache_concurrent_access_is_safe() {
        let cache = ProfileCache::new(ProfileCacheConfig::with_max_entries(8));
        std::thread::scope(|scope| {
            for worker in 0..4u32 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..50 {
                        let source = (i + worker) % 12;
                        if cache.get(source, TimeInterval::new(2, 6)).is_none() {
                            cache.insert(&profile(source, 1, 9));
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 200);
        assert!(stats.entries <= 8);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = bounded(64, 1 << 20);
        std::thread::scope(|scope| {
            for worker in 0..4i64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..100 {
                        let k = key((i + worker) % 32);
                        if cache.get(&k).is_none() {
                            cache.insert(k, &result(2));
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(stats.hits + stats.misses == 400);
        assert!(stats.entries <= 64);
    }
}
