//! Fingerprint-keyed incremental detection cache, sharded for
//! concurrency.
//!
//! Re-checking a workload after small edits should only pay for the
//! statements whose text actually changed — in the spirit of update-aware
//! incremental view maintenance (Berkholz et al.). The cache maps a
//! statement's literal-sensitive 128-bit content hash
//! (`AnalyzedStatement::text_hash`) to the intra-query detections of that
//! text, stored in **canonical form** (statement loci zeroed, spans
//! statement-relative) so a hit can be fanned out to any occurrence index
//! on any later call.
//!
//! ## Sharding
//!
//! Entries are distributed over `N` **lock-striped shards** by content
//! hash. Every shard carries its own `RwLock`-protected map + FIFO queue
//! and its own atomic hit/miss/eviction counters, so concurrent
//! `check_workload` calls from many sessions sharing one cache (via
//! [`SqlCheck::with_shared_cache`]) contend per shard, not on one
//! structure — and the read-mostly path (lookups) takes **shared** locks
//! only, never an exclusive one. Which shard a key lands on is invisible
//! to callers: hits, misses, and invalidation-driven evictions are
//! per-key decisions, so their totals are identical for 1 shard and for
//! N (property-tested). Only *capacity* eviction is approximate under
//! sharding: the capacity is enforced per shard (`⌈capacity / N⌉` each),
//! so a pathologically skewed key distribution can evict slightly before
//! a single global FIFO would have.
//!
//! ## Validity guard
//!
//! Intra-query rules read the statement itself plus — in contextual mode
//! — the schema catalog (for false-positive suppression). They never read
//! the workload profile or the data profile, so a cached result is valid
//! exactly as long as the detection config and the schema *that the
//! statement actually consulted* are unchanged. The guard has two tiers:
//!
//! * a **config epoch** — a hash of `(DetectionConfig, has-data)`; a
//!   mismatch flushes every shard (a config switch can change any rule's
//!   decision);
//! * **schema versions at three granularities** — from
//!   [`SchemaCatalog::versions`](crate::context::SchemaCatalog::versions):
//!   a whole-table digest, a *core* digest (name, primary/foreign keys,
//!   checks — everything except the column list and indexes), and a
//!   per-column digest (the column's definition plus any index that
//!   mentions it). Each entry records a [`DepSet`]: **whole-table** deps
//!   (DDL statements), **core** deps (every table a plain statement
//!   references — covers primary-key and table-presence reads), and
//!   **column** deps (the specific `(table, column)` pairs its rules may
//!   look up). A DDL edit then evicts only what it can affect: `ALTER
//!   TABLE t ADD COLUMN c` changes `t`'s whole-table digest and creates a
//!   `(t, c)` column digest, but leaves `t`'s core and the other columns'
//!   digests unchanged — so a `SELECT a FROM t` entry stays warm while a
//!   `CREATE TABLE t …` entry (whole-table dep) and any statement that
//!   referenced the phantom column `c` are dropped. Evictions are
//!   classified: triggered by a whole-table dep
//!   ([`CacheCounters::table_evictions`]) vs by a core/column dep
//!   ([`CacheCounters::column_evictions`]).
//!
//! The epoch check itself is read-mostly too: when the incoming guard
//! matches the stored one — every warm re-check — it takes a shared lock
//! and returns without touching any shard.
//!
//! ## Unit memo (inter-query and data-analysis phases)
//!
//! Beyond per-statement intra entries, the cache memoizes whole
//! **detection units**: each `inter::RULES` rule and each per-table data
//! unit. A unit is keyed by `(kind, id)` and guarded by a caller-computed
//! **input digest** — a hash of exactly the inputs that unit reads
//! (join-edge set, relevant schema digests, per-column usage fields, data
//! profile digests). `IncrementalCache::unit_get` returns the stored
//! detections only when the digest matches, so an edit that leaves a
//! rule's inputs byte-identical replays its detections without running
//! it, and only the dirty units run. The memo
//! is flushed with the shards on a config-epoch change; schema and data
//! changes need no sweep because the digest comparison self-validates.
//!
//! Eviction is FIFO under the per-shard entry capacity: workload
//! re-checks touch keys in script order, so first-in is a reasonable
//! proxy for least-likely-to-recur, and FIFO keeps the hot path
//! allocation-free.
//!
//! [`SqlCheck::with_shared_cache`]: crate::SqlCheck::with_shared_cache

use crate::context::SchemaVersions;
use crate::hashutil::Prehashed;
use crate::report::Detection;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Default entry capacity: comfortably holds the unique texts of a
/// 100k-statement workload with room for churn.
pub const DEFAULT_CACHE_CAPACITY: usize = 65_536;

/// Default shard count: enough lock striping that a handful of
/// concurrent sessions rarely collide, small enough that per-shard
/// FIFO capacity stays meaningful.
pub const DEFAULT_CACHE_SHARDS: usize = 16;

/// Smallest per-shard FIFO capacity worth striping for; requested shard
/// counts are clamped so each shard holds at least this many entries.
const MIN_SHARD_CAPACITY: usize = 64;

/// Unit-memo kind tag for inter-query rule units (`id` = rule index).
pub(crate) const UNIT_INTER: u8 = 0;

/// Unit-memo kind tag for per-table data-analysis units (`id` = fnv1a of
/// the lowercased table name).
pub(crate) const UNIT_DATA: u8 = 1;

/// Units the memo holds before it is wholesale cleared — a backstop
/// against unbounded growth across many schemas; real workloads hold
/// `inter::RULES.len() + table count` entries.
const UNIT_MEMO_CAPACITY: usize = 16_384;

/// Cumulative counters of one [`IncrementalCache`], aggregated across
/// shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found a valid entry.
    pub hits: u64,
    /// Lookups that missed (and were then populated).
    pub misses: u64,
    /// Entries dropped — capacity evictions, config flushes, and
    /// schema-dependency invalidations.
    pub evictions: u64,
    /// Subset of `evictions` triggered by a **whole-table** dependency
    /// whose table digest changed.
    pub table_evictions: u64,
    /// Subset of `evictions` triggered by a **core or column**
    /// dependency — the column-granular tier; everything the old
    /// table-granularity guard would have dropped but this one kept is
    /// visible as the gap between dependents-of-a-changed-table and
    /// this counter.
    pub column_evictions: u64,
    /// Inter-query rule units replayed from the memo (input digest
    /// unchanged).
    pub inter_units_reused: u64,
    /// Inter-query rule units recomputed (memo miss or digest change).
    pub inter_units_recomputed: u64,
    /// Per-table data-analysis units replayed from the memo.
    pub data_units_reused: u64,
    /// Per-table data-analysis units recomputed.
    pub data_units_recomputed: u64,
}

/// The schema surface one cached intra entry depends on, at three
/// granularities. Names are lowercased; slices are sorted and deduped.
///
/// Safety contract: an entry must record a **whole-table** dep for any
/// table whose full definition its rules may read (DDL statements), a
/// **core** dep for every table whose presence / primary key / foreign
/// keys / checks may be consulted, and a **column** dep for every
/// `(table, column)` whose definition (type, NOT NULL, indexes) may be
/// consulted. Column deps are additionally guarded by their table's core
/// digest inside `IncrementalCache::ensure_epoch`, so a table that
/// appears or vanishes always invalidates its column dependents even if
/// the entry recorded no core dep for it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepSet {
    /// Whole-table dependencies: invalid when the table's full digest
    /// ([`SchemaVersions::tables`]) changes.
    pub tables: Box<[String]>,
    /// Core dependencies: invalid when the table's core digest
    /// ([`SchemaVersions::cores`]) changes — including the table
    /// appearing or vanishing.
    pub cores: Box<[String]>,
    /// Column dependencies: invalid when the `(table, column)` digest
    /// ([`SchemaVersions::columns`]) changes — or the table's core does.
    pub columns: Box<[(String, String)]>,
}

impl DepSet {
    /// True when the entry depends on no schema object at all.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty() && self.cores.is_empty() && self.columns.is_empty()
    }
}

/// One cached analysis result with its schema dependencies.
#[derive(Debug, Clone)]
struct CacheEntry {
    /// Canonical intra-query detections for the statement text.
    detections: Arc<Vec<Detection>>,
    /// Schema objects the statement's rules may have consulted.
    deps: Arc<DepSet>,
}

/// The lock-protected interior of one shard.
#[derive(Debug, Clone, Default)]
struct ShardState {
    map: HashMap<u128, CacheEntry, Prehashed>,
    /// Insertion order, for FIFO eviction.
    queue: VecDeque<u128>,
}

/// One lock stripe: its entries plus its share of the counters. The
/// counters are atomics so the hit path never needs the write lock.
#[derive(Debug, Default)]
struct Shard {
    state: RwLock<ShardState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    table_evictions: AtomicU64,
    column_evictions: AtomicU64,
}

/// The validity guard shared by all shards.
#[derive(Debug, Clone, Default)]
struct EpochState {
    /// Config epoch the stored entries are valid under; `None` until
    /// first use.
    config_epoch: Option<u64>,
    /// Schema versions the stored entries were analysed under.
    versions: SchemaVersions,
}

/// One memoized detection unit: the input digest it was computed under
/// plus its detections (pre-dedup, loci already final — inter/data units
/// never use statement loci, so replay is occurrence-independent).
#[derive(Debug, Clone)]
struct UnitEntry {
    digest: u64,
    detections: Arc<Vec<Detection>>,
}

/// The unit memo plus its counters.
#[derive(Debug, Default)]
struct UnitMemo {
    map: RwLock<HashMap<(u8, u64), UnitEntry>>,
    inter_reused: AtomicU64,
    inter_recomputed: AtomicU64,
    data_reused: AtomicU64,
    data_recomputed: AtomicU64,
}

/// Detection-result cache shared across [`check_workload`] calls — and,
/// behind an [`Arc`], across concurrent sessions: every method takes
/// `&self`, lookups only ever acquire shared locks, and writes contend
/// per shard.
///
/// [`check_workload`]: crate::SqlCheck::check_workload
#[derive(Debug)]
pub struct IncrementalCache {
    capacity: usize,
    shard_capacity: usize,
    shards: Box<[Shard]>,
    epoch: RwLock<EpochState>,
    units: UnitMemo,
}

impl Default for IncrementalCache {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl Clone for IncrementalCache {
    /// Deep copy: entries, FIFO order, counters, epoch, and unit memo.
    /// Takes each shard's read lock in turn, so cloning a cache that is
    /// concurrently written produces *some* consistent-per-shard
    /// snapshot.
    fn clone(&self) -> Self {
        let shards: Vec<Shard> = self
            .shards
            .iter()
            .map(|s| Shard {
                state: RwLock::new(read_lock(&s.state).clone()),
                hits: AtomicU64::new(s.hits.load(Ordering::Relaxed)),
                misses: AtomicU64::new(s.misses.load(Ordering::Relaxed)),
                evictions: AtomicU64::new(s.evictions.load(Ordering::Relaxed)),
                table_evictions: AtomicU64::new(s.table_evictions.load(Ordering::Relaxed)),
                column_evictions: AtomicU64::new(s.column_evictions.load(Ordering::Relaxed)),
            })
            .collect();
        IncrementalCache {
            capacity: self.capacity,
            shard_capacity: self.shard_capacity,
            shards: shards.into_boxed_slice(),
            epoch: RwLock::new(read_lock(&self.epoch).clone()),
            units: UnitMemo {
                map: RwLock::new(read_lock(&self.units.map).clone()),
                inter_reused: AtomicU64::new(self.units.inter_reused.load(Ordering::Relaxed)),
                inter_recomputed: AtomicU64::new(
                    self.units.inter_recomputed.load(Ordering::Relaxed),
                ),
                data_reused: AtomicU64::new(self.units.data_reused.load(Ordering::Relaxed)),
                data_recomputed: AtomicU64::new(
                    self.units.data_recomputed.load(Ordering::Relaxed),
                ),
            },
        }
    }
}

/// Acquire a read lock, recovering from poisoning (a panicked worker
/// cannot corrupt the map structurally — every mutation completes or the
/// entry simply stays absent).
fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// Acquire a write lock, recovering from poisoning.
fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// Keys whose digest differs between two version maps — changed,
/// appeared, or vanished.
fn changed_keys<'a, K: Ord + std::hash::Hash>(
    old: &'a std::collections::BTreeMap<K, u64>,
    new: &'a std::collections::BTreeMap<K, u64>,
) -> HashSet<&'a K> {
    old.iter()
        .filter(|(k, v)| new.get(*k) != Some(v))
        .map(|(k, _)| k)
        .chain(new.keys().filter(|k| !old.contains_key(*k)))
        .collect()
}

impl IncrementalCache {
    /// An empty cache bounded to `capacity` entries (min 1), striped over
    /// [`DEFAULT_CACHE_SHARDS`] shards.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_CACHE_SHARDS)
    }

    /// An empty cache striped over `shards` lock shards (min 1). The
    /// capacity is enforced per shard at `⌈capacity / shards⌉` entries,
    /// so the total never exceeds `capacity + shards − 1`. The shard
    /// count is clamped so every shard holds at least
    /// `MIN_SHARD_CAPACITY` entries — striping a tiny cache would turn
    /// its FIFO bound into per-key roulette for no concurrency win.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let n = shards.max(1).min(capacity.div_ceil(MIN_SHARD_CAPACITY).max(1));
        IncrementalCache {
            capacity,
            shard_capacity: capacity.div_ceil(n),
            shards: (0..n).map(|_| Shard::default()).collect(),
            epoch: RwLock::new(EpochState::default()),
            units: UnitMemo::default(),
        }
    }

    /// The shard a content hash lands on. The 64-bit fold is pushed
    /// through a splitmix64 finalizer before the remainder: the shard
    /// index must stay uniform even for structured hashes, and must not
    /// correlate with the bits [`Prehashed`] feeds the in-shard map
    /// (identical low bits would cluster every shard's map buckets).
    fn shard_of(&self, text_hash: u128) -> &Shard {
        let mut x = (text_hash >> 64) as u64 ^ (text_hash as u64);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        &self.shards[(x % self.shards.len() as u64) as usize]
    }

    /// Align the cache to the current validity guard. A config-epoch
    /// change flushes every shard and the unit memo (any rule may now
    /// decide differently for the same inputs). A schema change is
    /// handled per dependency: an entry is dropped only when one of its
    /// recorded deps' digests changed — a whole-table dep against the
    /// table digest, a core dep against the core digest, a column dep
    /// against the `(table, column)` digest *or* its table's core (so
    /// appearing/vanishing tables always invalidate their column
    /// dependents). Each drop is counted as an eviction and classified
    /// as table- or column-triggered. A content-identical guard — every
    /// warm re-check — takes a shared lock and touches nothing.
    pub(crate) fn ensure_epoch(&self, config_epoch: u64, versions: &SchemaVersions) {
        {
            let e = read_lock(&self.epoch);
            if e.config_epoch == Some(config_epoch) && e.versions == *versions {
                return;
            }
        }
        // Holding the epoch write lock across the shard sweep makes the
        // guard transition atomic with respect to other `ensure_epoch`
        // callers (concurrent sessions checking under the same config and
        // schema all take the shared-lock fast path above).
        let mut e = write_lock(&self.epoch);
        if e.config_epoch != Some(config_epoch) {
            for shard in self.shards.iter() {
                let mut st = write_lock(&shard.state);
                shard.evictions.fetch_add(st.map.len() as u64, Ordering::Relaxed);
                st.map.clear();
                st.queue.clear();
            }
            write_lock(&self.units.map).clear();
            e.config_epoch = Some(config_epoch);
            e.versions = versions.clone();
            return;
        }
        if e.versions == *versions {
            return; // another session already aligned the guard
        }
        let tables = changed_keys(&e.versions.tables, &versions.tables);
        let cores = changed_keys(&e.versions.cores, &versions.cores);
        let columns = changed_keys(&e.versions.columns, &versions.columns);
        for shard in self.shards.iter() {
            let mut st = write_lock(&shard.state);
            let before = st.map.len();
            let mut by_table = 0u64;
            let mut by_column = 0u64;
            st.map.retain(|_, entry| {
                if entry.deps.tables.iter().any(|t| tables.contains(t)) {
                    by_table += 1;
                    return false;
                }
                let col_hit = entry.deps.cores.iter().any(|t| cores.contains(t))
                    || entry.deps.columns.iter().any(|tc| {
                        columns.contains(tc) || cores.contains(&tc.0)
                    });
                if col_hit {
                    by_column += 1;
                    return false;
                }
                true
            });
            if st.map.len() < before {
                shard.evictions.fetch_add((before - st.map.len()) as u64, Ordering::Relaxed);
                shard.table_evictions.fetch_add(by_table, Ordering::Relaxed);
                shard.column_evictions.fetch_add(by_column, Ordering::Relaxed);
                // Purge invalidated keys from the FIFO queue too: a later
                // re-insert of the same text would otherwise enqueue a
                // duplicate key, and the stale front copy would make the
                // capacity loop evict the freshly re-inserted entry as if
                // it were the oldest.
                let ShardState { map, queue } = &mut *st;
                queue.retain(|k| map.contains_key(k));
            }
        }
        e.versions = versions.clone();
    }

    /// Look up the canonical detections for a statement text. Counts a
    /// hit or a miss. Takes the shard's **read** lock only — concurrent
    /// lookups (the warm-path bulk of every re-check) never serialize.
    pub(crate) fn get(&self, text_hash: u128) -> Option<Arc<Vec<Detection>>> {
        let shard = self.shard_of(text_hash);
        let st = read_lock(&shard.state);
        match st.map.get(&text_hash) {
            Some(e) => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.detections))
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert canonical detections for a statement text together with the
    /// schema objects they depend on, evicting FIFO past the shard
    /// capacity.
    pub(crate) fn insert(
        &self,
        text_hash: u128,
        detections: Arc<Vec<Detection>>,
        deps: Arc<DepSet>,
    ) {
        let shard = self.shard_of(text_hash);
        let mut st = write_lock(&shard.state);
        if st.map.insert(text_hash, CacheEntry { detections, deps }).is_none() {
            st.queue.push_back(text_hash);
        }
        while st.map.len() > self.shard_capacity {
            let Some(oldest) = st.queue.pop_front() else { break };
            if st.map.remove(&oldest).is_some() {
                shard.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Look up a memoized detection unit. Returns the stored detections
    /// only when the caller's input `digest` matches the one the unit was
    /// computed under; counts reuse vs recompute per unit kind either
    /// way (a `None` means the caller is about to recompute).
    pub(crate) fn unit_get(&self, kind: u8, id: u64, digest: u64) -> Option<Arc<Vec<Detection>>> {
        let hit = {
            let map = read_lock(&self.units.map);
            map.get(&(kind, id)).filter(|e| e.digest == digest).map(|e| Arc::clone(&e.detections))
        };
        let (reused, recomputed) = match kind {
            UNIT_INTER => (&self.units.inter_reused, &self.units.inter_recomputed),
            _ => (&self.units.data_reused, &self.units.data_recomputed),
        };
        if hit.is_some() { reused } else { recomputed }.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Store a detection unit's result under its input digest, replacing
    /// any previous entry for the same `(kind, id)`.
    pub(crate) fn unit_put(&self, kind: u8, id: u64, digest: u64, detections: Arc<Vec<Detection>>) {
        let mut map = write_lock(&self.units.map);
        if map.len() >= UNIT_MEMO_CAPACITY && !map.contains_key(&(kind, id)) {
            map.clear();
        }
        map.insert((kind, id), UnitEntry { digest, detections });
    }

    /// Cumulative counters, summed across shards.
    pub fn counters(&self) -> CacheCounters {
        let mut c = CacheCounters::default();
        for s in self.shards.iter() {
            c.hits += s.hits.load(Ordering::Relaxed);
            c.misses += s.misses.load(Ordering::Relaxed);
            c.evictions += s.evictions.load(Ordering::Relaxed);
            c.table_evictions += s.table_evictions.load(Ordering::Relaxed);
            c.column_evictions += s.column_evictions.load(Ordering::Relaxed);
        }
        c.inter_units_reused = self.units.inter_reused.load(Ordering::Relaxed);
        c.inter_units_recomputed = self.units.inter_recomputed.load(Ordering::Relaxed);
        c.data_units_reused = self.units.data_reused.load(Ordering::Relaxed);
        c.data_units_recomputed = self.units.data_recomputed.load(Ordering::Relaxed);
        c
    }

    /// Entries currently cached, summed across shards (intra entries
    /// only; the unit memo is bounded separately).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read_lock(&s.state).map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| read_lock(&s.state).map.is_empty())
    }

    /// Total entry capacity (enforced per shard, see
    /// [`IncrementalCache::with_shards`]).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lock shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{DetectionSource, Locus};
    use std::collections::BTreeMap;

    fn det() -> Detection {
        Detection {
            kind: crate::anti_pattern::AntiPatternKind::ColumnWildcard,
            locus: Locus::Statement { index: 0 },
            message: "m".into(),
            source: DetectionSource::IntraQuery,
            span: None,
        }
    }

    /// Whole-table deps only (the pre-column-granularity shape).
    fn deps(tables: &[&str]) -> Arc<DepSet> {
        Arc::new(DepSet {
            tables: tables.iter().map(|t| t.to_string()).collect(),
            ..DepSet::default()
        })
    }

    fn col_deps(cores: &[&str], columns: &[(&str, &str)]) -> Arc<DepSet> {
        Arc::new(DepSet {
            tables: Box::default(),
            cores: cores.iter().map(|t| t.to_string()).collect(),
            columns: columns.iter().map(|(t, c)| (t.to_string(), c.to_string())).collect(),
        })
    }

    /// Versions where table/core/column digests all mirror one per-table
    /// value — good enough for whole-table-dep tests.
    fn versions(pairs: &[(&str, u64)]) -> SchemaVersions {
        SchemaVersions {
            tables: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            cores: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            columns: BTreeMap::new(),
        }
    }

    fn empty() -> SchemaVersions {
        SchemaVersions::default()
    }

    #[test]
    fn hit_miss_counters() {
        let c = IncrementalCache::new(4);
        c.ensure_epoch(1, &empty());
        assert!(c.get(10).is_none());
        c.insert(10, Arc::new(vec![det()]), deps(&["t"]));
        assert!(c.get(10).is_some());
        let counters = c.counters();
        assert_eq!((counters.hits, counters.misses, counters.evictions), (1, 1, 0));
    }

    #[test]
    fn config_epoch_change_flushes_everything() {
        let c = IncrementalCache::new(4);
        c.ensure_epoch(1, &empty());
        c.insert(10, Arc::new(vec![]), deps(&["a"]));
        c.insert(11, Arc::new(vec![]), deps(&["b"]));
        c.unit_put(UNIT_INTER, 0, 99, Arc::new(vec![det()]));
        c.ensure_epoch(2, &empty());
        assert!(c.is_empty());
        assert_eq!(c.counters().evictions, 2);
        assert!(c.unit_get(UNIT_INTER, 0, 99).is_none(), "unit memo flushed with config");
        // Same epoch again: no further flush.
        c.insert(12, Arc::new(vec![]), deps(&[]));
        c.ensure_epoch(2, &empty());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn table_change_invalidates_only_dependents() {
        let c = IncrementalCache::new(8);
        c.ensure_epoch(1, &versions(&[("a", 100), ("b", 200)]));
        c.insert(1, Arc::new(vec![]), deps(&["a"]));
        c.insert(2, Arc::new(vec![]), deps(&["b"]));
        c.insert(3, Arc::new(vec![]), deps(&["a", "b"]));
        c.insert(4, Arc::new(vec![]), deps(&[]));
        // Table `a` changes; `b` does not.
        c.ensure_epoch(1, &versions(&[("a", 101), ("b", 200)]));
        assert!(c.get(1).is_none(), "entry on changed table dropped");
        assert!(c.get(3).is_none(), "entry touching the changed table dropped");
        assert!(c.get(2).is_some(), "entry on unchanged table survives");
        assert!(c.get(4).is_some(), "schema-independent entry survives");
        let counters = c.counters();
        assert_eq!(counters.evictions, 2);
        assert_eq!(counters.table_evictions, 2);
        assert_eq!(counters.column_evictions, 0);
    }

    #[test]
    fn column_dep_survives_sibling_column_change() {
        let c = IncrementalCache::new(8);
        let mut v = versions(&[("t", 1)]);
        v.columns.insert(("t".into(), "a".into()), 10);
        v.columns.insert(("t".into(), "b".into()), 20);
        c.ensure_epoch(1, &v);
        c.insert(1, Arc::new(vec![]), col_deps(&["t"], &[("t", "a")]));
        c.insert(2, Arc::new(vec![]), col_deps(&["t"], &[("t", "b")]));
        c.insert(3, Arc::new(vec![]), deps(&["t"])); // whole-table dep
        // Column `b` changes (e.g. its type, or an index now covers it);
        // the whole-table digest changes with it, the core does not.
        let mut v2 = v.clone();
        v2.tables.insert("t".into(), 2);
        v2.columns.insert(("t".into(), "b".into()), 21);
        c.ensure_epoch(1, &v2);
        assert!(c.get(1).is_some(), "dep on untouched column survives");
        assert!(c.get(2).is_none(), "dep on changed column dropped");
        assert!(c.get(3).is_none(), "whole-table dep dropped");
        let counters = c.counters();
        assert_eq!(counters.table_evictions, 1);
        assert_eq!(counters.column_evictions, 1);
    }

    #[test]
    fn add_column_keeps_entries_on_other_columns() {
        // The headline win: ALTER TABLE t ADD COLUMN changes the table
        // digest and creates a new column digest, but core + existing
        // columns are untouched — only whole-table deps and deps on the
        // (previously phantom) new column fall out.
        let c = IncrementalCache::new(8);
        let mut v = versions(&[("t", 1)]);
        v.columns.insert(("t".into(), "a".into()), 10);
        c.ensure_epoch(1, &v);
        c.insert(1, Arc::new(vec![]), col_deps(&["t"], &[("t", "a")]));
        c.insert(2, Arc::new(vec![]), col_deps(&["t"], &[("t", "c")])); // phantom column
        c.insert(3, Arc::new(vec![]), deps(&["t"]));
        let mut v2 = v.clone();
        v2.tables.insert("t".into(), 2);
        v2.columns.insert(("t".into(), "c".into()), 30); // the new column appears
        c.ensure_epoch(1, &v2);
        assert!(c.get(1).is_some(), "existing-column dep survives ADD COLUMN");
        assert!(c.get(2).is_none(), "phantom-column dep dropped when the column appears");
        assert!(c.get(3).is_none(), "whole-table dep dropped");
    }

    #[test]
    fn core_change_evicts_core_and_column_dependents() {
        // ADD CONSTRAINT PRIMARY KEY: core changes, column digests may
        // not — both core deps and column deps on that table must go
        // (primary-key reads hide behind any column lookup's table).
        let c = IncrementalCache::new(8);
        let mut v = versions(&[("t", 1), ("u", 5)]);
        v.columns.insert(("t".into(), "a".into()), 10);
        v.columns.insert(("u".into(), "x".into()), 50);
        c.ensure_epoch(1, &v);
        c.insert(1, Arc::new(vec![]), col_deps(&["t"], &[("t", "a")]));
        c.insert(2, Arc::new(vec![]), col_deps(&[], &[("t", "a")])); // column dep only
        c.insert(3, Arc::new(vec![]), col_deps(&["u"], &[("u", "x")]));
        let mut v2 = v.clone();
        v2.tables.insert("t".into(), 2);
        v2.cores.insert("t".into(), 9);
        c.ensure_epoch(1, &v2);
        assert!(c.get(1).is_none(), "core dep dropped on core change");
        assert!(c.get(2).is_none(), "column dep guarded by its table's core");
        assert!(c.get(3).is_some(), "other table untouched");
        assert_eq!(c.counters().column_evictions, 2);
    }

    #[test]
    fn appearing_and_vanishing_tables_invalidate_dependents() {
        let c = IncrementalCache::new(8);
        c.ensure_epoch(1, &versions(&[("a", 1)]));
        c.insert(1, Arc::new(vec![]), deps(&["a"]));
        c.insert(2, Arc::new(vec![]), deps(&["phantom"]));
        c.insert(3, Arc::new(vec![]), col_deps(&[], &[("phantom", "c")]));
        // `phantom` appears (a statement referenced it before it existed):
        // the suppression decision for entries 2 and 3 may now differ.
        c.ensure_epoch(1, &versions(&[("a", 1), ("phantom", 7)]));
        assert!(c.get(2).is_none(), "entry on newly created table dropped");
        assert!(c.get(3).is_none(), "column dep on newly created table dropped");
        assert!(c.get(1).is_some());
        // `a` vanishes.
        c.ensure_epoch(1, &versions(&[("phantom", 7)]));
        assert!(c.get(1).is_none(), "entry on dropped table dropped");
    }

    #[test]
    fn identical_versions_keep_cache_warm() {
        let c = IncrementalCache::new(8);
        let v = versions(&[("a", 1), ("b", 2)]);
        c.ensure_epoch(1, &v);
        c.insert(1, Arc::new(vec![det()]), deps(&["a", "b"]));
        // Re-attaching a content-identical catalog is a no-op.
        c.ensure_epoch(1, &v);
        assert_eq!(c.len(), 1);
        assert_eq!(c.counters().evictions, 0);
        assert!(c.get(1).is_some());
    }

    #[test]
    fn unit_memo_validates_digest() {
        let c = IncrementalCache::new(8);
        c.ensure_epoch(1, &empty());
        assert!(c.unit_get(UNIT_INTER, 2, 7).is_none(), "cold memo misses");
        c.unit_put(UNIT_INTER, 2, 7, Arc::new(vec![det()]));
        assert_eq!(c.unit_get(UNIT_INTER, 2, 7).map(|v| v.len()), Some(1));
        assert!(c.unit_get(UNIT_INTER, 2, 8).is_none(), "digest change misses");
        assert!(c.unit_get(UNIT_INTER, 3, 7).is_none(), "other unit misses");
        c.unit_put(UNIT_DATA, 11, 5, Arc::new(vec![]));
        assert!(c.unit_get(UNIT_DATA, 11, 5).is_some());
        let counters = c.counters();
        assert_eq!(counters.inter_units_reused, 1);
        assert_eq!(counters.inter_units_recomputed, 3);
        assert_eq!(counters.data_units_reused, 1);
        assert_eq!(counters.data_units_recomputed, 0);
    }

    #[test]
    fn unit_put_replaces_stale_digest() {
        let c = IncrementalCache::new(8);
        c.ensure_epoch(1, &empty());
        c.unit_put(UNIT_DATA, 1, 10, Arc::new(vec![det()]));
        c.unit_put(UNIT_DATA, 1, 11, Arc::new(vec![]));
        assert!(c.unit_get(UNIT_DATA, 1, 10).is_none(), "old digest gone");
        assert_eq!(c.unit_get(UNIT_DATA, 1, 11).map(|v| v.len()), Some(0));
    }

    #[test]
    fn reinsert_after_invalidation_does_not_poison_fifo_order() {
        // One shard so FIFO age is global and the scenario deterministic.
        let c = IncrementalCache::with_shards(2, 1);
        c.ensure_epoch(1, &versions(&[("a", 1)]));
        c.insert(10, Arc::new(vec![]), deps(&["a"]));
        c.insert(20, Arc::new(vec![]), deps(&[]));
        // `a` changes: entry 10 is invalidated (queue must drop its key).
        c.ensure_epoch(1, &versions(&[("a", 2)]));
        assert!(c.get(10).is_none());
        // Re-insert 10, then push past capacity with 30: the genuinely
        // oldest entry (20) must be the one evicted — not the freshly
        // re-inserted 10 via a stale duplicate queue key.
        c.insert(10, Arc::new(vec![det()]), deps(&["a"]));
        c.insert(30, Arc::new(vec![]), deps(&[]));
        assert_eq!(c.len(), 2);
        assert!(c.get(10).is_some(), "re-inserted entry survives");
        assert!(c.get(30).is_some());
        assert!(c.get(20).is_none(), "oldest entry evicted");
    }

    #[test]
    fn fifo_eviction_bounds_size() {
        let c = IncrementalCache::with_shards(2, 1);
        c.ensure_epoch(1, &empty());
        c.insert(1, Arc::new(vec![]), deps(&[]));
        c.insert(2, Arc::new(vec![]), deps(&[]));
        c.insert(3, Arc::new(vec![]), deps(&[]));
        assert_eq!(c.len(), 2);
        assert!(c.get(1).is_none(), "oldest entry evicted");
        assert!(c.get(3).is_some());
        assert_eq!(c.counters().evictions, 1);
    }

    #[test]
    fn shard_count_does_not_change_per_key_semantics() {
        // The same operation sequence against 1-shard and N-shard caches
        // (ample capacity) must produce identical hit/miss/eviction
        // totals and identical surviving keys.
        let run = |shards: usize| {
            let c = IncrementalCache::with_shards(1024, shards);
            c.ensure_epoch(7, &versions(&[("a", 1), ("b", 2)]));
            for k in 0..64u128 {
                assert!(c.get(k).is_none());
                let dep: &[&str] = if k % 3 == 0 { &["a"] } else { &["b"] };
                c.insert(k, Arc::new(vec![det()]), deps(dep));
            }
            for k in 0..64u128 {
                assert!(c.get(k).is_some());
            }
            // Invalidate table `a`: exactly the k % 3 == 0 entries drop.
            c.ensure_epoch(7, &versions(&[("a", 9), ("b", 2)]));
            for k in 0..64u128 {
                assert_eq!(c.get(k).is_some(), k % 3 != 0, "key {k}");
            }
            (c.counters(), c.len())
        };
        let (c1, l1) = run(1);
        for n in [2, 3, 16, 64] {
            assert_eq!(run(n), (c1, l1), "{n} shards must match 1 shard");
        }
    }

    #[test]
    fn concurrent_reads_and_writes_are_safe() {
        let c = IncrementalCache::new(4096);
        c.ensure_epoch(1, &empty());
        for k in 0..256u128 {
            c.insert(k, Arc::new(vec![det()]), deps(&["t"]));
        }
        std::thread::scope(|s| {
            for t in 0..4u128 {
                let c = &c;
                s.spawn(move || {
                    for round in 0..50u128 {
                        for k in 0..256u128 {
                            let _ = c.get(k);
                        }
                        c.insert(1000 + t * 100 + round, Arc::new(vec![]), deps(&[]));
                        c.unit_put(UNIT_INTER, t as u64, round as u64, Arc::new(vec![]));
                        let _ = c.unit_get(UNIT_INTER, t as u64, round as u64);
                    }
                });
            }
        });
        let counters = c.counters();
        assert_eq!(counters.hits, 4 * 50 * 256, "every pre-inserted key hits");
        assert_eq!(c.len(), 256 + 4 * 50);
    }
}
