//! Fingerprint-keyed incremental detection cache.
//!
//! Re-checking a workload after small edits should only pay for the
//! statements whose text actually changed — in the spirit of update-aware
//! incremental view maintenance (Berkholz et al.). The cache maps a
//! statement's literal-sensitive 128-bit content hash
//! (`UniqueText::hash`) to the intra-query detections of that
//! text, stored in **canonical form** (statement loci zeroed, spans
//! statement-relative) so a hit can be fanned out to any occurrence index
//! on any later call.
//!
//! ## Locking
//!
//! One `Mutex` guards the whole cache and every method takes it once, so
//! sessions sharing a cache ([`SqlCheck::with_shared_cache`]) see every
//! lookup, insert and guard transition whole.
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
//!   mismatch flushes every entry (a config switch can change any rule's
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
//! Only intra-query results are cached. The inter-query and data-analysis
//! units read the whole context, so they run on every check: keying them
//! by a digest of their inputs cost more than running them.
//!
//! Eviction is FIFO under the entry capacity: workload re-checks touch
//! keys in script order, so first-in is a reasonable proxy for
//! least-likely-to-recur, and FIFO keeps the hot path allocation-free.
//!
//! [`SqlCheck::with_shared_cache`]: crate::SqlCheck::with_shared_cache

use crate::context::SchemaVersions;
use crate::hashutil::Prehashed;
use crate::report::Detection;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default entry capacity: comfortably holds the unique texts of a
/// 100k-statement workload with room for churn.
pub const DEFAULT_CACHE_CAPACITY: usize = 65_536;

/// Cumulative counters of one [`IncrementalCache`].
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
    /// dependency — the column-granular tier.
    pub column_evictions: u64,
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

/// Everything behind the cache's one lock.
#[derive(Debug, Clone, Default)]
struct Inner {
    /// Config epoch the stored entries are valid under; `None` until
    /// first use.
    config_epoch: Option<u64>,
    /// Schema versions the stored entries were analysed under.
    versions: SchemaVersions,
    map: HashMap<u128, CacheEntry, Prehashed>,
    /// Insertion order, for FIFO eviction.
    queue: VecDeque<u128>,
    counters: CacheCounters,
}

/// Detection-result cache shared across [`check_workload`] calls — and,
/// behind an [`Arc`], across sessions: every method takes `&self` and
/// holds the one lock for its whole body.
///
/// [`check_workload`]: crate::SqlCheck::check_workload
#[derive(Debug)]
pub struct IncrementalCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl Default for IncrementalCache {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl Clone for IncrementalCache {
    /// Deep copy: entries, FIFO order, counters and epoch.
    fn clone(&self) -> Self {
        IncrementalCache {
            capacity: self.capacity,
            inner: Mutex::new(self.lock().clone()),
        }
    }
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
    /// An empty cache bounded to `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        IncrementalCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Take the lock, recovering from poisoning (a panicked holder cannot
    /// corrupt the maps structurally — every mutation completes or the
    /// entry simply stays absent).
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Align the cache to the current validity guard. A config-epoch
    /// change flushes every entry (any rule may now
    /// decide differently for the same inputs). A schema change is
    /// handled per dependency: an entry is dropped only when one of its
    /// recorded deps' digests changed — a whole-table dep against the
    /// table digest, a core dep against the core digest, a column dep
    /// against the `(table, column)` digest *or* its table's core (so
    /// appearing/vanishing tables always invalidate their column
    /// dependents). Each drop is counted as an eviction and classified
    /// as table- or column-triggered. A content-identical guard — every
    /// warm re-check — touches nothing.
    pub(crate) fn ensure_epoch(&self, config_epoch: u64, versions: &SchemaVersions) {
        let mut guard = self.lock();
        let inner = &mut *guard;
        if inner.config_epoch != Some(config_epoch) {
            inner.counters.evictions += inner.map.len() as u64;
            inner.map.clear();
            inner.queue.clear();
            inner.config_epoch = Some(config_epoch);
            inner.versions = versions.clone();
            return;
        }
        if inner.versions == *versions {
            return;
        }
        let tables = changed_keys(&inner.versions.tables, &versions.tables);
        let cores = changed_keys(&inner.versions.cores, &versions.cores);
        let columns = changed_keys(&inner.versions.columns, &versions.columns);
        let before = inner.map.len();
        let (mut by_table, mut by_column) = (0u64, 0u64);
        inner.map.retain(|_, entry| {
            if entry.deps.tables.iter().any(|t| tables.contains(t)) {
                by_table += 1;
                return false;
            }
            let col_hit = entry.deps.cores.iter().any(|t| cores.contains(t))
                || entry.deps.columns.iter().any(|tc| columns.contains(tc) || cores.contains(&tc.0));
            by_column += u64::from(col_hit);
            !col_hit
        });
        if inner.map.len() < before {
            inner.counters.evictions += (before - inner.map.len()) as u64;
            inner.counters.table_evictions += by_table;
            inner.counters.column_evictions += by_column;
            // Purge invalidated keys from the FIFO queue too: a later
            // re-insert of the same text would otherwise enqueue a
            // duplicate key, and the stale front copy would make the
            // capacity loop evict the freshly re-inserted entry as if it
            // were the oldest.
            let Inner { map, queue, .. } = inner;
            queue.retain(|k| map.contains_key(k));
        }
        inner.versions = versions.clone();
    }

    /// Look up the canonical detections for a statement text. Counts a
    /// hit or a miss.
    pub(crate) fn get(&self, text_hash: u128) -> Option<Arc<Vec<Detection>>> {
        let mut inner = self.lock();
        let hit = inner.map.get(&text_hash).map(|e| Arc::clone(&e.detections));
        match hit {
            Some(_) => inner.counters.hits += 1,
            None => inner.counters.misses += 1,
        }
        hit
    }

    /// Insert canonical detections for a statement text together with the
    /// schema objects they depend on, evicting FIFO past the capacity.
    pub(crate) fn insert(
        &self,
        text_hash: u128,
        detections: Arc<Vec<Detection>>,
        deps: Arc<DepSet>,
    ) {
        let mut inner = self.lock();
        if inner.map.insert(text_hash, CacheEntry { detections, deps }).is_none() {
            inner.queue.push_back(text_hash);
        }
        while inner.map.len() > self.capacity {
            let Some(oldest) = inner.queue.pop_front() else { break };
            if inner.map.remove(&oldest).is_some() {
                inner.counters.evictions += 1;
            }
        }
    }

    /// Cumulative counters.
    pub fn counters(&self) -> CacheCounters {
        self.lock().counters
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lock().map.is_empty()
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
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
        c.ensure_epoch(2, &empty());
        assert!(c.is_empty());
        assert_eq!(c.counters().evictions, 2);
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
    fn reinsert_after_invalidation_does_not_poison_fifo_order() {
        let c = IncrementalCache::new(2);
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
        let c = IncrementalCache::new(2);
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
    fn capacity_is_exact() {
        let c = IncrementalCache::new(1024);
        c.ensure_epoch(1, &empty());
        for k in 0..1024u128 {
            c.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), Arc::new(vec![]), deps(&[]));
        }
        assert_eq!(c.len(), 1024, "every distinct text fits");
        assert_eq!(c.counters().evictions, 0);
        c.insert(u128::MAX, Arc::new(vec![]), deps(&[]));
        assert_eq!(c.len(), 1024);
        assert_eq!(c.counters().evictions, 1, "one past capacity evicts one");
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
                    }
                });
            }
        });
        let counters = c.counters();
        assert_eq!(counters.hits, 4 * 50 * 256, "every pre-inserted key hits");
        assert_eq!(c.len(), 256 + 4 * 50);
    }
}
