//! Block cache and table cache.
//!
//! An LRU cache of decoded data blocks keyed by `(file number, offset)`,
//! bounded by a byte budget. The paper assumes "the cached indexes and Bloom
//! filters of active SSTables" avoid most slice-read I/O (§III-B3); in this
//! engine, index and filter blocks are pinned per open table (charged
//! against the same byte budget) while data blocks flow through the cache.
//! Hit/miss counters feed Fig 13.
//!
//! The cache is split into a power-of-two number of independently locked
//! shards keyed by a hash of the block key, so concurrent readers on
//! different shards never contend. Lookups hand out `Arc<Block>` handles:
//! block bytes are decoded (restart array parsed, CRC checked) exactly once
//! and never copied per read — values are returned as [`bytes::Bytes`]
//! slices pinning the block's backing buffer.
//!
//! [`TableCache`] bounds the set of open SSTable handles the same way the
//! old per-`Db` open-table map did, but lives in the cache layer so the
//! pinned index/filter bytes of every open table are charged to the block
//! cache budget instead of being invisible free memory (the old
//! double-accounting bug: table handles held decoded index blocks outside
//! the cache's charge).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ldc_obs::lockcheck::Mutex;

use crate::block::Block;
use crate::error::Result;
use crate::table::Table;

/// Cache key: file number + block offset within the file.
pub type BlockKey = (u64, u64);

/// Default shard count (power of two). Small enough that per-shard LRU
/// stays meaningful at test capacities, large enough that eight reader
/// threads rarely collide on one lock.
pub const DEFAULT_SHARD_COUNT: usize = 8;

/// Mixes a block key into a shard index. SplitMix64 finalizer: cheap,
/// deterministic across processes (no `RandomState`), and good avalanche
/// so consecutive offsets in one file spread across shards.
fn shard_hash(key: BlockKey) -> u64 {
    let mut z = key.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ key.1;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct CacheEntry {
    block: Arc<Block>,
    tick: u64,
}

struct ShardInner {
    map: HashMap<BlockKey, CacheEntry>,
    lru: BTreeMap<u64, BlockKey>,
    used_bytes: usize,
    /// Bytes charged by open tables for their pinned index/filter blocks.
    /// Never evicted here — released when the table handle is dropped.
    pinned_bytes: usize,
    next_tick: u64,
}

struct Shard {
    inner: Mutex<ShardInner>,
}

impl Shard {
    fn new() -> Self {
        Self {
            inner: Mutex::new(
                "lsm/cache::inner",
                ShardInner {
                    map: HashMap::new(),
                    lru: BTreeMap::new(),
                    used_bytes: 0,
                    pinned_bytes: 0,
                    next_tick: 0,
                },
            ),
        }
    }
}

/// Byte-bounded sharded LRU cache of data blocks.
pub struct BlockCache {
    capacity_bytes: usize,
    /// Per-shard byte budget (`capacity_bytes / shards.len()`).
    shard_capacity: usize,
    shards: Vec<Shard>,
    /// `shards.len() - 1`; shard index is `hash & mask`.
    mask: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Point-in-time block-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to read the block from the device (Fig 13's
    /// y-axis).
    pub misses: u64,
    /// Blocks dropped under capacity pressure (`evict_file` drops are not
    /// counted — those blocks were deleted, not squeezed out).
    pub evictions: u64,
}

impl CacheCounters {
    /// Hits as a fraction of all lookups (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl BlockCache {
    /// Creates a cache holding at most `capacity_bytes` of block data,
    /// split across [`DEFAULT_SHARD_COUNT`] shards.
    /// A capacity of 0 disables caching (every lookup is a miss).
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_shards(capacity_bytes, DEFAULT_SHARD_COUNT)
    }

    /// Creates a cache with an explicit shard count (rounded up to a power
    /// of two, minimum 1).
    pub fn with_shards(capacity_bytes: usize, shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            capacity_bytes,
            shard_capacity: capacity_bytes / n,
            shards: (0..n).map(|_| Shard::new()).collect(),
            mask: (n - 1) as u64,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: BlockKey) -> &Shard {
        // ldc-lint: allow(panic_safety) — index is masked to the power-of-two shard count
        &self.shards[(shard_hash(key) & self.mask) as usize]
    }

    /// Fetches the block, calling `load` on a miss and caching the result.
    /// The returned handle shares the decoded block — no bytes are copied.
    pub fn get_or_load(
        &self,
        key: BlockKey,
        load: impl FnOnce() -> Result<Block>,
    ) -> Result<Arc<Block>> {
        if self.capacity_bytes > 0 {
            let shard = self.shard(key);
            let mut inner = shard.inner.lock();
            let tick = inner.next_tick;
            if let Some(entry) = inner.map.get_mut(&key) {
                let old_tick = entry.tick;
                entry.tick = tick;
                let block = Arc::clone(&entry.block);
                inner.next_tick += 1;
                inner.lru.remove(&old_tick);
                inner.lru.insert(tick, key);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(block);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Load outside the shard lock: a slow device read must not block
        // hits on sibling blocks. Two racing loaders may both read the
        // block; last insert wins, both handles stay valid.
        let block = Arc::new(load()?);
        if self.capacity_bytes > 0 {
            let shard = self.shard(key);
            let mut inner = shard.inner.lock();
            let tick = inner.next_tick;
            inner.next_tick += 1;
            if let Some(prev) = inner.map.remove(&key) {
                inner.lru.remove(&prev.tick);
                inner.used_bytes -= prev.block.size();
            }
            inner.used_bytes += block.size();
            inner.map.insert(
                key,
                CacheEntry {
                    block: Arc::clone(&block),
                    tick,
                },
            );
            inner.lru.insert(tick, key);
            while inner.used_bytes + inner.pinned_bytes > self.shard_capacity && inner.map.len() > 1
            {
                let Some((&oldest_tick, &oldest_key)) = inner.lru.iter().next() else {
                    break;
                };
                inner.lru.remove(&oldest_tick);
                if let Some(evicted) = inner.map.remove(&oldest_key) {
                    inner.used_bytes -= evicted.block.size();
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(block)
    }

    /// Drops all blocks belonging to `file_number` (called on file delete).
    pub fn evict_file(&self, file_number: u64) {
        for shard in &self.shards {
            let mut inner = shard.inner.lock();
            let mut doomed: Vec<(u64, BlockKey)> = inner
                .map
                .iter()
                .filter(|((f, _), _)| *f == file_number)
                .map(|(k, e)| (e.tick, *k))
                .collect();
            doomed.sort_unstable();
            for (tick, key) in doomed {
                inner.lru.remove(&tick);
                if let Some(e) = inner.map.remove(&key) {
                    inner.used_bytes -= e.block.size();
                }
            }
        }
    }

    /// Charges `bytes` of pinned (unevictable) data against the budget —
    /// the decoded index block and Bloom filter of an open table. Pinned
    /// bytes squeeze data blocks out of their shard but are never evicted
    /// themselves; release with [`BlockCache::release_pinned`].
    pub fn charge_pinned(&self, file_number: u64, bytes: usize) {
        if self.capacity_bytes == 0 {
            return;
        }
        let shard = self.shard((file_number, u64::MAX));
        let mut inner = shard.inner.lock();
        inner.pinned_bytes += bytes;
        while inner.used_bytes + inner.pinned_bytes > self.shard_capacity && inner.map.len() > 1 {
            let Some((&oldest_tick, &oldest_key)) = inner.lru.iter().next() else {
                break;
            };
            inner.lru.remove(&oldest_tick);
            if let Some(evicted) = inner.map.remove(&oldest_key) {
                inner.used_bytes -= evicted.block.size();
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Releases a pinned-byte charge made by [`BlockCache::charge_pinned`].
    pub fn release_pinned(&self, file_number: u64, bytes: usize) {
        if self.capacity_bytes == 0 {
            return;
        }
        let shard = self.shard((file_number, u64::MAX));
        let mut inner = shard.inner.lock();
        inner.pinned_bytes = inner.pinned_bytes.saturating_sub(bytes);
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far — each miss is one data-block read from the
    /// device (Fig 13's y-axis).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Blocks evicted under capacity pressure so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// All counters as one snapshot.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
        }
    }

    /// Bytes currently cached (data blocks plus pinned index/filter
    /// charges), summed across shards.
    pub fn used_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let inner = s.inner.lock();
                inner.used_bytes + inner.pinned_bytes
            })
            .sum()
    }

    /// Pinned (index/filter) bytes currently charged, summed across shards.
    pub fn pinned_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.inner.lock().pinned_bytes)
            .sum()
    }
}

struct TableEntry {
    table: Arc<Table>,
    /// Last touch; ticks are unique, so the smallest is the LRU entry.
    tick: u64,
}

struct TableCacheInner {
    entries: HashMap<u64, TableEntry>,
    next_tick: u64,
}

impl TableCacheInner {
    /// Returns the handle for `file_number` and marks it most recently
    /// used, if resident.
    fn touch(&mut self, file_number: u64) -> Option<Arc<Table>> {
        let tick = self.next_tick;
        let entry = self.entries.get_mut(&file_number)?;
        entry.tick = tick;
        self.next_tick += 1;
        Some(Arc::clone(&entry.table))
    }
}

/// Entry-bounded LRU cache of open SSTable handles. Replaces the old
/// per-`Db` `Mutex<HashMap<u64, (Arc<Table>, u64)>>` open-table map; each
/// resident table's decoded index block and Bloom filter are charged to the
/// shared [`BlockCache`] budget as pinned bytes, so "open table" memory and
/// "cached block" memory come out of one pool.
///
/// Recency is one tick per entry: a hit (every table probe of every read)
/// only bumps it, and the least recently used entry is found by a scan
/// that runs only when an open pushes the cache over capacity.
pub struct TableCache {
    capacity: usize,
    block_cache: Arc<BlockCache>,
    map: Mutex<TableCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TableCache {
    /// Creates a table cache bounded to `capacity` open handles (minimum
    /// 1), charging pinned bytes to `block_cache`.
    pub fn new(capacity: usize, block_cache: Arc<BlockCache>) -> Self {
        Self {
            capacity: capacity.max(1),
            block_cache,
            map: Mutex::new(
                "lsm/cache::map",
                TableCacheInner {
                    entries: HashMap::new(),
                    next_tick: 0,
                },
            ),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Fetches the open handle for `file_number`, calling `open` on a miss.
    pub fn get_or_open(
        &self,
        file_number: u64,
        open: impl FnOnce() -> Result<Arc<Table>>,
    ) -> Result<Arc<Table>> {
        let hit = {
            let mut inner = self.map.lock();
            inner.touch(file_number)
        };
        if let Some(table) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(table);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Open outside the map lock (footer/index/filter reads hit the
        // device). Two racing opens resolve to whichever inserted first.
        let table = open()?;
        let mut inner = self.map.lock();
        if let Some(existing) = inner.touch(file_number) {
            return Ok(existing);
        }
        let tick = inner.next_tick;
        inner.next_tick += 1;
        self.block_cache
            .charge_pinned(file_number, table.pinned_bytes());
        inner.entries.insert(
            file_number,
            TableEntry {
                table: Arc::clone(&table),
                tick,
            },
        );
        while inner.entries.len() > self.capacity {
            let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(&file, _)| file)
            else {
                break;
            };
            if let Some(e) = inner.entries.remove(&victim) {
                self.block_cache
                    .release_pinned(victim, e.table.pinned_bytes());
            }
        }
        Ok(table)
    }

    /// Drops the handle for a deleted file (its blocks are evicted by the
    /// caller via [`BlockCache::evict_file`]).
    pub fn remove(&self, file_number: u64) {
        let mut inner = self.map.lock();
        if let Some(e) = inner.entries.remove(&file_number) {
            self.block_cache
                .release_pinned(file_number, e.table.pinned_bytes());
        }
    }

    /// Open handles currently resident.
    pub fn len(&self) -> usize {
        self.map.lock().entries.len()
    }

    /// True when no handles are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Table-handle cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Table-handle cache misses (each one re-read footer+index+filter).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("shards", &self.shards.len())
            .field("counters", &self.counters())
            .finish()
    }
}

impl std::fmt::Debug for TableCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockBuilder;
    use crate::types::{encode_internal_key, ValueType};
    use bytes::Bytes;

    fn make_block(tag: u8, bytes: usize) -> Block {
        let mut b = BlockBuilder::new(16);
        let key = encode_internal_key(&[tag], 1, ValueType::Value);
        b.add(&key, &vec![tag; bytes]);
        Block::new(Bytes::from(b.finish())).unwrap()
    }

    #[test]
    fn caches_loaded_blocks() {
        let cache = BlockCache::new(1 << 20);
        let mut loads = 0;
        for _ in 0..3 {
            cache
                .get_or_load((1, 0), || {
                    loads += 1;
                    Ok(make_block(1, 100))
                })
                .unwrap();
        }
        assert_eq!(loads, 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
        assert!(cache.used_bytes() > 0);
    }

    #[test]
    fn zero_capacity_always_misses() {
        let cache = BlockCache::new(0);
        for _ in 0..3 {
            cache.get_or_load((1, 0), || Ok(make_block(1, 10))).unwrap();
        }
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn evicts_least_recently_used_under_pressure() {
        // Single shard so the LRU order is global; each block ~1000 bytes,
        // capacity for ~3.
        let cache = BlockCache::with_shards(3200, 1);
        for i in 0..3u8 {
            cache
                .get_or_load((i as u64, 0), || Ok(make_block(i, 1000)))
                .unwrap();
        }
        // Touch block 0 so block 1 is the LRU.
        cache.get_or_load((0, 0), || panic!("should hit")).unwrap();
        // Insert block 3, evicting block 1.
        cache
            .get_or_load((3, 0), || Ok(make_block(3, 1000)))
            .unwrap();
        let miss_before = cache.misses();
        cache.get_or_load((0, 0), || panic!("0 evicted")).unwrap();
        assert_eq!(cache.misses(), miss_before);
        cache
            .get_or_load((1, 0), || Ok(make_block(1, 1000)))
            .unwrap();
        assert_eq!(
            cache.misses(),
            miss_before + 1,
            "1 should have been evicted"
        );
        let counters = cache.counters();
        assert!(
            counters.evictions >= 1,
            "capacity evictions must be counted"
        );
        assert_eq!(counters.hits, cache.hits());
        assert_eq!(counters.misses, cache.misses());
        assert!(counters.hit_rate() > 0.0 && counters.hit_rate() < 1.0);
    }

    #[test]
    fn evict_file_is_not_a_capacity_eviction() {
        let cache = BlockCache::new(1 << 20);
        cache.get_or_load((7, 0), || Ok(make_block(1, 10))).unwrap();
        cache.evict_file(7);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
    }

    #[test]
    fn evict_file_drops_all_its_blocks() {
        let cache = BlockCache::new(1 << 20);
        cache.get_or_load((7, 0), || Ok(make_block(1, 10))).unwrap();
        cache
            .get_or_load((7, 100), || Ok(make_block(2, 10)))
            .unwrap();
        cache.get_or_load((8, 0), || Ok(make_block(3, 10))).unwrap();
        cache.evict_file(7);
        let misses = cache.misses();
        cache.get_or_load((8, 0), || panic!("should hit")).unwrap();
        cache.get_or_load((7, 0), || Ok(make_block(1, 10))).unwrap();
        assert_eq!(cache.misses(), misses + 1);
    }

    #[test]
    fn shards_are_a_power_of_two_and_spread_keys() {
        let cache = BlockCache::with_shards(1 << 20, 6);
        assert_eq!(cache.shard_count(), 8);
        // Blocks from many files must not all land in one shard.
        let mut seen = std::collections::BTreeSet::new();
        for f in 0..64u64 {
            seen.insert(shard_hash((f, 0)) & cache.mask);
        }
        assert!(seen.len() > 1, "hash must spread files across shards");
        // Same key always maps to the same shard (stability).
        assert_eq!(shard_hash((3, 7)), shard_hash((3, 7)));
    }

    #[test]
    fn zero_copy_handles_share_one_decode() {
        let cache = BlockCache::new(1 << 20);
        let a = cache.get_or_load((1, 0), || Ok(make_block(1, 64))).unwrap();
        let b = cache.get_or_load((1, 0), || panic!("hit")).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hits must return the same Arc<Block>");
    }

    #[test]
    fn pinned_bytes_squeeze_data_blocks() {
        let cache = BlockCache::with_shards(2048, 1);
        cache
            .get_or_load((1, 0), || Ok(make_block(1, 900)))
            .unwrap();
        cache
            .get_or_load((2, 0), || Ok(make_block(2, 900)))
            .unwrap();
        assert_eq!(cache.evictions(), 0);
        // Pinning a large index charge forces data blocks out (down to the
        // keep-one floor).
        cache.charge_pinned(9, 1800);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.pinned_bytes(), 1800);
        cache.release_pinned(9, 1800);
        assert_eq!(cache.pinned_bytes(), 0);
    }

    #[test]
    fn table_cache_evicts_least_recently_touched() {
        use crate::table::TableBuilder;
        use ldc_ssd::{IoClass, MemStorage, SsdConfig, SsdDevice, StorageBackend};

        let storage = MemStorage::new(SsdDevice::new(SsdConfig::tiny_for_tests()));
        let block_cache = Arc::new(BlockCache::new(1 << 20));
        for file in 1..=4u64 {
            let mut b = TableBuilder::new(512, 4, 10);
            b.add(&encode_internal_key(b"k", file, ValueType::Value), b"v");
            storage
                .write_file(
                    &format!("{file}.sst"),
                    &b.finish().bytes,
                    IoClass::FlushWrite,
                )
                .unwrap();
        }
        let tables = TableCache::new(3, Arc::clone(&block_cache));
        let open = |file: u64| {
            let storage: Arc<dyn StorageBackend> = storage.clone();
            let block_cache = Arc::clone(&block_cache);
            move || Table::open(storage, format!("{file}.sst"), file, block_cache)
        };
        for file in 1..=3 {
            tables.get_or_open(file, open(file)).unwrap();
        }
        // Touch 1 then 2: insertion order alone would evict 1, touch
        // order makes 3 the least recently used.
        tables.get_or_open(1, || panic!("1 is resident")).unwrap();
        tables.get_or_open(2, || panic!("2 is resident")).unwrap();
        tables.get_or_open(4, open(4)).unwrap();
        assert_eq!(tables.len(), 3);
        assert_eq!((tables.hits(), tables.misses()), (2, 4));
        for file in [1, 2, 4] {
            tables
                .get_or_open(file, || panic!("{file} was evicted"))
                .unwrap();
        }
        tables.get_or_open(3, open(3)).unwrap();
        assert_eq!(tables.misses(), 5, "3 must have been the victim");
        // Every resident handle is charged once; evicted ones released.
        let pinned: usize = [2, 3, 4]
            .map(|f| {
                tables
                    .get_or_open(f, || panic!("{f} resident"))
                    .unwrap()
                    .pinned_bytes()
            })
            .iter()
            .sum();
        assert_eq!(block_cache.pinned_bytes(), pinned);
    }
}
