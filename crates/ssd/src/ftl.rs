//! Page-mapping flash translation layer with greedy garbage collection.
//!
//! The FTL is the part of the device model that produces the two SSD
//! behaviours the paper's argument rests on:
//!
//! * **device-level write amplification** — overwrites invalidate flash
//!   pages; reclaiming them forces relocation of still-valid neighbours, so
//!   NAND writes exceed host writes, and
//! * **wear** — every reclaim erases a block, consuming one of its limited
//!   program/erase cycles.
//!
//! The model is a standard page-mapped FTL: writes append to an open block,
//! a block is erased only when garbage collection selects it (greedy victim
//! selection: fewest valid pages), and TRIM drops mappings so deleted files
//! stop contributing to relocation traffic.

use crate::config::SsdConfig;

const UNMAPPED: u64 = u64::MAX;

/// Entries per lazily allocated [`PageMap`] chunk (32 KiB of `u64`s).
const CHUNK_ENTRIES: u64 = 4096;

/// A `u64` map over page numbers `0..len`, every entry [`UNMAPPED`] until
/// written. Storage comes in chunks of [`CHUNK_ENTRIES`] allocated by the
/// first write that lands in them, so a map costs memory in proportion to
/// the pages the device has seen rather than to its capacity (the two maps
/// of the default 8 GiB device would fill ~34 MiB on every store open).
#[derive(Debug)]
struct PageMap {
    len: u64,
    chunks: Vec<Option<Box<[u64]>>>,
}

impl PageMap {
    fn new(len: u64) -> Self {
        Self {
            len,
            chunks: (0..len.div_ceil(CHUNK_ENTRIES)).map(|_| None).collect(),
        }
    }

    fn get(&self, page: u64) -> u64 {
        match &self.chunks[(page / CHUNK_ENTRIES) as usize] {
            Some(chunk) => chunk[(page % CHUNK_ENTRIES) as usize],
            None => UNMAPPED,
        }
    }

    fn set(&mut self, page: u64, value: u64) {
        let chunk = self.chunks[(page / CHUNK_ENTRIES) as usize]
            .get_or_insert_with(|| vec![UNMAPPED; CHUNK_ENTRIES as usize].into_boxed_slice());
        chunk[(page % CHUNK_ENTRIES) as usize] = value;
    }

    /// Chunks allocated so far.
    #[cfg(test)]
    fn allocated_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count()
    }
}

/// Block lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockState {
    /// Erased and on the free list.
    Free,
    /// Currently receiving writes.
    Open,
    /// Fully programmed; eligible as a GC victim.
    Full,
    /// Being garbage-collected right now (excluded from victim selection).
    Collecting,
}

#[derive(Debug, Clone)]
struct BlockInfo {
    state: BlockState,
    /// Number of pages in this block holding live (mapped) data.
    valid: u64,
    /// Next page index to program within the block.
    write_ptr: u64,
    /// Program/erase cycles consumed so far.
    erase_count: u64,
}

/// Counters exported by the FTL.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Pages written on behalf of the host.
    pub host_pages_written: u64,
    /// Pages relocated internally by garbage collection.
    pub gc_pages_relocated: u64,
    /// Erase operations performed.
    pub erases: u64,
    /// TRIM'd (explicitly invalidated) pages.
    pub pages_trimmed: u64,
}

impl FtlStats {
    /// Device-level write amplification factor: NAND writes / host writes.
    pub fn write_amplification(&self) -> f64 {
        if self.host_pages_written == 0 {
            1.0
        } else {
            (self.host_pages_written + self.gc_pages_relocated) as f64
                / self.host_pages_written as f64
        }
    }
}

/// Result of a host page write: how many extra pages GC had to relocate.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteOutcome {
    /// Pages moved by garbage collection as a consequence of this write.
    pub relocated_pages: u64,
    /// Blocks erased as a consequence of this write.
    pub erased_blocks: u64,
}

/// Page-mapping flash translation layer.
#[derive(Debug)]
pub struct Ftl {
    pages_per_block: u64,
    gc_threshold: usize,
    /// logical page -> physical page (`UNMAPPED` if absent).
    page_map: PageMap,
    /// physical page -> logical page (`UNMAPPED` if invalid).
    rev_map: PageMap,
    blocks: Vec<BlockInfo>,
    free_blocks: Vec<u64>,
    open_block: u64,
    stats: FtlStats,
}

impl Ftl {
    /// Builds an FTL with the geometry described by `cfg`.
    pub fn new(cfg: &SsdConfig) -> Self {
        let physical_blocks = cfg.physical_blocks();
        let blocks = vec![
            BlockInfo {
                state: BlockState::Free,
                valid: 0,
                write_ptr: 0,
                erase_count: 0,
            };
            physical_blocks as usize
        ];
        // Free list in descending order so block 0 opens first (pop from end).
        let mut free_blocks: Vec<u64> = (0..physical_blocks).rev().collect();
        let open_block = free_blocks.pop().expect("at least one block");
        let mut ftl = Self {
            pages_per_block: cfg.pages_per_block,
            gc_threshold: cfg.gc_free_block_threshold.max(1),
            page_map: PageMap::new(cfg.logical_pages()),
            rev_map: PageMap::new(physical_blocks * cfg.pages_per_block),
            blocks,
            free_blocks,
            open_block,
            stats: FtlStats::default(),
        };
        ftl.blocks[open_block as usize].state = BlockState::Open;
        ftl
    }

    /// Number of logical pages the FTL can map.
    pub fn logical_pages(&self) -> u64 {
        self.page_map.len
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Number of logical pages currently mapped (live data).
    pub fn live_pages(&self) -> u64 {
        self.blocks.iter().map(|b| b.valid).sum()
    }

    /// Mean erase count over all blocks.
    pub fn mean_erase_count(&self) -> f64 {
        let total: u64 = self.blocks.iter().map(|b| b.erase_count).sum();
        total as f64 / self.blocks.len() as f64
    }

    /// Maximum erase count over all blocks.
    pub fn max_erase_count(&self) -> u64 {
        self.blocks.iter().map(|b| b.erase_count).max().unwrap_or(0)
    }

    /// Writes (or overwrites) logical page `lpn`, running GC as needed.
    ///
    /// Returns the relocation/erase work triggered, so the device can charge
    /// the corresponding virtual time.
    pub fn write_page(&mut self, lpn: u64) -> WriteOutcome {
        debug_assert!(lpn < self.page_map.len, "lpn out of range");
        let mut outcome = WriteOutcome::default();
        self.invalidate(lpn);
        self.program(lpn, &mut outcome);
        self.stats.host_pages_written += 1;
        self.maybe_gc(&mut outcome);
        outcome
    }

    /// Drops the mapping for `lpn` (TRIM); reclaiming is left to future GC.
    pub fn trim_page(&mut self, lpn: u64) {
        if self.invalidate(lpn) {
            self.stats.pages_trimmed += 1;
        }
    }

    fn invalidate(&mut self, lpn: u64) -> bool {
        let ppn = self.page_map.get(lpn);
        if ppn == UNMAPPED {
            return false;
        }
        self.page_map.set(lpn, UNMAPPED);
        self.rev_map.set(ppn, UNMAPPED);
        let block = (ppn / self.pages_per_block) as usize;
        debug_assert!(self.blocks[block].valid > 0);
        self.blocks[block].valid -= 1;
        true
    }

    /// Programs `lpn` into the open block, rotating to a fresh block when the
    /// open one fills up.
    fn program(&mut self, lpn: u64, outcome: &mut WriteOutcome) {
        let block_id = self.open_block;
        let block = &mut self.blocks[block_id as usize];
        debug_assert_eq!(block.state, BlockState::Open);
        debug_assert!(block.write_ptr < self.pages_per_block);
        let ppn = block_id * self.pages_per_block + block.write_ptr;
        block.write_ptr += 1;
        block.valid += 1;
        self.page_map.set(lpn, ppn);
        self.rev_map.set(ppn, lpn);
        if block.write_ptr == self.pages_per_block {
            block.state = BlockState::Full;
            self.rotate_open_block(outcome);
        }
    }

    fn rotate_open_block(&mut self, outcome: &mut WriteOutcome) {
        if self.free_blocks.is_empty() {
            // The spare block guaranteed by `SsdConfig::physical_blocks`
            // means this can only be reached if GC cannot reclaim anything,
            // i.e. the host overcommitted the logical space. Reclaim
            // aggressively before giving up.
            self.collect_garbage(outcome);
        }
        let next = self
            .free_blocks
            .pop()
            .expect("FTL out of blocks: logical space overcommitted");
        self.blocks[next as usize].state = BlockState::Open;
        self.open_block = next;
    }

    fn maybe_gc(&mut self, outcome: &mut WriteOutcome) {
        while self.free_blocks.len() < self.gc_threshold {
            if !self.collect_garbage(outcome) {
                break;
            }
        }
    }

    /// One round of greedy GC. Returns false if no progress is possible.
    fn collect_garbage(&mut self, outcome: &mut WriteOutcome) -> bool {
        let victim = match self.pick_victim() {
            Some(v) => v,
            None => return false,
        };
        // Exclude the victim from nested victim selection: relocation below
        // can fill the open block and recurse into another GC round.
        self.blocks[victim as usize].state = BlockState::Collecting;
        // Relocate live pages out of the victim.
        let base = victim * self.pages_per_block;
        for offset in 0..self.pages_per_block {
            let ppn = base + offset;
            let lpn = self.rev_map.get(ppn);
            if lpn != UNMAPPED {
                // Invalidate in place, then program elsewhere.
                self.rev_map.set(ppn, UNMAPPED);
                self.blocks[victim as usize].valid -= 1;
                self.page_map.set(lpn, UNMAPPED);
                self.program(lpn, outcome);
                self.stats.gc_pages_relocated += 1;
                outcome.relocated_pages += 1;
            }
        }
        // Erase the victim.
        let block = &mut self.blocks[victim as usize];
        debug_assert_eq!(block.valid, 0);
        block.state = BlockState::Free;
        block.write_ptr = 0;
        block.erase_count += 1;
        self.free_blocks.push(victim);
        self.stats.erases += 1;
        outcome.erased_blocks += 1;
        true
    }

    /// Greedy victim selection: the full block with the fewest valid pages.
    /// Fully-valid blocks are skipped — erasing them makes no progress.
    fn pick_victim(&self) -> Option<u64> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(id, b)| {
                b.state == BlockState::Full
                    && b.valid < self.pages_per_block
                    && *id as u64 != self.open_block
            })
            .min_by_key(|(_, b)| b.valid)
            .map(|(id, _)| id as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ftl() -> Ftl {
        Ftl::new(&SsdConfig::tiny_for_tests())
    }

    #[test]
    fn fresh_ftl_has_no_live_pages() {
        let ftl = tiny_ftl();
        assert_eq!(ftl.live_pages(), 0);
        assert_eq!(ftl.stats(), FtlStats::default());
        assert_eq!(ftl.stats().write_amplification(), 1.0);
    }

    #[test]
    fn sequential_writes_map_pages() {
        let mut ftl = tiny_ftl();
        for lpn in 0..100 {
            ftl.write_page(lpn);
        }
        assert_eq!(ftl.live_pages(), 100);
        assert_eq!(ftl.stats().host_pages_written, 100);
    }

    #[test]
    fn overwrite_does_not_grow_live_pages() {
        let mut ftl = tiny_ftl();
        for _ in 0..10 {
            ftl.write_page(7);
        }
        assert_eq!(ftl.live_pages(), 1);
        assert_eq!(ftl.stats().host_pages_written, 10);
    }

    #[test]
    fn trim_releases_pages() {
        let mut ftl = tiny_ftl();
        for lpn in 0..50 {
            ftl.write_page(lpn);
        }
        for lpn in 0..50 {
            ftl.trim_page(lpn);
        }
        assert_eq!(ftl.live_pages(), 0);
        assert_eq!(ftl.stats().pages_trimmed, 50);
        // Trimming an unmapped page is a no-op.
        ftl.trim_page(0);
        assert_eq!(ftl.stats().pages_trimmed, 50);
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_wear() {
        let mut ftl = tiny_ftl();
        let logical = ftl.logical_pages();
        // Fill the logical space, then overwrite it several times over.
        for round in 0..5 {
            for lpn in 0..logical {
                let _ = ftl.write_page((lpn + round) % logical);
            }
        }
        let stats = ftl.stats();
        assert!(stats.erases > 0, "GC must have erased blocks");
        assert!(stats.write_amplification() >= 1.0);
        assert!(ftl.max_erase_count() >= 1);
        assert!(ftl.mean_erase_count() > 0.0);
        // Live data can never exceed the logical space.
        assert!(ftl.live_pages() <= logical);
    }

    #[test]
    fn gc_preserves_all_live_mappings() {
        let mut ftl = tiny_ftl();
        let logical = ftl.logical_pages();
        // Keep half the space live, churn the other half to force GC.
        for lpn in 0..logical / 2 {
            ftl.write_page(lpn);
        }
        for _ in 0..10 {
            for lpn in logical / 2..logical {
                ftl.write_page(lpn);
            }
        }
        assert!(ftl.stats().erases > 0);
        assert_eq!(ftl.live_pages(), logical);
        // Every logical page must still be mapped to a unique physical page.
        let mut seen = std::collections::HashSet::new();
        for lpn in 0..logical {
            let ppn = ftl.page_map.get(lpn);
            assert_ne!(ppn, UNMAPPED, "lpn {lpn} lost its mapping");
            assert!(seen.insert(ppn), "ppn {ppn} mapped twice");
            assert_eq!(ftl.rev_map.get(ppn), lpn);
        }
    }

    #[test]
    fn maps_grow_with_written_pages_not_capacity() {
        let cfg = SsdConfig::default();
        let mut ftl = Ftl::new(&cfg);
        assert_eq!(ftl.page_map.allocated_chunks(), 0);
        assert_eq!(ftl.rev_map.allocated_chunks(), 0);
        let written = 10_000;
        for lpn in 0..written {
            ftl.write_page(lpn);
        }
        // Sequential writes fill physical pages in order too, so each map
        // holds ceil(10_000 / 4096) = 3 chunks.
        let needed = written.div_ceil(CHUNK_ENTRIES) as usize;
        assert_eq!(ftl.page_map.allocated_chunks(), needed);
        assert_eq!(ftl.rev_map.allocated_chunks(), needed);
        // A capacity-sized map would hold 512 logical chunks.
        assert_eq!(ftl.page_map.chunks.len(), 512);
        assert_eq!(ftl.logical_pages(), cfg.logical_pages());
        // Unwritten pages read as unmapped; trimming one allocates nothing.
        assert_eq!(ftl.page_map.get(cfg.logical_pages() - 1), UNMAPPED);
        ftl.trim_page(cfg.logical_pages() - 1);
        assert_eq!(ftl.page_map.allocated_chunks(), needed);
        assert_eq!(ftl.live_pages(), written);
    }

    #[test]
    fn scattered_overwrites_amplify_writes() {
        // Overwriting a strided subset leaves every block partially valid,
        // so greedy GC must relocate the cold neighbours -> WAF above 1.
        // (A *contiguous* hot region would fully invalidate whole blocks and
        // keep WAF at 1, which greedy GC handles optimally.)
        let mut ftl = tiny_ftl();
        let logical = ftl.logical_pages();
        for lpn in 0..logical {
            ftl.write_page(lpn);
        }
        for round in 0..50 {
            for i in 0..logical / 8 {
                ftl.write_page((i * 8 + round % 8) % logical);
            }
        }
        assert!(
            ftl.stats().write_amplification() > 1.05,
            "expected visible WAF, got {}",
            ftl.stats().write_amplification()
        );
    }
}
