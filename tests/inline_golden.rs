//! Golden values for the deterministic inline engine.
//!
//! With `background_workers == 0` every flush and compaction runs on the
//! caller under the virtual clock, so a fixed-seed workload must land on
//! exactly the same clock reading, compaction counts, I/O volume per class,
//! FTL page count and level shape on every run and every build. The
//! constants below were captured from the engine before its inline and
//! threaded executors were merged into one plan → run → install pipeline;
//! any drift means the inline path no longer books time or I/O the way it
//! did, which would silently change every paper figure.
//!
//! The workload covers each inline entry point of that pipeline: the
//! write-path pump (flush, merge, link, LDC merge, trivial move, tiered
//! merge), `drain_background`, an explicit `flush`, and the recovery flush
//! at reopen.

use std::sync::Arc;

use ldc::ssd::{IoClass, MemStorage, SsdDevice, StorageBackend};
use ldc::{LdcDb, LdcDbBuilder, Options};

#[derive(Debug, Clone, Copy)]
enum Policy {
    Ldc,
    Udc,
    Tiered,
}

/// Everything the golden run pins, in one comparable value.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    clock_now: u64,
    flushes: u64,
    merges: u64,
    ldc_merges: u64,
    links: u64,
    trivial_moves: u64,
    /// Written bytes per `IoClass`, in `IoClass::ALL` order.
    written: [u64; 7],
    ftl_host_pages: u64,
    level_files: Vec<usize>,
}

fn tiny_options() -> Options {
    Options {
        memtable_bytes: 4 << 10,
        sstable_bytes: 4 << 10,
        l1_capacity_bytes: 16 << 10,
        block_bytes: 1 << 10,
        ..Options::default()
    }
}

fn builder(policy: Policy, storage: &Arc<dyn StorageBackend>) -> LdcDbBuilder {
    let b = LdcDb::builder()
        .options(tiny_options())
        .storage(Arc::clone(storage));
    match policy {
        Policy::Ldc => b,
        Policy::Udc => b.udc_baseline(),
        Policy::Tiered => b.size_tiered(),
    }
}

fn key(k: u64) -> Vec<u8> {
    format!("{:08x}", k.wrapping_mul(0x9e37_79b9) % 1_500).into_bytes()
}

fn value(k: u64, rev: u64) -> Vec<u8> {
    let mut v = format!("r{rev:04}k{k:06}").into_bytes();
    v.resize(200, b'.');
    v
}

/// Seeded mix of puts, deletes and gets over 1,500 keys.
fn run_ops(db: &LdcDb, seed: u64, ops: u64) {
    let mut x = seed;
    for i in 0..ops {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % 1_500;
        match x % 10 {
            0 => db.delete(&key(k)).unwrap(),
            1 | 2 => {
                db.get(&key(k)).unwrap();
            }
            _ => db.put(&key(k), &value(k, i)).unwrap(),
        }
    }
}

fn golden_run(policy: Policy) -> Golden {
    let device = SsdDevice::with_defaults();
    let storage: Arc<dyn StorageBackend> = MemStorage::new(Arc::clone(&device));
    let first = {
        let db = builder(policy, &storage).build().unwrap();
        run_ops(&db, 0x1dc0_2019, 2_500);
        db.drain_background();
        run_ops(&db, 0x5eed, 600);
        db.engine().flush().unwrap();
        // Left in the WAL: replayed and flushed by the reopen below.
        run_ops(&db, 0xfeed, 120);
        db.stats()
    };
    let db = builder(policy, &storage).build().unwrap();
    run_ops(&db, 0xbeef, 400);
    db.drain_background();

    // Engine counters restart at open; the golden covers both incarnations.
    let second = db.stats();
    let io = device.io_stats();
    let version = db.engine().version();
    Golden {
        clock_now: device.clock().now(),
        flushes: first.flushes + second.flushes,
        merges: first.merges + second.merges,
        ldc_merges: first.ldc_merges + second.ldc_merges,
        links: first.links + second.links,
        trivial_moves: first.trivial_moves + second.trivial_moves,
        written: IoClass::ALL.map(|c| io.write_bytes_for(c)),
        ftl_host_pages: device.ftl_stats().host_pages_written,
        level_files: (0..version.num_levels())
            .map(|l| version.level_files(l))
            .collect(),
    }
}

#[test]
fn inline_golden_ldc() {
    let want = Golden {
        clock_now: 318_738_901,
        flushes: 152,
        merges: 0,
        ldc_merges: 95,
        links: 216,
        trivial_moves: 2,
        written: [0, 584_854, 577_348, 0, 605_142, 68_283, 0],
        ftl_host_pages: 943,
        level_files: vec![3, 4, 24, 0, 0, 0, 0],
    };
    assert_eq!(golden_run(Policy::Ldc), want);
}

#[test]
fn inline_golden_udc() {
    let want = Golden {
        clock_now: 266_191_533,
        flushes: 151,
        merges: 89,
        ldc_merges: 0,
        links: 0,
        trivial_moves: 8,
        written: [0, 584_854, 577_233, 0, 1_550_128, 29_616, 0],
        ftl_host_pages: 1_132,
        level_files: vec![0, 3, 20, 0, 0, 0, 0],
    };
    assert_eq!(golden_run(Policy::Udc), want);
}

#[test]
fn inline_golden_size_tiered() {
    let want = Golden {
        clock_now: 116_166_970,
        flushes: 151,
        merges: 47,
        ldc_merges: 0,
        links: 0,
        trivial_moves: 0,
        written: [0, 584_854, 577_233, 0, 1_052_113, 11_511, 0],
        ftl_host_pages: 642,
        level_files: vec![4, 0, 0, 0, 0, 0, 0],
    };
    assert_eq!(golden_run(Policy::Tiered), want);
}
