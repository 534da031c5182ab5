//! Shared-handle concurrency: many readers race one writer while forced
//! flushes and compactions churn the file set underneath them, in both
//! compaction modes. Readers must always observe exactly the model state
//! for keys the writer never touches, and writes must never be lost.
//!
//! Multi-threaded runs promise correctness, not timing reproducibility
//! (see DESIGN.md §10), so these tests assert values and invariants, never
//! virtual-clock readings.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use ldc_core::LdcDb;
use ldc_lsm::{Options, WriteBatch};
use proptest::prelude::*;

fn stable_kv(i: u64) -> (Vec<u8>, Vec<u8>) {
    // Hash-spread like a hashed workload so files overlap across levels.
    let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (
        format!("stable{h:016x}").into_bytes(),
        format!("value-{i:08}-{}", "y".repeat(64)).into_bytes(),
    )
}

fn fresh_kv(i: u64) -> (Vec<u8>, Vec<u8>) {
    let h = i.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    (
        format!("fresh{h:016x}").into_bytes(),
        format!("new-{i:08}-{}", "z".repeat(64)).into_bytes(),
    )
}

/// 8 readers + 1 writer + forced compactions on one shared handle. The
/// readers check every stable key against the model while the writer's
/// inserts force flushes and multi-level compactions; afterwards the whole
/// store must equal model ∪ writes.
fn readers_vs_writer_under_compaction(db: LdcDb) {
    const STABLE: u64 = 1200;
    const FRESH: u64 = 2500;
    const READERS: u64 = 8;

    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for i in 0..STABLE {
        let (k, v) = stable_kv(i);
        db.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    // Settle the preload so reader misses can't be blamed on it.
    db.drain_background();

    let reads_done = AtomicU64::new(0);
    std::thread::scope(|s| {
        for r in 0..READERS {
            let db = &db;
            let model = &model;
            let reads_done = &reads_done;
            s.spawn(move || {
                let mut i = r * 131;
                loop {
                    let (k, v) = stable_kv(i % STABLE);
                    assert_eq!(
                        db.get(&k).unwrap().as_deref(),
                        Some(model.get(&k).unwrap().as_slice()),
                        "reader {r} lost stable key {i}"
                    );
                    // Zero-copy path must agree with the owned path.
                    let pinned = db.get_pinned(&k).unwrap().expect("pinned stable key");
                    assert_eq!(pinned.as_slice(), v.as_slice());
                    // Scans cross levels mid-compaction; spot-check ordering.
                    if i % 97 == 0 {
                        let rows = db.scan(b"stable", 16).unwrap();
                        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
                    }
                    i += 1;
                    if reads_done.fetch_add(1, Ordering::Relaxed) > 40_000 {
                        break;
                    }
                }
            });
        }
        let db = &db;
        s.spawn(move || {
            for i in 0..FRESH {
                let (k, v) = fresh_kv(i);
                db.put(&k, &v).unwrap();
                // Periodically force the background lane to run *now*, so
                // compactions land in the middle of the readers' loops.
                if i % 500 == 499 {
                    db.drain_background();
                }
            }
        });
    });

    db.drain_background();
    let stats = db.stats();
    assert!(stats.flushes > 0, "writer volume must force flushes");
    assert!(
        stats.merges + stats.trivial_moves + stats.links + stats.ldc_merges > 0,
        "compactions must have run during the race: {stats:?}"
    );
    for (k, v) in &model {
        assert_eq!(db.get(k).unwrap().as_deref(), Some(v.as_slice()));
    }
    for i in (0..FRESH).step_by(61) {
        let (k, v) = fresh_kv(i);
        assert_eq!(db.get(&k).unwrap(), Some(v), "fresh key {i} lost");
    }
    db.engine().version().check_invariants().unwrap();
}

#[test]
fn concurrent_smoke_udc() {
    let db = LdcDb::builder()
        .options(Options::small_for_tests())
        .udc_baseline()
        .build()
        .unwrap();
    readers_vs_writer_under_compaction(db);
}

#[test]
fn concurrent_smoke_ldc() {
    let db = LdcDb::builder()
        .options(Options::small_for_tests())
        .build()
        .unwrap();
    readers_vs_writer_under_compaction(db);
}

/// Group commit correctness: 8 threads each commit disjoint batches through
/// one handle; every batch must be atomic and none may be lost, whichever
/// writer happens to lead each group.
#[test]
fn concurrent_batch_writers_all_commit() {
    let db = LdcDb::builder()
        .options(Options::small_for_tests())
        .build()
        .unwrap();
    const WRITERS: u64 = 8;
    const BATCHES: u64 = 40;
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let db = &db;
            s.spawn(move || {
                for b in 0..BATCHES {
                    let mut batch = WriteBatch::new();
                    for item in 0..4u64 {
                        batch.put(
                            format!("w{w:02}b{b:03}i{item}").as_bytes(),
                            format!("payload-{w}-{b}-{item}-{}", "p".repeat(32)).as_bytes(),
                        );
                    }
                    db.write(batch).unwrap();
                }
            });
        }
    });
    db.drain_background();
    for w in 0..WRITERS {
        for b in 0..BATCHES {
            for item in 0..4u64 {
                let k = format!("w{w:02}b{b:03}i{item}");
                assert_eq!(
                    db.get(k.as_bytes()).unwrap(),
                    Some(format!("payload-{w}-{b}-{item}-{}", "p".repeat(32)).into_bytes()),
                    "lost {k}"
                );
            }
        }
    }
    let stats = db.stats();
    assert_eq!(stats.writes, WRITERS * BATCHES * 4);
}

/// `multi_get` snapshot consistency: a writer flips pairs of keys
/// atomically (one WriteBatch per version) while readers batch-read both
/// keys; every `multi_get` must observe a single version for the whole
/// pair — one pinned snapshot, never a torn mix of two batches.
#[test]
fn multi_get_observes_one_snapshot() {
    let db = LdcDb::builder()
        .options(Options::small_for_tests())
        .build()
        .unwrap();
    const PAIRS: u64 = 8;
    const VERSIONS: u64 = 120;
    let key = |p: u64, side: &str| format!("mg{p:02}{side}").into_bytes();
    let val = |v: u64| format!("ver-{v:06}-{}", "m".repeat(48)).into_bytes();
    for p in 0..PAIRS {
        let mut batch = WriteBatch::new();
        batch.put(&key(p, "a"), &val(0));
        batch.put(&key(p, "b"), &val(0));
        db.write(batch).unwrap();
    }
    db.drain_background();

    std::thread::scope(|s| {
        for r in 0..4u64 {
            let db = &db;
            s.spawn(move || {
                let mut p = r;
                for _ in 0..400 {
                    p = (p + 1) % PAIRS;
                    let (ka, kb) = (key(p, "a"), key(p, "b"));
                    let got = db.multi_get(&[&ka, &kb]).unwrap();
                    let a = got[0].clone().expect("pair key a missing");
                    let b = got[1].clone().expect("pair key b missing");
                    assert_eq!(
                        a,
                        b,
                        "multi_get tore across a batch on pair {p}: {:?} vs {:?}",
                        String::from_utf8_lossy(&a),
                        String::from_utf8_lossy(&b)
                    );
                }
            });
        }
        // Writer: bump every pair through VERSIONS atomic versions with
        // enough payload to force flushes mid-run.
        for v in 1..=VERSIONS {
            for p in 0..PAIRS {
                let mut batch = WriteBatch::new();
                batch.put(&key(p, "a"), &val(v));
                batch.put(&key(p, "b"), &val(v));
                db.write(batch).unwrap();
            }
        }
    });
    db.drain_background();
    let ka = key(3, "a");
    let kb = key(3, "b");
    let got = db.multi_get(&[&ka, &kb, b"absent-key"]).unwrap();
    assert_eq!(got[0], Some(val(VERSIONS)));
    assert_eq!(got[1], Some(val(VERSIONS)));
    assert_eq!(got[2], None);
}

/// `build_shards` opens N independent stores: disjoint devices, shared
/// configuration, and no cross-shard visibility.
#[test]
fn build_shards_yields_independent_stores() {
    let shards = LdcDb::builder()
        .options(Options::small_for_tests())
        .build_shards(4)
        .unwrap();
    assert_eq!(shards.len(), 4);
    for (i, db) in shards.iter().enumerate() {
        db.put(format!("shard{i}").as_bytes(), b"own").unwrap();
    }
    for (i, db) in shards.iter().enumerate() {
        for j in 0..4 {
            let got = db.get(format!("shard{j}").as_bytes()).unwrap();
            if i == j {
                assert_eq!(got, Some(b"own".to_vec()));
            } else {
                assert_eq!(got, None, "shard {i} saw shard {j}'s key");
            }
        }
    }
    assert!(LdcDb::builder().build_shards(0).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Snapshot isolation: a snapshot pinned before a batch commits must
    /// never observe that batch's effects — not through gets and not
    /// through scans — no matter how the keyspaces overlap or how much
    /// churn follows.
    #[test]
    fn snapshot_never_observes_later_batch(
        pre in prop::collection::vec((0u64..64, any::<u8>()), 1..40),
        batch_ops in prop::collection::vec((0u64..64, any::<bool>()), 1..40),
        churn in 0u64..600,
    ) {
        let db = LdcDb::builder()
            .options(Options::small_for_tests())
            .build()
            .unwrap();
        let key = |i: u64| format!("pkey{i:04}").into_bytes();

        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (i, tag) in &pre {
            let v = format!("pre-{tag:03}-{}", "q".repeat(24)).into_bytes();
            db.put(&key(*i), &v).unwrap();
            model.insert(key(*i), v);
        }

        let snap = db.snapshot();

        // The later batch both overwrites pre-state keys and inserts and
        // deletes fresh ones; none of it may leak into the snapshot.
        let mut batch = WriteBatch::new();
        for (i, put) in &batch_ops {
            if *put {
                batch.put(&key(*i), format!("post-{i}").as_bytes());
            } else {
                batch.delete(&key(*i));
            }
        }
        db.write(batch).unwrap();
        // Churn forces flushes/compactions so the snapshot read crosses
        // from the memtable into tables.
        for c in 0..churn {
            db.put(
                format!("churn{c:05}").as_bytes(),
                format!("c-{c}-{}", "r".repeat(64)).as_bytes(),
            ).unwrap();
        }
        db.drain_background();

        for i in 0..64u64 {
            let k = key(i);
            prop_assert_eq!(
                db.get_at(&k, &snap).unwrap(),
                model.get(&k).cloned(),
                "snapshot read of key {} drifted", i
            );
        }
        let rows = db.scan_at(b"pkey", 64, &snap).unwrap();
        let expect: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(rows, expect);
        db.release_snapshot(snap);
    }
}
