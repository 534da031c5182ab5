//! Degraded-mode resilience: detection sweeps, quarantine serving, and
//! repair model-equivalence.
//!
//! Five claims, each tested end to end through the public facade:
//!
//! 1. **Detection sweep** — a single flipped bit anywhere in an SSTable is
//!    either detected (read error / refused open) or masked; no read ever
//!    serves a value that was not written.
//! 2. **Quarantine keeps serving** — under `CorruptionPolicy::Quarantine`
//!    a corrupt table is dropped on first contact and every key outside it
//!    keeps its exact value, with zero read-path latches.
//! 3. **Repair model-equivalence** — `repair_db` over a damaged store
//!    (corrupt table + lost manifest) reopens to a store whose every
//!    served value was acknowledged by the workload.
//! 4. **Repair idempotence** (property) — a second `repair_db` pass over
//!    arbitrary workloads changes nothing.
//! 5. **Background write failures fail stop** — when a flush or compaction
//!    cannot write its output, inline or threaded, the error latches, every
//!    acknowledged write stays readable, and later writes are refused.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use ldc::ssd::{IoClass, MemStorage, SsdDevice, SsdError, SsdResult, StorageBackend};
use ldc::{repair_db, CorruptionPolicy, LdcDb, Options};

fn tiny_options() -> Options {
    Options {
        memtable_bytes: 4 << 10,
        sstable_bytes: 4 << 10,
        l1_capacity_bytes: 16 << 10,
        block_bytes: 1 << 10,
        ..Options::default()
    }
}

fn key(i: u64) -> Vec<u8> {
    format!("key{i:05}").into_bytes()
}

fn value(i: u64, rev: u64) -> Vec<u8> {
    let mut v = format!("v{rev:02}-{i:05}-").into_bytes();
    v.resize(160, b'x');
    v
}

/// Builds a store with a few levels' worth of data, returning the storage
/// and the final model.
fn build_store(
    options: &Options,
    keys: u64,
    revs: u64,
) -> (Arc<dyn StorageBackend>, BTreeMap<Vec<u8>, Vec<u8>>) {
    let storage: Arc<dyn StorageBackend> = MemStorage::new(SsdDevice::with_defaults());
    let mut model = BTreeMap::new();
    {
        let db = LdcDb::builder()
            .options(options.clone())
            .storage(Arc::clone(&storage))
            .build()
            .unwrap();
        for rev in 0..revs {
            for i in 0..keys {
                db.put(&key(i), &value(i, rev)).unwrap();
                model.insert(key(i), value(i, rev));
            }
        }
        db.drain_background();
    }
    (storage, model)
}

fn open(storage: &Arc<dyn StorageBackend>, options: &Options) -> ldc::lsm::Result<LdcDb> {
    LdcDb::builder()
        .options(options.clone())
        .storage(Arc::clone(storage))
        .build()
}

fn sstables(storage: &Arc<dyn StorageBackend>) -> Vec<String> {
    let mut names: Vec<String> = storage
        .list()
        .into_iter()
        .filter(|n| n.ends_with(".sst"))
        .collect();
    names.sort();
    names
}

fn flip_bit(storage: &Arc<dyn StorageBackend>, name: &str, offset: u64) {
    let mut data = storage.read_all(name, IoClass::Other).unwrap().to_vec();
    let idx = usize::try_from(offset).unwrap() % data.len();
    data[idx] ^= 0x01;
    storage.write_file(name, &data, IoClass::Other).unwrap();
}

/// Claim 1: sweep a flipped bit across every live SSTable (one probe per
/// block, plus the footer region); every flip is either detected — by the
/// open or by the scrubber — or provably harmless: a bit the format never
/// reads back (e.g. a Bloom-filter bit that only adds a false positive),
/// in which case every key must still read back exactly.
#[test]
fn bit_flip_detection_sweep() {
    let options = tiny_options();
    let (storage, model) = build_store(&options, 96, 2);
    let names = sstables(&storage);
    assert!(!names.is_empty());

    for victim in names {
        let size = storage.size(&victim).unwrap();
        if size == 0 {
            continue;
        }
        let pristine = storage.read_all(&victim, IoClass::Other).unwrap().to_vec();
        // One probe per kilobyte block, plus the footer region.
        let mut offsets: Vec<u64> = (0..size).step_by(1 << 10).collect();
        offsets.push(size.saturating_sub(20));
        for offset in offsets {
            flip_bit(&storage, &victim, offset);
            match open(&storage, &options) {
                // Refusing the corrupt store entirely is detection.
                Err(_) => {}
                Ok(db) => {
                    let report = db.scrub().unwrap();
                    if !report.corruptions.iter().any(|c| c.file == victim) {
                        // Undetected: the flipped bit must be one the
                        // format never reads back — every key exact.
                        for (k, want) in &model {
                            let got = db.get(k).unwrap_or_else(|e| {
                                panic!(
                                    "{victim} offset {offset}: undetected flip \
                                     broke get({}): {e}",
                                    String::from_utf8_lossy(k)
                                )
                            });
                            assert_eq!(
                                got.as_ref(),
                                Some(want),
                                "{victim} offset {offset}: undetected flip \
                                 changed key {}",
                                String::from_utf8_lossy(k)
                            );
                        }
                    }
                }
            }
            // Restore the pristine bytes for the next probe.
            storage
                .write_file(&victim, &pristine, IoClass::Other)
                .unwrap();
        }
    }
}

/// Claim 2: quarantine drops the corrupt table on first contact and keeps
/// serving every key outside it, exactly, with no write-path latch.
#[test]
fn quarantine_keeps_serving_outside_the_corrupt_table() {
    let options = Options {
        corruption_policy: CorruptionPolicy::Quarantine,
        ..tiny_options()
    };
    let (storage, model) = build_store(&options, 96, 2);
    let victim = sstables(&storage)
        .into_iter()
        .max_by_key(|n| storage.size(n).unwrap_or(0))
        .unwrap();
    flip_bit(&storage, &victim, 700);

    let db = open(&storage, &options).expect("quarantine store reopens");
    let report = db.scrub().unwrap();
    assert!(!report.is_clean(), "scrub missed the flipped bit");
    assert_eq!(db.quarantined().len(), 1, "exactly one table quarantined");
    assert!(storage.exists(&format!("{victim}.quarantined")));
    assert!(!storage.exists(&victim));

    // Reads: exact outside the quarantined file, never an error.
    let mut missing = 0u64;
    for (k, want) in &model {
        match db.get(k).expect("no read latches under quarantine") {
            Some(v) => assert_eq!(&v, want),
            None => missing += 1,
        }
    }
    assert!(missing < model.len() as u64, "quarantine lost every key");
    // Writes still flow (no background latch) and read back.
    db.put(b"post-quarantine", b"alive").unwrap();
    assert_eq!(db.get(b"post-quarantine").unwrap(), Some(b"alive".to_vec()));
    // A second scrub over the survivors is clean.
    assert!(db.scrub().unwrap().is_clean());
}

/// Claim 3: corrupt table + deleted manifest, then `repair_db`: the store
/// reopens and serves only acknowledged values. Quarantining the table
/// that held a key's newest revision may roll that key back to an older
/// acknowledged value — never to one that was never written.
#[test]
fn repair_recovers_a_damaged_store_to_model_equivalence() {
    let options = tiny_options();
    let (storage, model) = build_store(&options, 96, 2);
    let names = sstables(&storage);
    assert!(
        names.len() >= 2,
        "need several tables for a meaningful test"
    );
    flip_bit(&storage, &names[0], 64);
    storage.delete("CURRENT").unwrap();

    let report = repair_db(Arc::clone(&storage), &options).unwrap();
    assert!(!report.manifest_recovered);
    assert_eq!(report.tables_quarantined, 1);
    assert!(report.tables_salvaged > 0);

    let db = open(&storage, &options).expect("repaired store reopens");
    let mut surviving = 0u64;
    for (k, want) in &model {
        if let Some(v) = db.get(k).unwrap() {
            if &v == want {
                surviving += 1;
            } else {
                // Rolled back with the quarantined table: still must be a
                // value this key actually held at some revision.
                let i: u64 = String::from_utf8_lossy(&k[3..]).parse().unwrap();
                assert!(
                    (0..2).any(|rev| v == value(i, rev)),
                    "repair fabricated a value for {}",
                    String::from_utf8_lossy(k)
                );
            }
        }
    }
    assert!(surviving > 0, "repair lost every key");
    // All-to-L0 re-homing must still satisfy the engine's invariants.
    db.engine().version().check_invariants().unwrap();
    db.verify_integrity().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Claim 4: repairing a healthy store is lossless, and a second pass
    /// is a no-op — for arbitrary (small) workloads.
    #[test]
    fn repair_is_idempotent(keys in 16u64..64, revs in 1u64..3, seed in 0u64..1000) {
        let options = tiny_options();
        let storage: Arc<dyn StorageBackend> = MemStorage::new(SsdDevice::with_defaults());
        let mut model = BTreeMap::new();
        {
            let db = LdcDb::builder()
                .options(options.clone())
                .storage(Arc::clone(&storage))
                .build()
                .unwrap();
            for rev in 0..revs {
                for i in 0..keys {
                    // Seed scrambles which keys collide across revisions.
                    let k = key((i.wrapping_mul(seed | 1)) % keys);
                    db.put(&k, &value(i, rev)).unwrap();
                    model.insert(k, value(i, rev));
                }
            }
            db.drain_background();
        }

        let first = repair_db(Arc::clone(&storage), &options).unwrap();
        prop_assert_eq!(first.tables_quarantined, 0);
        let second = repair_db(Arc::clone(&storage), &options).unwrap();
        prop_assert_eq!(second.tables_quarantined, 0);
        prop_assert_eq!(second.tables_salvaged, 0);
        prop_assert_eq!(second.orphans_deleted, 0);
        prop_assert_eq!(second.wal_records_salvaged, 0);

        let db = open(&storage, &options).unwrap();
        for (k, want) in &model {
            let got = db.get(k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(want));
        }
        db.verify_integrity().unwrap();
    }
}

/// Storage whose flush and compaction output writes fail once armed; the
/// WAL, manifest and every read keep working.
struct FailingTableWrites {
    inner: Arc<MemStorage>,
    armed: AtomicBool,
}

impl FailingTableWrites {
    fn check(&self, name: &str, class: IoClass) -> SsdResult<()> {
        let table_write = matches!(class, IoClass::FlushWrite | IoClass::CompactionWrite);
        if table_write && self.armed.load(Ordering::SeqCst) {
            return Err(SsdError::Io(format!("injected write failure on {name}")));
        }
        Ok(())
    }
}

impl StorageBackend for FailingTableWrites {
    fn write_file(&self, name: &str, data: &[u8], class: IoClass) -> SsdResult<()> {
        self.check(name, class)?;
        self.inner.write_file(name, data, class)
    }
    fn append(&self, name: &str, data: &[u8], class: IoClass) -> SsdResult<()> {
        self.check(name, class)?;
        self.inner.append(name, data, class)
    }
    fn read(&self, name: &str, offset: u64, len: u64, class: IoClass) -> SsdResult<bytes::Bytes> {
        self.inner.read(name, offset, len, class)
    }
    fn read_sequential(
        &self,
        name: &str,
        offset: u64,
        len: u64,
        class: IoClass,
    ) -> SsdResult<bytes::Bytes> {
        self.inner.read_sequential(name, offset, len, class)
    }
    fn size(&self, name: &str) -> SsdResult<u64> {
        self.inner.size(name)
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
    fn delete(&self, name: &str) -> SsdResult<()> {
        self.inner.delete(name)
    }
    fn rename(&self, from: &str, to: &str) -> SsdResult<()> {
        self.inner.rename(from, to)
    }
    fn sync(&self, name: &str) -> SsdResult<()> {
        self.inner.sync(name)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn device(&self) -> Arc<SsdDevice> {
        self.inner.device()
    }
}

/// Claim 5: a background write failure hides no acknowledged write and
/// latches the store read-only, whether the failing job ran inline or on a worker.
fn background_failure_fails_stop(workers: usize) {
    let storage = Arc::new(FailingTableWrites {
        inner: MemStorage::new(SsdDevice::with_defaults()),
        armed: AtomicBool::new(false),
    });
    let db = LdcDb::builder()
        .options(tiny_options())
        .background_workers(workers)
        .storage(storage.clone())
        .build()
        .unwrap();
    let mut acked: Vec<u64> = Vec::new();
    for i in 0..400 {
        db.put(&key(i), &value(i, 0)).unwrap();
        acked.push(i);
    }
    storage.armed.store(true, Ordering::SeqCst);
    // Inline, the flush still pending on the lane fails inside the first
    // drain. A threaded pool may have gone idle before the arm, so writes
    // keep coming until a flush or compaction hits the failure.
    let mut next = 400;
    while db.engine().background_error().is_none() {
        db.drain_background();
        if db.put(&key(next), &value(next, 0)).is_ok() {
            acked.push(next);
        }
        next += 1;
        assert!(next < 5_000, "no background write failed");
    }
    db.drain_background();

    assert!(db.engine().background_error().is_some());
    for &i in &acked {
        assert_eq!(
            db.get(&key(i)).unwrap(),
            Some(value(i, 0)),
            "acknowledged key {i} unreadable after a background failure"
        );
    }
    assert!(db.put(b"after-failure", b"v").is_err());
}

#[test]
fn inline_background_failure_fails_stop() {
    background_failure_fails_stop(0);
}

#[test]
fn threaded_background_failure_fails_stop() {
    background_failure_fails_stop(2);
}
