//! Integrity verification: `verify_integrity` must pass on healthy stores
//! (including ones with live LDC frozen/link state) and fail loudly on
//! injected corruption.

use std::sync::Arc;

use ldc::ssd::{IoClass, MemStorage, SsdConfig, SsdDevice, StorageBackend};
use ldc::{LdcDb, Options};

fn tiny_options() -> Options {
    Options {
        memtable_bytes: 8 << 10,
        sstable_bytes: 8 << 10,
        l1_capacity_bytes: 32 << 10,
        block_bytes: 1 << 10,
        ..Options::default()
    }
}

#[test]
fn healthy_store_verifies() {
    let db = LdcDb::builder().options(tiny_options()).build().unwrap();
    for i in 0..1500u32 {
        db.put(format!("k{i:06}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    db.drain_background();
    let v = db.engine().version();
    assert!(v.frozen_files() > 0 || v.total_slice_links() > 0 || db.stats().ldc_merges > 0);
    let entries = db.verify_integrity().unwrap();
    // The memtable tail is not on disk yet; everything flushed must verify.
    assert!(entries >= 1000, "verified only {entries} entries");
}

#[test]
fn corruption_is_detected_by_verify() {
    let storage: Arc<dyn StorageBackend> = MemStorage::new(SsdDevice::new(SsdConfig::default()));
    let db = LdcDb::builder()
        .options(tiny_options())
        .storage(Arc::clone(&storage))
        .build()
        .unwrap();
    for i in 0..1500u32 {
        db.put(format!("k{i:06}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    db.drain_background();
    db.verify_integrity().unwrap();

    // Flip one byte in the middle of some SSTable.
    let victim = storage
        .list()
        .into_iter()
        .find(|n| n.ends_with(".sst"))
        .expect("an sstable exists");
    let mut bytes = storage.read_all(&victim, IoClass::Other).unwrap().to_vec();
    let mid = bytes.len() / 3;
    bytes[mid] ^= 0xff;
    storage.write_file(&victim, &bytes, IoClass::Other).unwrap();

    // Reopen so no cached Table/bloom state hides the damage.
    drop(db);
    let db = LdcDb::builder()
        .options(tiny_options())
        .storage(storage)
        .build()
        .unwrap();
    assert!(
        db.verify_integrity().is_err(),
        "verification missed injected corruption in {victim}"
    );
}
