//! Full-stack persistence on the real file system: the store, running over
//! [`DiskStorage`], must survive process-style restarts with its LDC state
//! intact.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ldc::ssd::{DiskStorage, SsdDevice, StorageBackend};
use ldc::{LdcDb, Options};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

struct TempRoot(PathBuf);

impl TempRoot {
    fn new() -> Self {
        TempRoot(std::env::temp_dir().join(format!(
            "ldc-db-disk-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn open(root: &TempRoot, udc: bool) -> LdcDb {
    let storage: Arc<dyn StorageBackend> =
        DiskStorage::open(root.0.clone(), SsdDevice::with_defaults()).unwrap();
    let mut builder = LdcDb::builder()
        .options(Options {
            memtable_bytes: 8 << 10,
            sstable_bytes: 8 << 10,
            l1_capacity_bytes: 32 << 10,
            block_bytes: 1 << 10,
            ..Options::default()
        })
        .storage(storage);
    if udc {
        builder = builder.udc_baseline();
    }
    builder.build().unwrap()
}

fn key(i: u32) -> Vec<u8> {
    format!("{:08x}", i.wrapping_mul(0x9e37_79b9)).into_bytes()
}

#[test]
fn store_survives_disk_reopen_with_ldc_state() {
    let root = TempRoot::new();
    let n = 1200u32;
    {
        let db = open(&root, false);
        for i in 0..n {
            db.put(&key(i), format!("value-{i}").as_bytes()).unwrap();
        }
        db.delete(&key(7)).unwrap();
        let stats = db.stats();
        assert!(stats.flushes > 0);
        assert!(stats.links > 0, "want live LDC activity on disk");
    } // "crash"
      // Files really are on disk.
    let on_disk: Vec<String> = fs::read_dir(&root.0)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert!(on_disk.iter().any(|f| f.ends_with(".sst")), "{on_disk:?}");
    assert!(on_disk.iter().any(|f| f.starts_with("MANIFEST")));
    assert!(on_disk.iter().any(|f| f == "CURRENT"));

    let db = open(&root, false);
    db.engine().version().check_invariants().unwrap();
    for i in (0..n).step_by(61) {
        let expect = if i == 7 {
            None
        } else {
            Some(format!("value-{i}").into_bytes())
        };
        assert_eq!(db.get(&key(i)).unwrap(), expect, "key {i}");
    }
    // Keep working after recovery.
    for i in n..n + 300 {
        db.put(&key(i), b"post-recovery").unwrap();
    }
    assert_eq!(
        db.get(&key(n + 1)).unwrap(),
        Some(b"post-recovery".to_vec())
    );
}

/// The generation test from `crash_recovery.rs`, ported to the real file
/// system: several sessions each write a slab of puts and deletes, then
/// "crash" (drop without shutdown); the final reopen must match the
/// in-memory model exactly, for LDC and the UDC baseline alike.
#[test]
fn reopen_preserves_everything_across_generations_on_disk() {
    fn value(k: u32, session: u32) -> Vec<u8> {
        let mut out = format!("v{session:05}k{k:05}").into_bytes();
        out.resize(160, b'.');
        out
    }
    for udc in [false, true] {
        let root = TempRoot::new();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for session in 0u32..4 {
            let db = open(&root, udc);
            for k in 0..300u32 {
                if (k + session) % 11 == 0 {
                    db.delete(&key(k)).unwrap();
                    model.remove(&key(k));
                } else {
                    db.put(&key(k), &value(k, session)).unwrap();
                    model.insert(key(k), value(k, session));
                }
            }
            // Spot-check inside the session too.
            for k in (0..300u32).step_by(41) {
                assert_eq!(db.get(&key(k)).unwrap().as_ref(), model.get(&key(k)));
            }
        } // each drop is a crash
        let db = open(&root, udc);
        db.engine().version().check_invariants().unwrap();
        let all = db.scan(b"", usize::MAX).unwrap();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
        assert_eq!(all, want, "udc={udc}");
    }
}

#[test]
fn udc_store_on_disk_roundtrip() {
    let root = TempRoot::new();
    {
        let db = open(&root, true);
        for i in 0..800u32 {
            db.put(&key(i), b"v").unwrap();
        }
    }
    let db = open(&root, true);
    for i in (0..800u32).step_by(97) {
        assert_eq!(db.get(&key(i)).unwrap(), Some(b"v".to_vec()));
    }
}
