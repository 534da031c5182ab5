//! Property-based model equivalence: for arbitrary operation sequences,
//! both compaction mechanisms must behave exactly like an in-memory map —
//! and like each other — while keeping every internal invariant intact.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ldc::{LdcDb, Options};

#[derive(Debug, Clone)]
enum Op {
    Put(u16, u8),
    Delete(u16),
    Get(u16),
    Scan(u16, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
        1 => any::<u16>().prop_map(Op::Delete),
        2 => any::<u16>().prop_map(Op::Get),
        1 => (any::<u16>(), 1u8..20).prop_map(|(k, n)| Op::Scan(k, n)),
    ]
}

fn key(k: u16) -> Vec<u8> {
    // Spread keys so neighbouring u16s do not cluster (forces overlap).
    format!("{:08x}", (k as u64).wrapping_mul(0x9e37_79b9)).into_bytes()
}

fn value(k: u16, v: u8) -> Vec<u8> {
    // Values big enough that a few hundred force flushes under the tiny
    // test geometry.
    let mut out = format!("v{v:03}k{k:05}").into_bytes();
    out.resize(256, b'.');
    out
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

#[derive(Debug, Clone, Copy)]
enum Policy {
    Ldc,
    Udc,
    Tiered,
}

fn check_sequence(policy: Policy, ops: &[Op]) {
    let mut builder = LdcDb::builder().options(tiny_options());
    builder = match policy {
        Policy::Udc => builder.udc_baseline(),
        Policy::Tiered => builder.size_tiered(),
        Policy::Ldc => builder,
    };
    let db = builder.build().expect("open");
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

    for op in ops {
        match op {
            Op::Put(k, v) => {
                db.put(&key(*k), &value(*k, *v)).expect("put");
                model.insert(key(*k), value(*k, *v));
            }
            Op::Delete(k) => {
                db.delete(&key(*k)).expect("delete");
                model.remove(&key(*k));
            }
            Op::Get(k) => {
                let got = db.get(&key(*k)).expect("get");
                assert_eq!(got.as_ref(), model.get(&key(*k)), "get({k}) diverged");
            }
            Op::Scan(k, n) => {
                let got = db.scan(&key(*k), *n as usize).expect("scan");
                let want: Vec<(Vec<u8>, Vec<u8>)> = model
                    .range(key(*k)..)
                    .take(*n as usize)
                    .map(|(a, b)| (a.clone(), b.clone()))
                    .collect();
                assert_eq!(got, want, "scan({k},{n}) diverged");
            }
        }
    }
    // Full sweep at the end.
    let all = db.scan(b"", usize::MAX).expect("final scan");
    let want: Vec<(Vec<u8>, Vec<u8>)> = model.iter().map(|(a, b)| (a.clone(), b.clone())).collect();
    assert_eq!(all, want, "final state diverged");
    db.engine()
        .version()
        .check_invariants()
        .expect("invariants");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
    })]

    #[test]
    fn ldc_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_sequence(Policy::Ldc, &ops);
    }

    #[test]
    fn udc_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_sequence(Policy::Udc, &ops);
    }

    #[test]
    fn size_tiered_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        check_sequence(Policy::Tiered, &ops);
    }
}

#[test]
fn heavy_deterministic_sequence_both_policies() {
    // A fixed dense sequence that exercises overwrites, deletes, and scans
    // through multiple flush/merge generations.
    let mut ops = Vec::new();
    for round in 0u8..4 {
        for k in 0u16..300 {
            ops.push(Op::Put(k % 150, round));
            if k % 7 == 0 {
                ops.push(Op::Delete(k % 50));
            }
            if k % 13 == 0 {
                ops.push(Op::Get(k % 150));
                ops.push(Op::Scan(k % 150, 10));
            }
        }
    }
    check_sequence(Policy::Ldc, &ops);
    check_sequence(Policy::Udc, &ops);
    check_sequence(Policy::Tiered, &ops);
}
