//! Criterion microbenchmarks for the engine's hot paths: memtable ops,
//! Bloom filters, block encode/seek, CRC, table building, and end-to-end
//! put/get through both compaction policies.
//!
//! ```text
//! cargo bench -p ldc-bench
//! ```

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use ldc_core::LdcDb;
use ldc_lsm::block::{Block, BlockBuilder};
use ldc_lsm::crc32c;
use ldc_lsm::filter::BloomFilter;
use ldc_lsm::memtable::MemTable;
use ldc_lsm::table::TableBuilder;
use ldc_lsm::types::{encode_internal_key, ValueType};
use ldc_lsm::Options;

fn ik(i: u64) -> Vec<u8> {
    encode_internal_key(format!("key{i:012}").as_bytes(), i + 1, ValueType::Value)
}

fn bench_memtable(c: &mut Criterion) {
    let mut group = c.benchmark_group("memtable");
    group.throughput(Throughput::Elements(1000));
    group.bench_function("insert_1k", |b| {
        b.iter_batched(
            || MemTable::new(7),
            |mem| {
                for i in 0..1000u64 {
                    mem.add(
                        i + 1,
                        ValueType::Value,
                        format!("key{i:012}").as_bytes(),
                        b"value",
                    );
                }
                mem
            },
            BatchSize::SmallInput,
        )
    });
    let mem = MemTable::new(7);
    for i in 0..10_000u64 {
        mem.add(
            i + 1,
            ValueType::Value,
            format!("key{i:012}").as_bytes(),
            b"value",
        );
    }
    group.throughput(Throughput::Elements(1));
    group.bench_function("get_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7919) % 10_000;
            black_box(mem.get(format!("key{i:012}").as_bytes(), u64::MAX))
        })
    });
    group.finish();
}

fn bench_bloom(c: &mut Criterion) {
    let mut group = c.benchmark_group("bloom");
    let keys: Vec<Vec<u8>> = (0..10_000u64)
        .map(|i| format!("key{i:012}").into_bytes())
        .collect();
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("build_10k_keys_10bpk", |b| {
        b.iter(|| BloomFilter::build(black_box(&keys), 10))
    });
    let filter = BloomFilter::build(&keys, 10);
    group.throughput(Throughput::Elements(1));
    group.bench_function("query_hit", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7919) % keys.len();
            black_box(filter.may_contain(&keys[i]))
        })
    });
    group.bench_function("query_miss", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(filter.may_contain(format!("absent{i:010}").as_bytes()))
        })
    });
    group.finish();
}

fn bench_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("block");
    let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..256u64).map(|i| (ik(i), vec![b'v'; 100])).collect();
    group.throughput(Throughput::Elements(256));
    group.bench_function("build_256_entries", |b| {
        b.iter(|| {
            let mut builder = BlockBuilder::new(16);
            for (k, v) in &entries {
                builder.add(k, v);
            }
            black_box(builder.finish())
        })
    });
    let block = {
        let mut builder = BlockBuilder::new(16);
        for (k, v) in &entries {
            builder.add(k, v);
        }
        Block::new(bytes::Bytes::from(builder.finish())).unwrap()
    };
    group.throughput(Throughput::Elements(1));
    group.bench_function("seek", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 97) % 256;
            let mut it = block.iter();
            it.seek(&ik(i));
            black_box(it.valid())
        })
    });
    group.finish();
}

fn bench_crc(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32c");
    // 1 KiB is the size of a typical WAL record; 4 KiB is a data block.
    for (name, len) in [("1kib", 1024usize), ("4kib", 4096)] {
        let data = vec![0xabu8; len];
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(name, |b| b.iter(|| crc32c::crc32c(black_box(&data))));
    }
    group.finish();
}

fn bench_table_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("table");
    group.sample_size(20);
    group.throughput(Throughput::Elements(2000));
    group.bench_function("build_2k_entries", |b| {
        b.iter(|| {
            let mut builder = TableBuilder::new(4096, 16, 10);
            for i in 0..2000u64 {
                builder.add(&ik(i), &vec![b'v'; 256]);
            }
            black_box(builder.finish())
        })
    });
    group.finish();
}

fn bench_db_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("db");
    group.sample_size(10);
    let options = || Options {
        memtable_bytes: 64 << 10,
        sstable_bytes: 64 << 10,
        l1_capacity_bytes: 256 << 10,
        ..Options::default()
    };
    group.throughput(Throughput::Elements(5000));
    for (label, udc) in [("ldc_put_5k", false), ("udc_put_5k", true)] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    let mut builder = LdcDb::builder().options(options());
                    if udc {
                        builder = builder.udc_baseline();
                    }
                    builder.build().unwrap()
                },
                |db| {
                    for i in 0..5000u64 {
                        let key = format!("k{:014x}", i.wrapping_mul(0x9e3779b97f4a7c15));
                        db.put(key.as_bytes(), &[b'v'; 128]).unwrap();
                    }
                    db
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_memtable,
    bench_bloom,
    bench_block,
    bench_crc,
    bench_table_build,
    bench_db_end_to_end
);
criterion_main!(benches);
