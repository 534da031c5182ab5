//! Ablation — Theorems 2.2 / 3.2: measured read amplification.
//!
//! LDC's worst-case read amplification is `O(k·log_k(n/b) + u)` (a lookup
//! may consult every covering slice) versus UDC's `O(log_k(n/b) + u)`, but
//! §III-C argues Bloom filters bring the *practical* value close to UDC's.
//! We measure actual device block reads per point lookup for both systems,
//! with filters on and off, on an identical preloaded store (cache
//! disabled, so every consulted block is a device read).

use ldc_bench::prelude::*;
use ldc_workload::preload_workload;

fn run(system: System, bits_per_key: usize, ops: u64, seed: u64) -> (f64, u64) {
    let spec = WorkloadSpec::read_only(ops)
        .with_codec(KeyCodec::new(16, 512))
        .with_seed(seed);
    let mut config = StoreConfig::new(system);
    config.options.bloom_bits_per_key = bits_per_key;
    config.options.block_cache_bytes = 0; // count every block read
    let db = match system {
        System::Ldc => LdcDb::builder().options(config.options.clone()).build(),
        System::Udc => LdcDb::builder()
            .options(config.options.clone())
            .udc_baseline()
            .build(),
    }
    .unwrap();
    let mut adapter = DbAdapter::new(db);
    preload_workload(&spec, &mut adapter).unwrap();
    adapter.db_mut().drain_background();
    let misses_before = adapter.db().block_cache_counters().misses;
    let clock = adapter.db().device().clock().clone();
    ldc_workload::run_measured(&spec, &mut adapter, &clock).unwrap();
    let misses_after = adapter.db().block_cache_counters().misses;
    let blocks = misses_after - misses_before;
    let slices = adapter.db().engine().version().total_slice_links() as u64;
    (blocks as f64 / ops as f64, slices)
}

fn main() {
    let args = CommonArgs::parse(20_000);
    let mut rows = Vec::new();
    for (label, system, bits) in [
        ("UDC, no filters", System::Udc, 0),
        ("LDC, no filters", System::Ldc, 0),
        ("UDC, 10 bits/key", System::Udc, 10),
        ("LDC, 10 bits/key", System::Ldc, 10),
    ] {
        let (blocks_per_get, live_slices) = run(system, bits, args.ops, args.seed);
        rows.push(vec![
            label.to_string(),
            format!("{blocks_per_get:.2}"),
            live_slices.to_string(),
        ]);
    }
    print_table(
        args.csv,
        &format!(
            "Read amplification (Theorems 2.2/3.2): device block reads per GET, {} lookups",
            args.ops
        ),
        &["configuration", "blocks / lookup", "live slice links"],
        &rows,
    );
    println!(
        "\nExpectation: without filters LDC reads notably more blocks per \
         lookup (it must probe covering slices); with 10 bits/key both \
         systems converge near ~1 block per lookup — the paper's §III-C \
         argument that Bloom filters neutralize LDC's read-amplification \
         penalty in practice."
    );
}
