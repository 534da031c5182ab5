//! Internal diagnostic probe (not a paper figure): prints engine/task
//! structure statistics while driving an RWB workload, to sanity-check the
//! background-lane dynamics.

use ldc_bench::prelude::*;
use ldc_workload::KvInterface;

fn main() {
    let args = CommonArgs::parse(40_000);
    for system in [System::Udc, System::Ldc] {
        let config = StoreConfig::new(system);
        let spec = WorkloadSpec::read_write_balanced(args.ops)
            .with_codec(args.codec())
            .with_seed(args.seed);
        let db = match system {
            System::Ldc => LdcDb::builder().options(config.options.clone()).build(),
            System::Udc => LdcDb::builder()
                .options(config.options.clone())
                .udc_baseline()
                .build(),
        }
        .unwrap();
        let mut adapter = DbAdapter::new(db);
        ldc_workload::preload_workload(&spec, &mut adapter).unwrap();
        adapter.db_mut().drain_background();

        // Manual measured loop with stall tracking.
        let clock = adapter.db().device().clock().clone();
        let stats0 = adapter.db().stats();
        let mut worst: u64 = 0;
        let mut worst_at = 0u64;
        let codec = spec.codec.clone();
        let mut max_slices = 0usize;
        for i in 0..spec.ops {
            let t0 = clock.now();
            if i % 2 == 0 {
                adapter
                    .insert(&codec.key(i % spec.key_space), &codec.value(i, 1))
                    .unwrap();
            } else {
                adapter.get(&codec.key(i % spec.key_space)).unwrap();
            }
            let lat = clock.now() - t0;
            if lat > worst {
                worst = lat;
                worst_at = i;
            }
            if i % 500 == 0 {
                let v = adapter.db().engine().version();
                let m = v
                    .levels
                    .iter()
                    .flat_map(|fs| fs.iter())
                    .map(|f| f.slices.len())
                    .max()
                    .unwrap_or(0);
                max_slices = max_slices.max(m);
            }
        }
        let stats1 = adapter.db().stats();
        let v = adapter.db().engine().version();
        println!(
            "{}: worst op latency {:.1} ms at op {} | stalls {} ({:.1} ms) slowdowns {} | \
             flushes {} merges {} links {} ldc_merges {} trivial {} | max slices/file seen {} | \
             levels {:?} frozen {} links_live {}",
            system.label(),
            worst as f64 / 1e6,
            worst_at,
            stats1.stalls - stats0.stalls,
            (stats1.stall_nanos - stats0.stall_nanos) as f64 / 1e6,
            stats1.slowdowns - stats0.slowdowns,
            stats1.flushes - stats0.flushes,
            stats1.merges - stats0.merges,
            stats1.links - stats0.links,
            stats1.ldc_merges - stats0.ldc_merges,
            stats1.trivial_moves - stats0.trivial_moves,
            max_slices,
            (0..v.num_levels())
                .map(|l| v.level_files(l))
                .collect::<Vec<_>>(),
            v.frozen_files(),
            v.total_slice_links(),
        );
        println!(
            "\n{} engine report:\n{}",
            system.label(),
            adapter.db().stats_report()
        );
    }
}
