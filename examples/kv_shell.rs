//! An interactive shell over an LDC store — drive the engine by hand and
//! watch the compaction machinery react.
//!
//! ```text
//! cargo run --release --example kv_shell            # in-memory simulated SSD
//! cargo run --release --example kv_shell -- /tmp/db # persisted on disk
//! ```
//!
//! Commands:
//! ```text
//! put <key> <value>     get <key>        del <key>
//! scan <start> [n]      fill <n>         stats
//! report                levels           verify
//! help                  quit
//! ```
//!
//! `stats` prints one-line counters; `report` prints the full LevelDB-style
//! engine report (levels, compactions, cache, per-op latencies, SSD wear).

use std::io::{self, BufRead, Write};
use std::sync::Arc;

use ldc::ssd::{DiskStorage, SsdDevice, StorageBackend};
use ldc::{LdcDb, Options};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut builder = LdcDb::builder().options(Options {
        memtable_bytes: 256 << 10,
        sstable_bytes: 256 << 10,
        l1_capacity_bytes: 1 << 20,
        ..Options::default()
    });
    if let Some(path) = std::env::args().nth(1) {
        let storage: Arc<dyn StorageBackend> =
            DiskStorage::open(path.clone(), SsdDevice::with_defaults())?;
        builder = builder.storage(storage);
        eprintln!("store persisted under {path}");
    } else {
        eprintln!("in-memory store (pass a directory to persist)");
    }
    let db = builder.build()?;
    eprintln!("ldc shell — `help` for commands");

    let stdin = io::stdin();
    let mut out = io::stdout();
    loop {
        out.write_all(b"ldc> ")?;
        out.flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            [] => {}
            ["quit" | "exit"] => break,
            ["help"] => println!(
                "put <k> <v> | get <k> | del <k> | scan <start> [n] | \
                 fill <n> | stats | report | levels | verify | quit"
            ),
            ["put", key, value] => {
                db.put(key.as_bytes(), value.as_bytes())?;
                println!("ok");
            }
            ["get", key] => match db.get(key.as_bytes())? {
                Some(v) => println!("{}", String::from_utf8_lossy(&v)),
                None => println!("(not found)"),
            },
            ["del", key] => {
                db.delete(key.as_bytes())?;
                println!("ok");
            }
            ["scan", start] | ["scan", start, _] => {
                let n: usize = parts.get(2).and_then(|s| s.parse().ok()).unwrap_or(10);
                for (k, v) in db.scan(start.as_bytes(), n)? {
                    println!(
                        "{} = {}",
                        String::from_utf8_lossy(&k),
                        String::from_utf8_lossy(&v)
                    );
                }
            }
            ["fill", n] => {
                let n: u64 = n.parse().unwrap_or(10_000);
                for i in 0..n {
                    let key = format!("fill:{:012x}", i.wrapping_mul(0x9e3779b97f4a7c15));
                    db.put(key.as_bytes(), &vec![b'x'; 512])?;
                }
                db.drain_background();
                println!("inserted {n} records");
            }
            ["stats"] => {
                let s = db.stats();
                let io = db.device().io_stats();
                let wear = db.device().snapshot();
                println!(
                    "writes {} | gets {} | scans {} | flushes {} | links {} | \
                     ldc merges {} | stalls {}",
                    s.writes, s.gets, s.scans, s.flushes, s.links, s.ldc_merges, s.stalls
                );
                println!(
                    "compaction I/O {:.1} MiB read / {:.1} MiB written | \
                     space {:.1} MiB | virtual time {:.3} s | device WAF {:.3}",
                    io.compaction_read_bytes() as f64 / 1048576.0,
                    io.compaction_write_bytes() as f64 / 1048576.0,
                    db.space_bytes() as f64 / 1048576.0,
                    wear.now as f64 / 1e9,
                    wear.ftl.write_amplification(),
                );
            }
            ["report"] => print!("{}", db.stats_report()),
            ["levels"] => {
                let v = db.engine().version();
                for level in 0..v.num_levels() {
                    if v.level_files(level) > 0 {
                        println!(
                            "L{level}: {} files, {:.2} MiB",
                            v.level_files(level),
                            v.level_bytes(level) as f64 / 1048576.0
                        );
                    }
                }
                if v.frozen_files() > 0 {
                    println!(
                        "frozen: {} files, {:.2} MiB, {} live slice links",
                        v.frozen_files(),
                        v.frozen_bytes() as f64 / 1048576.0,
                        v.total_slice_links()
                    );
                }
            }
            ["verify"] => match db.verify_integrity() {
                Ok(entries) => println!("ok — {entries} entries verified"),
                Err(e) => println!("CORRUPTION: {e}"),
            },
            other => println!("unknown command {other:?}; try `help`"),
        }
    }
    Ok(())
}
