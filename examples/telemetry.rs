//! Unified telemetry: one snapshot across service, shards and store.
//!
//! ```text
//! cargo run --release --example telemetry
//! ```
//!
//! PR 10's `panda_obs` gives every runtime crate a shared metrics
//! registry and a sampled per-query pipeline trace. This example drives
//! live traffic through a sharded service while a mutable store absorbs
//! writes, then dumps the merged Prometheus exposition page and the
//! per-stage trace report — the operator's view of one query's life:
//! queue → flush → scatter (routing) → shard worker (one span per
//! shard's answer to the owner or remote pass) → leaf kernel → gather
//! (both passes and the merge) → resolve, with the store's
//! WAL/compaction stages alongside. The shard counters (`shard.rounds`,
//! `shard.queries`, `shard.messages` — asks made) come from the sharded
//! index; its rounds run no collectives, so the page carries no `comm.*`
//! series.

use std::sync::Arc;

use panda::data::uniform;
use panda::obs;
use panda::prelude::*;

const SHARDS: usize = 4;
const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 100;
const K: usize = 8;

fn main() -> Result<()> {
    // Trace 1 in 4 submissions; 0 (the default) disarms tracing down to
    // a single relaxed load per submit.
    obs::trace::set_sampling(4);

    // --- traffic through the sharded distributed engine -------------
    let points: PointSet = uniform::generate(100_000, 3, 1.0, 42);
    let index = Arc::new(ShardedIndex::build(
        &points,
        SHARDS,
        &DistConfig::default(),
    )?);
    let service = QueryService::new(index, ServiceConfig::default().with_max_batch(64))?;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let handle: ServiceHandle = service.handle();
            std::thread::spawn(move || -> Result<()> {
                for r in 0..REQUESTS_PER_CLIENT {
                    let query = uniform::generate(1, 3, 1.0, (c * 1000 + r) as u64);
                    handle.submit(&QueryRequest::knn(&query, K))?.wait()?;
                }
                Ok(())
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread")?;
    }
    service.drain();

    // --- writes through the mutable store ----------------------------
    let store = MutableIndex::new(3, StoreConfig::default().with_compact_points(64))?;
    for i in 0..200u64 {
        let p = uniform::generate(1, 3, 1.0, 7000 + i);
        store.insert(p.point(0), i)?;
        if i % 5 == 0 {
            store.remove(i / 2)?;
        }
    }
    store.compact_now()?;

    // --- one merged snapshot, two renderings --------------------------
    let mut snap = service.telemetry(); // service + shards + faults
    snap.merge(&store.telemetry()); // store.* and store.wal.*
    println!("=== Prometheus exposition (text format 0.0.4) ===");
    print!("{}", obs::render_prometheus(&snap));
    println!("\n=== JSON ===");
    println!("{}", obs::render_json(&snap));

    // --- the sampled pipeline, stage by stage -------------------------
    let report = obs::TraceReport::gather();
    println!("\n=== pipeline trace report ({} traces) ===", report.traces);
    print!("{report}");

    obs::trace::set_sampling(0);
    service.shutdown();
    Ok(())
}
