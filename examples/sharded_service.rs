//! Sharded serving: the distributed engine behind the query service.
//!
//! ```text
//! cargo run --release --example sharded_service
//! ```
//!
//! `ShardedIndex` holds each shard of the distributed kd-tree as its own
//! local index and runs a round's passes on the caller or the pool, so
//! the front handle is `Send + Sync` and drops straight into
//! `QueryService` — the same traffic layer that serves the single-node
//! engines. This example builds a 4-shard index, fronts it with the
//! service, drives closed-loop clients with uniform random queries, and
//! prints the shard + batching telemetry.

use std::sync::Arc;

use panda::data::uniform;
use panda::prelude::*;

const SHARDS: usize = 4;
const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 200;
const K: usize = 8;

fn main() -> Result<()> {
    let points: PointSet = uniform::generate(200_000, 3, 1.0, 42);
    let index = Arc::new(ShardedIndex::build(
        &points,
        SHARDS,
        &DistConfig::default(),
    )?);
    println!(
        "indexed {} points in 3-D across {} shards",
        index.len(),
        index.shards()
    );

    let service = QueryService::new(
        index.clone(),
        ServiceConfig::default()
            .with_max_batch(128)
            .with_queue_capacity(4096)
            .with_overflow(OverflowPolicy::Block),
    )?;

    let t0 = std::time::Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let handle: ServiceHandle = service.handle();
            std::thread::spawn(move || -> Result<f64> {
                let mut checksum = 0.0f64;
                for r in 0..REQUESTS_PER_CLIENT {
                    let seed = (c * REQUESTS_PER_CLIENT + r) as u64;
                    let query = uniform::generate(1, 3, 1.0, 1000 + seed);
                    let reply = handle.submit(&QueryRequest::knn(&query, K))?.wait()?;
                    checksum += f64::from(reply.row(0)[0].dist_sq);
                }
                Ok(checksum)
            })
        })
        .collect();
    let mut checksum = 0.0;
    for w in workers {
        checksum += w.join().expect("client thread")?;
    }
    let wall = t0.elapsed().as_secs_f64();

    let total = CLIENTS * REQUESTS_PER_CLIENT;
    let stats: ServiceStats = service.stats();
    println!(
        "\n{total} requests from {CLIENTS} clients in {wall:.3}s  ({:.0} q/s)",
        total as f64 / wall
    );
    println!("nearest-distance checksum {checksum:.4}");
    println!("\nservice telemetry:");
    println!("  batches dispatched   {}", stats.batches);
    println!(
        "  mean batch size      {:.1} queries",
        stats.mean_batch_size()
    );
    println!(
        "  latency p50 / p99    {:.0}µs / {:.0}µs",
        stats.p50_latency_seconds() * 1e6,
        stats.p99_latency_seconds() * 1e6
    );

    service.shutdown();
    Ok(())
}
