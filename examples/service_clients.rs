//! The query service end to end: many closed-loop clients, one index.
//!
//! ```text
//! cargo run --release --example service_clients
//! ```
//!
//! Each client thread plays a user session: submit one small request,
//! wait for the answer, submit the next. Individually those queries are
//! too small to batch — the service coalesces them across clients into
//! micro-batches, the backend orders and executes each batch on the
//! persistent worker pool, and hands every client a zero-copy slice of the shared
//! response. The run ends with the service's own telemetry: how big the
//! coalesced batches actually got, and what latency the clients paid.

use std::sync::Arc;

use panda::data::uniform;
use panda::prelude::*;

const CLIENTS: usize = 16;
const REQUESTS_PER_CLIENT: usize = 200;
const K: usize = 8;

fn main() -> Result<()> {
    // One shared index behind the service (any Send + Sync backend).
    let points: PointSet = uniform::generate(200_000, 3, 1.0, 42);
    let cfg = TreeConfig::default().with_parallel(true);
    let index = Arc::new(KnnIndex::build(&points, &cfg)?);
    println!("indexed {} points in 3-D", index.len());

    let service = QueryService::new(
        index,
        ServiceConfig::default()
            .with_max_batch(128) // cap on one coalesced batch
            .with_queue_capacity(4096) // bounded queue
            .with_overflow(OverflowPolicy::Block), // backpressure
    )?;

    // Closed-loop clients: each waits for its ticket before sending the
    // next request, like an interactive user.
    let t0 = std::time::Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let handle: ServiceHandle = service.handle();
            std::thread::spawn(move || -> Result<f64> {
                let mut checksum = 0.0f64;
                for r in 0..REQUESTS_PER_CLIENT {
                    let seed = (c * REQUESTS_PER_CLIENT + r) as u64;
                    let query = uniform::generate(1, 3, 1.0, 1000 + seed);
                    let ticket = handle.submit(&QueryRequest::knn(&query, K))?;
                    let reply = ticket.wait()?;
                    // zero-copy: `row` is a slice into the shared arena
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
    println!("  max queue depth      {}", stats.max_queue_depth);
    println!(
        "  latency p50 / p99    {:.0}µs / {:.0}µs",
        stats.p50_latency_seconds() * 1e6,
        stats.p99_latency_seconds() * 1e6
    );
    let busiest = stats
        .batch_hist
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| format!("2^{i}:{c}"))
        .collect::<Vec<_>>()
        .join("  ");
    println!("  batch-size histogram {busiest}");

    service.shutdown();
    Ok(())
}
