//! The full distributed pipeline on a simulated 16-rank cluster:
//! global kd-tree construction with redistribution, then batched,
//! pipelined distributed KNN — with the paper's Fig. 5 style breakdowns.
//!
//! ```text
//! cargo run --release --example distributed_cluster
//! ```

use panda::comm::{makespan, run_cluster, total_stats, ClusterConfig, MachineProfile};
use panda::core::timers::{BuildBreakdown, QueryBreakdown};
use panda::core::QueryConfig;
use panda::data::plasma::{self, PlasmaParams};
use panda::data::{queries_from, scatter};
use panda::prelude::*;

fn main() {
    let ranks = 16;
    let points = plasma::generate(500_000, &PlasmaParams::default(), 3);
    let queries = queries_from(&points, 50_000, 0.005, 4);
    println!(
        "plasma dataset: {} particles (Harris sheets), {} queries, {ranks} ranks × 24 modeled threads\n",
        points.len(),
        queries.len(),
    );

    let cluster = ClusterConfig::new(ranks).with_cost(MachineProfile::EdisonNode.cost_model());
    let outcomes = run_cluster(&cluster, |comm| {
        // Each rank starts with an arbitrary slice of the data …
        let mine = scatter(&points, comm.rank(), comm.size());
        // … and ends with one spatial cell of it, plus a local tree.
        let tree = build_distributed(comm, mine, &DistConfig::default()).expect("build");
        comm.barrier();
        let t_build = comm.now();
        let myq = scatter(&queries, comm.rank(), comm.size());
        let res = query_distributed(comm, &tree, &myq, &QueryConfig::with_k(5)).expect("query");
        (
            t_build,
            tree.breakdown,
            res.breakdown,
            res.remote,
            tree.points.len(),
        )
    });

    let build_makespan = outcomes.iter().map(|o| o.result.0).fold(0.0, f64::max);
    let total = makespan(&outcomes);
    println!("virtual time: construction {build_makespan:.3}s, total {total:.3}s");

    let mut bb = BuildBreakdown::default();
    let mut qb = QueryBreakdown::default();
    for o in &outcomes {
        bb.add(&o.result.1);
        qb.add(&o.result.2);
    }
    println!("\nconstruction breakdown (Fig 5b):");
    for (label, pct) in BuildBreakdown::LABELS.iter().zip(bb.percentages()) {
        println!("  {label:<34} {pct:5.1}%");
    }
    let qv = qb.figure_values();
    let qt: f64 = qv.iter().sum();
    println!("\nquery breakdown (Fig 5c, pipelined):");
    for (label, v) in QueryBreakdown::LABELS.iter().zip(qv) {
        println!("  {label:<34} {:5.1}%", 100.0 * v / qt.max(1e-30));
    }

    let stats = total_stats(&outcomes);
    let remote_pairs: u64 = outcomes.iter().map(|o| o.result.3.remote_pairs_sent).sum();
    let sizes: Vec<usize> = outcomes.iter().map(|o| o.result.4).collect();
    println!(
        "\ntraffic: {} collective ops, {} total bytes; {:.3} remote ranks/query",
        stats.collectives,
        stats.total_bytes(),
        remote_pairs as f64 / queries.len() as f64,
    );
    println!(
        "load balance: min {} / max {} points per rank",
        sizes.iter().min().expect("ranks"),
        sizes.iter().max().expect("ranks"),
    );
}
