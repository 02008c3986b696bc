//! Substrate benchmarks: collective throughput of the simulated cluster
//! and end-to-end distributed build/query wall-clock at small scale.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use panda_comm::{run_cluster, ClusterConfig, ReduceOp};
use panda_core::build_distributed::build_distributed;
use panda_core::query_distributed::query_distributed;
use panda_core::{DistConfig, QueryConfig};
use panda_data::{queries_from, scatter, uniform};

fn bench_collectives(c: &mut Criterion) {
    let mut g = c.benchmark_group("collectives");
    g.sample_size(10);
    for p in [4usize, 16] {
        g.bench_with_input(BenchmarkId::new("allreduce_vec_4k", p), &p, |b, &p| {
            let cfg = ClusterConfig::new(p);
            b.iter(|| {
                let out = run_cluster(&cfg, |comm| {
                    let v = vec![comm.rank() as u64; 4096];
                    comm.world().allreduce_vec_u64(v, ReduceOp::Sum)[0]
                });
                black_box(out[0].result)
            })
        });
        g.bench_with_input(BenchmarkId::new("alltoallv_64k_f32", p), &p, |b, &p| {
            let cfg = ClusterConfig::new(p);
            b.iter(|| {
                let out = run_cluster(&cfg, |comm| {
                    let sends: Vec<Vec<f32>> = (0..comm.size())
                        .map(|_| vec![1.0f32; 65536 / comm.size()])
                        .collect();
                    comm.world().alltoallv(sends).len()
                });
                black_box(out[0].result)
            })
        });
    }
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("distributed_end_to_end");
    g.sample_size(10);
    let points = uniform::generate(20_000, 3, 1.0, 5);
    let queries = queries_from(&points, 500, 0.01, 6);
    for p in [2usize, 8] {
        g.bench_with_input(BenchmarkId::new("build_query", p), &p, |b, &p| {
            let cfg = ClusterConfig::new(p);
            b.iter(|| {
                let out = run_cluster(&cfg, |comm| {
                    let mine = scatter(&points, comm.rank(), comm.size());
                    let tree = build_distributed(comm, mine, &DistConfig::default()).unwrap();
                    let myq = scatter(&queries, comm.rank(), comm.size());
                    let res =
                        query_distributed(comm, &tree, &myq, &QueryConfig::with_k(5)).unwrap();
                    res.neighbors.len()
                });
                black_box(out.len())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_collectives, bench_end_to_end);
criterion_main!(benches);
