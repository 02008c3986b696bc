//! Micro-kernels: packed-bucket distance scan (scalar two-pass vs fused
//! portable vs fused AVX2), batched querying (input vs Morton order),
//! bounded heap, histogram binning (binary vs sub-interval), partition.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use panda_core::config::{HistScan, QueryOrder};
use panda_core::engine::QueryRequest;
use panda_core::hist::SampledHistogram;
use panda_core::knn::KnnIndex;
use panda_core::local_tree::PackedLeaves;
use panda_core::partition::partition_in_place;
use panda_core::rng::SplitRng;
use panda_core::{KnnHeap, PointSet, TreeConfig};

fn bench_distance_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("bucket_distances");
    for dims in [3usize, 10, 15] {
        let mut pl = PackedLeaves::new(dims);
        let n_buckets = 256;
        for b in 0..n_buckets {
            pl.push_leaf(32, |i, d| ((b * 31 + i * 7 + d) % 97) as f32, |i| i as u64);
        }
        let q: Vec<f32> = (0..dims).map(|d| d as f32).collect();
        let mut out = Vec::new();
        g.bench_with_input(BenchmarkId::new("packed", dims), &dims, |bench, _| {
            bench.iter(|| {
                let mut acc = 0.0f32;
                for b in 0..n_buckets {
                    pl.distances(b * 32, 32, black_box(&q), &mut out);
                    acc += out[0];
                }
                black_box(acc)
            })
        });
        // strided AoS scan for contrast (what the baselines do)
        let ps = PointSet::from_coords(
            dims,
            (0..n_buckets * 32 * dims)
                .map(|i| (i % 97) as f32)
                .collect(),
        )
        .unwrap();
        g.bench_with_input(BenchmarkId::new("strided", dims), &dims, |bench, _| {
            bench.iter(|| {
                let mut acc = 0.0f32;
                for i in 0..ps.len() {
                    acc += ps.dist_sq_to(black_box(&q), i);
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

/// Scalar two-pass reference vs the fused kernels, under a realistic
/// tight heap bound (k = 5 over a stream of buckets).
fn bench_leaf_kernel_fused(c: &mut Criterion) {
    let mut g = c.benchmark_group("leaf_kernel");
    for dims in [3usize, 10] {
        let mut pl = PackedLeaves::new(dims);
        let n_buckets = 256;
        for b in 0..n_buckets {
            pl.push_leaf(
                32,
                |i, d| ((b * 31 + i * 7 + d) % 97) as f32,
                |i| (b * 32 + i) as u64,
            );
        }
        let q: Vec<f32> = (0..dims).map(|d| d as f32).collect();
        let mut out = Vec::new();
        g.bench_with_input(
            BenchmarkId::new("scalar_two_pass", dims),
            &dims,
            |bench, _| {
                bench.iter(|| {
                    let mut heap = KnnHeap::new(5);
                    for b in 0..n_buckets {
                        pl.distances(b * 32, 32, black_box(&q), &mut out);
                        for (i, &d) in out.iter().enumerate() {
                            if d < heap.bound_sq() {
                                heap.offer(d, (b * 32 + i) as u64);
                            }
                        }
                    }
                    black_box(heap.bound_sq())
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("fused_portable", dims),
            &dims,
            |bench, _| {
                bench.iter(|| {
                    let mut heap = KnnHeap::new(5);
                    for b in 0..n_buckets {
                        pl.scan_portable(b * 32, 32, black_box(&q), &mut heap, |_| true);
                    }
                    black_box(heap.bound_sq())
                })
            },
        );
        g.bench_with_input(BenchmarkId::new("fused_auto", dims), &dims, |bench, _| {
            bench.iter(|| {
                let mut heap = KnnHeap::new(5);
                for b in 0..n_buckets {
                    pl.scan_and_offer(b * 32, 32, black_box(&q), &mut heap);
                }
                black_box(heap.bound_sq())
            })
        });
    }
    g.finish();
}

/// Default-order vs Input-order vs Morton-order batched querying on
/// uniform data (the default runs the locality rule).
fn bench_query_order(c: &mut Criterion) {
    let mut g = c.benchmark_group("query_batch_order");
    let mut rng = SplitRng::new(99);
    let dims = 3;
    let coords: Vec<f32> = (0..60_000 * dims)
        .map(|_| (rng.next_f64() * 100.0) as f32)
        .collect();
    let ps = PointSet::from_coords(dims, coords).unwrap();
    let qcoords: Vec<f32> = (0..4096 * dims)
        .map(|_| (rng.next_f64() * 100.0) as f32)
        .collect();
    let queries = PointSet::from_coords(dims, qcoords).unwrap();
    let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
    for (name, order) in [
        ("default", None),
        ("input", Some(QueryOrder::Input)),
        ("morton", Some(QueryOrder::Morton)),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut req = QueryRequest::knn(black_box(&queries), 5);
                if let Some(order) = order {
                    req = req.with_order(order);
                }
                black_box(idx.query_session(&req).unwrap().len())
            })
        });
    }
    g.finish();
}

fn bench_heap(c: &mut Criterion) {
    let values: Vec<f32> = (0..4096u64)
        .map(|i| ((i.wrapping_mul(2654435761)) % 10000) as f32)
        .collect();
    for k in [5usize, 32] {
        c.bench_function(&format!("knn_heap_offer_k{k}"), |b| {
            b.iter(|| {
                let mut h = KnnHeap::new(k);
                for (i, &v) in values.iter().enumerate() {
                    h.offer(black_box(v), i as u64);
                }
                black_box(h.bound_sq())
            })
        });
    }
}

fn bench_hist(c: &mut Criterion) {
    let samples: Vec<f32> = (0..1024).map(|i| i as f32).collect();
    let hist = SampledHistogram::from_samples(samples);
    let values: Vec<f32> = (0..65_536u64)
        .map(|i| ((i.wrapping_mul(40503)) % 1024) as f32 + 0.5)
        .collect();
    let mut counts = vec![0u64; hist.n_bins()];
    let mut g = c.benchmark_group("hist_binning");
    for (name, scan) in [
        ("binary", HistScan::Binary),
        ("sub_interval", HistScan::SubInterval),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                counts.iter_mut().for_each(|x| *x = 0);
                hist.count_into(black_box(values.iter().copied()), &mut counts, scan);
                black_box(counts[0])
            })
        });
    }
    g.finish();
}

fn bench_partition(c: &mut Criterion) {
    let values: Vec<f32> = (0..65_536u64)
        .map(|i| ((i.wrapping_mul(2654435761)) % 1000) as f32)
        .collect();
    let ps = PointSet::from_coords(1, values).unwrap();
    c.bench_function("partition_in_place_64k", |b| {
        b.iter(|| {
            let mut idx: Vec<u32> = (0..ps.len() as u32).collect();
            black_box(partition_in_place(&ps, &mut idx, 0, 500.0))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_distance_kernel, bench_leaf_kernel_fused, bench_query_order, bench_heap,
        bench_hist, bench_partition
}
criterion_main!(benches);
