//! Failure injection: invalid inputs must be rejected cleanly (typed
//! errors, symmetric across ranks) — never silently mis-answered.

use panda::comm::{run_cluster, ClusterConfig};
use panda::core::QueryConfig;
use panda::data::{scatter, uniform};
use panda::prelude::*;

#[test]
fn nan_coordinates_rejected_at_ingest() {
    assert!(matches!(
        PointSet::from_coords(3, vec![0.0, f32::NAN, 1.0]),
        Err(PandaError::NonFiniteCoordinate { point: 0, dim: 1 })
    ));
    assert!(matches!(
        PointSet::from_coords(2, vec![f32::INFINITY, 0.0]),
        Err(PandaError::NonFiniteCoordinate { .. })
    ));
}

#[test]
fn nan_queries_rejected_by_distributed_engine() {
    let all = uniform::generate(500, 3, 1.0, 1);
    let out = run_cluster(&ClusterConfig::new(3), |comm| {
        let mine = scatter(&all, comm.rank(), comm.size());
        let tree = build_distributed(comm, mine, &DistConfig::default()).expect("build");
        // craft a query set with a NaN smuggled in via push (push skips
        // validation; the request validation must still catch it)
        let mut q = PointSet::new(3).unwrap();
        q.push(&[0.5, f32::NAN, 0.5], 0);
        let r = query_distributed(comm, &tree, &q, &QueryConfig::with_k(3));
        matches!(r, Err(PandaError::NonFiniteCoordinate { .. }))
    });
    assert!(
        out.iter().all(|o| o.result),
        "every rank rejected symmetrically"
    );
}

#[test]
fn zero_k_and_bad_configs_rejected() {
    let all = uniform::generate(200, 3, 1.0, 2);
    let out = run_cluster(&ClusterConfig::new(2), |comm| {
        let mine = scatter(&all, comm.rank(), comm.size());
        let tree = build_distributed(comm, mine, &DistConfig::default()).expect("build");
        let q = scatter(&all, comm.rank(), comm.size());
        let mut run = |cfg| query_distributed(comm, &tree, &q, &cfg);
        let radius = |initial_radius| QueryConfig {
            initial_radius,
            ..QueryConfig::with_k(2)
        };
        let e1 = run(QueryConfig::with_k(0));
        let e2 = run(QueryConfig {
            batch_size: 0,
            ..QueryConfig::with_k(2)
        });
        let e3 = run(radius(-1.0));
        // `+inf` is the no-limit sentinel at the QueryConfig level, so the
        // non-finite rejection case is exercised with NaN here
        let e4 = run(radius(f32::NAN));
        (
            matches!(e1, Err(PandaError::ZeroK)),
            matches!(e2, Err(PandaError::BadConfig(_))),
            matches!(e3, Err(PandaError::BadRadius { .. })),
            matches!(e4, Err(PandaError::BadRadius { .. })),
        )
    });
    for o in &out {
        assert!(o.result.0 && o.result.1 && o.result.2 && o.result.3);
    }
}

#[test]
fn bad_tree_configs_rejected_before_any_work() {
    let ps = uniform::generate(100, 3, 1.0, 3);
    let bad = TreeConfig::default().with_bucket_size(0);
    assert!(matches!(
        KnnIndex::build(&ps, &bad),
        Err(PandaError::BadConfig(_))
    ));
    let bad = DistConfig {
        global_samples_per_rank: 0,
        ..DistConfig::default()
    };
    let out = run_cluster(&ClusterConfig::new(2), |comm| {
        let mine = scatter(&ps, comm.rank(), comm.size());
        matches!(
            build_distributed(comm, mine, &bad),
            Err(PandaError::BadConfig(_))
        )
    });
    assert!(out.iter().all(|o| o.result));
}

#[test]
fn mismatched_dims_across_ranks_detected() {
    // rank 0 supplies 3-D points, rank 1 supplies 2-D: the build must
    // fail with a typed error on (at least) the odd rank out, not corrupt
    // the tree. (Ranks that disagree all get DimsMismatch.)
    let out = run_cluster(&ClusterConfig::new(2), |comm| {
        let mine = if comm.rank() == 0 {
            uniform::generate(50, 3, 1.0, 4)
        } else {
            uniform::generate(50, 2, 1.0, 5)
        };
        matches!(
            build_distributed(comm, mine, &DistConfig::default()),
            Err(PandaError::DimsMismatch { .. })
        )
    });
    assert!(
        out.iter().all(|o| o.result),
        "both ranks reported the mismatch"
    );
}

#[test]
fn rank_panic_tears_down_the_cluster() {
    let result = std::panic::catch_unwind(|| {
        let cfg = ClusterConfig::new(3).with_timeout(std::time::Duration::from_millis(500));
        run_cluster(&cfg, |comm| {
            if comm.rank() == 1 {
                panic!("injected failure");
            }
            comm.barrier(); // survivors block here, then time out
        })
    });
    let err = result.expect_err("panic must propagate");
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| err.downcast_ref::<&str>().copied())
        .unwrap_or("");
    assert!(
        msg.contains("injected failure"),
        "root cause preserved, got {msg:?}"
    );
}

#[test]
fn queries_with_wrong_dims_rejected_locally() {
    let ps = uniform::generate(300, 10, 1.0, 6);
    let idx = KnnIndex::build(&ps, &TreeConfig::default()).unwrap();
    assert!(matches!(
        idx.query(&[0.0; 3], 5),
        Err(PandaError::DimsMismatch {
            expected: 10,
            got: 3
        })
    ));
}
