//! §V-C science result — 3-class Daya Bay classification.
//!
//! Paper: 87% accuracy classifying raw (autoencoder-embedded) Daya Bay
//! records into 3 physics-event classes with KNN majority voting — the
//! first direct ML classification of that dataset without physics
//! reconstruction. The generator's class geometry is calibrated so k=5
//! majority voting lands in the same band; distance-weighted voting (the
//! paper's proposed refinement) is reported alongside.

use panda_bench::table::{f, Table};
use panda_bench::Args;
use panda_comm::{run_cluster, ClusterConfig, MachineProfile};
use panda_core::build_distributed::build_distributed;
use panda_core::classify::{majority_vote, weighted_vote, ConfusionMatrix};
use panda_core::query_distributed::query_distributed;
use panda_core::{DistConfig, QueryConfig};
use panda_data::dayabay::{self, DayaBayParams};
use panda_data::scatter;

fn main() {
    let args = Args::from_env();
    let n = args.usize("n", 40_000);
    let ranks = args.usize("ranks", 4);
    let k = args.usize("k", 5);
    let seed = args.seed();

    let lp = dayabay::generate(n, &DayaBayParams::default(), seed);
    let (train, test) = lp.split(0.25, seed + 1);
    println!(
        "Daya Bay classification: {} train / {} test records, 10-D, {} classes, k={k}, {ranks} ranks\n",
        train.len(),
        test.len(),
        lp.n_classes
    );

    let labels = lp.labels.clone();
    let n_classes = lp.n_classes;
    let cluster = ClusterConfig::new(ranks).with_cost(MachineProfile::EdisonNode.cost_model());
    let outcomes = run_cluster(&cluster, |comm| {
        let mine = scatter(&train, comm.rank(), comm.size());
        let tree = build_distributed(comm, mine, &DistConfig::default()).expect("build");
        let myq = scatter(&test, comm.rank(), comm.size());
        let res = query_distributed(comm, &tree, &myq, &QueryConfig::with_k(k)).expect("query");
        // classify locally; return (truth, majority, weighted) triples
        (0..myq.len())
            .map(|i| {
                let truth = labels[myq.id(i) as usize];
                let row = res.neighbors.row(i);
                let maj =
                    majority_vote(row, |id| labels[id as usize]).expect("non-empty neighbors");
                let wgt = weighted_vote(row, |id| labels[id as usize], 1e-6)
                    .expect("non-empty neighbors");
                (truth, maj, wgt)
            })
            .collect::<Vec<_>>()
    });

    let mut cm_major = ConfusionMatrix::new(n_classes as usize);
    let mut cm_weighted = ConfusionMatrix::new(n_classes as usize);
    for o in &outcomes {
        for &(truth, maj, wgt) in &o.result {
            cm_major.record(truth, maj);
            cm_weighted.record(truth, wgt);
        }
    }

    let mut table = Table::new(&["Method", "Accuracy", "Paper"]);
    table.row(&[
        format!("majority vote (k={k})"),
        f(cm_major.accuracy() * 100.0, 1) + "%",
        "87%".into(),
    ]);
    table.row(&[
        format!("distance-weighted (k={k})"),
        f(cm_weighted.accuracy() * 100.0, 1) + "%",
        "(future work)".into(),
    ]);
    table.print();

    println!("\nconfusion matrix (majority vote; rows = truth, cols = predicted):");
    let mut cmt = Table::new(&["class", "0", "1", "2", "recall"]);
    let recalls = cm_major.recall();
    for t in 0..n_classes {
        cmt.row(&[
            t.to_string(),
            cm_major.get(t, 0).to_string(),
            cm_major.get(t, 1).to_string(),
            cm_major.get(t, 2).to_string(),
            f(recalls[t as usize] * 100.0, 1) + "%",
        ]);
    }
    cmt.print();

    assert!(
        cm_major.total() as usize == test.len(),
        "every test record classified exactly once"
    );
}
