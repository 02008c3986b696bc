//! Figure 5(c) — query time breakdown.
//!
//! Paper: local KNN dominates (up to 67%); find-owner ≤3%; identify
//! remote ~3.5%; remote KNN ≤3% for cosmo/plasma (the carried `r'` bound
//! prunes remote work) but 46% for dayabay, whose co-located records
//! force each query to consult ~22 remote ranks; non-overlapped
//! communication 26–29% for the 3-D datasets.

use panda_bench::runner::{run_distributed, RunConfig};
use panda_bench::table::{f, Table};
use panda_bench::Args;
use panda_core::timers::QueryBreakdown;
use panda_data::{queries_from, Dataset};

fn main() {
    let args = Args::from_env();
    let scale = args.scale();
    let seed = args.seed();

    println!("Fig 5(c) — query breakdown (% of total, pipelined)\n");
    let mut table = Table::new(&["Part", "cosmo_large", "plasma_large", "dayabay_large"]);

    let mut columns: Vec<[f64; 5]> = Vec::new();
    let mut fanouts = Vec::new();
    let mut remote_fracs = Vec::new();
    for ds in [
        Dataset::CosmoLarge,
        Dataset::PlasmaLarge,
        Dataset::DayabayLarge,
    ] {
        let row = ds.paper_row();
        let eff_scale =
            scale.min(args.usize("max-points", 8_000_000) as f64 / row.particles as f64);
        let points = ds.generate(eff_scale, seed);
        let n_queries = ((points.len() as f64 * row.query_fraction) as usize).max(64);
        let queries = queries_from(&points, n_queries, 0.01, seed + 1);
        let mut cfg = RunConfig::edison(args.usize("ranks", 16));
        cfg.query.k = row.k;
        let m = run_distributed(&points, &queries, &cfg, false);
        let v = m.query_breakdown.figure_values();
        let total: f64 = v.iter().sum();
        columns.push(v.map(|x| 100.0 * x / total.max(1e-30)));
        fanouts.push(m.remote.avg_remote_fanout());
        remote_fracs.push(m.remote.remote_fraction());
        eprintln!("  {}: query total {:.3} model s", row.name, m.query_s);
    }

    for (i, label) in QueryBreakdown::LABELS.iter().enumerate() {
        table.row(&[
            label.to_string(),
            f(columns[0][i], 1),
            f(columns[1][i], 1),
            f(columns[2][i], 1),
        ]);
    }
    table.print();

    println!(
        "\nqueries consulting >=1 remote rank: cosmo {:.0}%, plasma {:.0}%, dayabay {:.0}%  (paper: 5%, 9%, ~all)",
        remote_fracs[0] * 100.0,
        remote_fracs[1] * 100.0,
        remote_fracs[2] * 100.0
    );
    println!(
        "avg remote ranks per query:          cosmo {:.2}, plasma {:.2}, dayabay {:.2}  (paper dayabay: ~22)",
        fanouts[0], fanouts[1], fanouts[2]
    );
}
