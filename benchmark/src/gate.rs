//! Correctness gates: nothing is timed until the answers are right.
//!
//! Exactness is the program's contract (bit-identical to brute force),
//! so the gate compares bits — `dist_sq.to_bits()` and ids — never
//! tolerances. A sample of queries is checked row by row against
//! [`BruteForce`]; everything else is held to a checksum of a result
//! that was itself produced by a gated engine.

use std::collections::{HashMap, HashSet};

use panda::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Order-sensitive FNV-1a over result rows: row lengths, distance bits
/// and ids all feed it, so a swapped pair, a dropped neighbor or one
/// flipped mantissa bit changes the sum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checksum(u64);

impl Default for Checksum {
    fn default() -> Self {
        Checksum(FNV_OFFSET)
    }
}

impl Checksum {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn row(&mut self, row: &[Neighbor]) {
        self.word(row.len() as u64);
        for n in row {
            self.word(u64::from(n.dist_sq.to_bits()));
            self.word(n.id);
        }
    }

    pub fn of_row(row: &[Neighbor]) -> Checksum {
        let mut c = Checksum::default();
        c.row(row);
        c
    }

    pub fn of_table(table: &NeighborTable) -> Checksum {
        let mut c = Checksum::default();
        for row in table.iter() {
            c.row(row);
        }
        c
    }

    /// The sum of a table from its rows' sums, for a batch cut out of a
    /// larger gated result.
    pub fn combine(rows: &[Checksum]) -> Checksum {
        let mut c = Checksum::default();
        for r in rows {
            c.word(r.0);
        }
        c
    }

    /// One checksum per row, for workloads that verify single replies.
    pub fn per_row(table: &NeighborTable) -> Vec<Checksum> {
        table.iter().map(Checksum::of_row).collect()
    }
}

fn same_bits(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.dist_sq.to_bits() == y.dist_sq.to_bits() && x.id == y.id)
}

/// `got` is a correct answer although its ids differ from brute
/// force's: the distances agree bit for bit, and every id names a
/// distinct point that really lies at its distance from `q`.
///
/// The candidate heap admits on strict `<` of the distance alone, so
/// among points tied at the k-th distance the first one *visited* stays,
/// and a tree visits in leaf order where brute force visits in id order.
/// Co-located records (a quarter of the Daya Bay set are exact copies)
/// make such ties common. Equal distances plus distinct, genuine ids is
/// the whole of exactness there: every tie group below the k-th
/// distance is then complete, and only which of the tied points fill
/// the last places is free.
fn same_up_to_ties(
    points: &PointSet,
    index_of: &HashMap<u64, usize>,
    q: &[f32],
    got: &[Neighbor],
    truth: &[Neighbor],
) -> bool {
    let mut seen = HashSet::with_capacity(got.len());
    got.len() == truth.len()
        && got.iter().zip(truth).all(|(g, t)| {
            g.dist_sq.to_bits() == t.dist_sq.to_bits()
                && seen.insert(g.id)
                && index_of
                    .get(&g.id)
                    .is_some_and(|&i| points.dist_sq_to(q, i).to_bits() == g.dist_sq.to_bits())
        })
}

/// Rows of `got` (one per query of `queries`) that are neither
/// bit-identical to `truth`'s nor the same up to which of several
/// equidistant points were kept.
pub fn mismatches_against(
    points: &PointSet,
    queries: &PointSet,
    got: &NeighborTable,
    truth: &NeighborTable,
) -> u64 {
    let mut bad = got.len().abs_diff(truth.len()) as u64;
    // built only if some row's ids differ
    let mut index_of: Option<HashMap<u64, usize>> = None;
    for (i, (a, b)) in got.iter().zip(truth.iter()).enumerate() {
        if same_bits(a, b) {
            continue;
        }
        let index_of = index_of.get_or_insert_with(|| {
            points
                .ids()
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, i))
                .collect()
        });
        if !same_up_to_ties(points, index_of, queries.point(i), a, b) {
            bad += 1;
        }
    }
    bad
}

/// Rows of `got` (one per query of `sample`) that are not an exact
/// answer over `points`, brute force being the truth. `Err` when brute
/// force itself fails.
pub fn brute_force_mismatches(
    points: &PointSet,
    sample: &PointSet,
    k: usize,
    got: &NeighborTable,
) -> Result<u64> {
    let truth = NnBackend::query(
        &BruteForce::new(points),
        &QueryRequest::knn(sample, k).with_parallel(true),
    )?;
    Ok(mismatches_against(points, sample, got, &truth.neighbors))
}

/// Every `stride`-th point of `set`, at most `n` of them, as a new set —
/// the gate's deterministic query sample.
pub fn sample_every(set: &PointSet, n: usize) -> (PointSet, Vec<usize>) {
    let n = n.min(set.len());
    let stride = (set.len() / n.max(1)).max(1);
    let picks: Vec<usize> = (0..n).map(|i| i * stride).collect();
    let idx: Vec<u32> = picks.iter().map(|&i| i as u32).collect();
    (set.select(&idx), picks)
}

/// Copy the picked rows of `table` into their own table.
pub fn pick_rows(table: &NeighborTable, picks: &[usize]) -> NeighborTable {
    let mut out = NeighborTable::with_capacity(picks.len(), 0);
    for &i in picks {
        out.push_row(table.row(i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<Neighbor>> {
        vec![
            vec![
                Neighbor {
                    dist_sq: 0.25,
                    id: 7,
                },
                Neighbor {
                    dist_sq: 1.5,
                    id: 2,
                },
            ],
            vec![Neighbor {
                dist_sq: 3.0,
                id: 9,
            }],
        ]
    }

    fn sum(rows: &[Vec<Neighbor>]) -> Checksum {
        Checksum::of_table(&NeighborTable::from_nested(rows.to_vec()))
    }

    #[test]
    fn checksum_rejects_a_one_bit_flipped_neighbor() {
        let good = sum(&rows());
        assert_eq!(good, sum(&rows()), "same rows, same sum");

        let mut flipped = rows();
        let d = &mut flipped[0][1].dist_sq;
        *d = f32::from_bits(d.to_bits() ^ 1); // lowest mantissa bit
        assert_ne!(good, sum(&flipped));

        let mut wrong_id = rows();
        wrong_id[1][0].id ^= 1;
        assert_ne!(good, sum(&wrong_id));

        let mut swapped = rows();
        swapped[0].swap(0, 1);
        assert_ne!(good, sum(&swapped));

        // moving a neighbor across a row boundary keeps the arena but not the sum
        let moved = vec![vec![rows()[0][0]], vec![rows()[0][1], rows()[1][0]]];
        assert_ne!(good, sum(&moved));
    }

    #[test]
    fn equidistant_points_may_swap_but_not_be_invented() {
        // ids 0..4 all sit at x = 1; id 4 sits at x = 5
        let points = PointSet::from_coords(1, vec![1.0, 1.0, 1.0, 1.0, 5.0]).unwrap();
        let q = PointSet::from_coords(1, vec![0.0]).unwrap();
        let table = |ids: [u64; 2], d: f32| {
            NeighborTable::from_nested(vec![ids.map(|id| Neighbor { dist_sq: d, id }).to_vec()])
        };
        let count = |t: &NeighborTable| brute_force_mismatches(&points, &q, 2, t).unwrap();
        assert_eq!(count(&table([0, 1], 1.0)), 0, "brute force's own pick");
        assert_eq!(
            count(&table([2, 3], 1.0)),
            0,
            "another two of the tied four"
        );
        assert_eq!(count(&table([2, 2], 1.0)), 1, "the same point twice");
        assert_eq!(
            count(&table([2, 4], 1.0)),
            1,
            "id 4 is not at that distance"
        );
        assert_eq!(count(&table([2, 9], 1.0)), 1, "id 9 does not exist");
        assert_eq!(count(&table([0, 1], 1.5)), 1, "wrong distance");
    }

    #[test]
    fn brute_force_gate_counts_the_flipped_row() {
        let points = PointSet::from_coords(1, (0..64).map(|i| i as f32).collect()).unwrap();
        let (sample, picks) = sample_every(&points, 8);
        assert_eq!(picks, vec![0, 8, 16, 24, 32, 40, 48, 56]);
        let index = KnnIndex::build(&points, &TreeConfig::default()).unwrap();
        let res = index.query_session(&QueryRequest::knn(&sample, 3)).unwrap();
        assert_eq!(
            brute_force_mismatches(&points, &sample, 3, &res.neighbors).unwrap(),
            0
        );
        let mut nested = res.neighbors.to_nested();
        let d = &mut nested[5][2].dist_sq;
        *d = f32::from_bits(d.to_bits() ^ 1);
        let bad = NeighborTable::from_nested(nested);
        assert_eq!(
            brute_force_mismatches(&points, &sample, 3, &bad).unwrap(),
            1
        );
    }
}
