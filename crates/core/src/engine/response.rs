//! Structured query results: the flat CSR [`NeighborTable`] and the
//! [`QueryResponse`] envelope every [`crate::engine::NnBackend`] returns.

use crate::counters::QueryCounters;
use crate::error::{PandaError, Result};
use crate::heap::Neighbor;

/// Per-query neighbor lists stored CSR-style: one `offsets` array and one
/// contiguous [`Neighbor`] arena, instead of a `Vec<Vec<Neighbor>>` with
/// one heap allocation per query.
///
/// Row `i`'s neighbors live at `arena[offsets[i]..offsets[i + 1]]`
/// (ascending distance, ties by id). `offsets` always has `len() + 1`
/// entries with `offsets[0] == 0`; rows may be empty (radius-limited
/// queries with no match).
#[derive(Clone, Debug, PartialEq)]
pub struct NeighborTable {
    offsets: Vec<u32>,
    arena: Vec<Neighbor>,
}

impl Default for NeighborTable {
    /// Same as [`Self::new`]: a derived default would leave `offsets`
    /// empty, violating the `len() + 1` invariant every accessor relies
    /// on.
    fn default() -> Self {
        Self::new()
    }
}

impl NeighborTable {
    /// An empty table (zero queries).
    pub fn new() -> Self {
        Self {
            offsets: vec![0],
            arena: Vec::new(),
        }
    }

    /// An empty table pre-sized for `n_queries` rows of ~`per_query`
    /// neighbors each.
    pub fn with_capacity(n_queries: usize, per_query: usize) -> Self {
        let mut offsets = Vec::with_capacity(n_queries + 1);
        offsets.push(0);
        Self {
            offsets,
            arena: Vec::with_capacity(n_queries * per_query),
        }
    }

    /// Build from raw CSR parts. `offsets` must start at 0, be
    /// monotonically non-decreasing, and end at `arena.len()`.
    pub fn from_parts(offsets: Vec<u32>, arena: Vec<Neighbor>) -> Result<Self> {
        let ok = offsets.first() == Some(&0)
            && offsets.windows(2).all(|w| w[0] <= w[1])
            && offsets.last().copied() == Some(arena.len() as u32)
            && arena.len() <= u32::MAX as usize;
        if !ok {
            return Err(PandaError::BadConfig(
                "NeighborTable offsets must start at 0, be monotone, and end at the arena length"
                    .into(),
            ));
        }
        Ok(Self { offsets, arena })
    }

    /// Convert from the legacy nested representation.
    pub fn from_nested(nested: Vec<Vec<Neighbor>>) -> Self {
        let total: usize = nested.iter().map(Vec::len).sum();
        assert!(total <= u32::MAX as usize, "neighbor arena exceeds u32");
        let mut t = Self::with_capacity(nested.len(), total / nested.len().max(1));
        for row in &nested {
            t.push_row(row);
        }
        t
    }

    /// Convert to the legacy nested representation (allocates one `Vec`
    /// per query — only for interop with deprecated APIs).
    pub fn to_nested(&self) -> Vec<Vec<Neighbor>> {
        self.iter().map(<[Neighbor]>::to_vec).collect()
    }

    /// Consuming variant of [`Self::to_nested`]: drains the arena into
    /// the per-query vectors instead of cloning it, so the table's
    /// backing storage is released as the rows are produced.
    pub fn into_nested(self) -> Vec<Vec<Neighbor>> {
        let Self { offsets, arena } = self;
        let mut rows = Vec::with_capacity(offsets.len() - 1);
        let mut drain = arena.into_iter();
        for w in offsets.windows(2) {
            rows.push(drain.by_ref().take((w[1] - w[0]) as usize).collect());
        }
        rows
    }

    /// Allocate a table with the given per-row neighbor counts, every row
    /// zero-filled, for in-place assembly through [`Self::row_mut`]. The
    /// sharded and distributed engines gather this way: they learn each
    /// row's size from the gathered results first, then write the rows
    /// directly into the final storage — no intermediate
    /// `Vec<Vec<Neighbor>>`. (The single-node batch engine knows its row
    /// width up front and builds its table with [`Self::from_parts`].)
    ///
    /// Errors with [`PandaError::BadConfig`] when the total neighbor
    /// count exceeds the `u32` arena limit.
    pub fn with_row_counts(counts: &[u32]) -> Result<Self> {
        let total: u64 = counts.iter().map(|&c| u64::from(c)).sum();
        if total > u64::from(u32::MAX) {
            return Err(PandaError::BadConfig(
                "neighbor arena exceeds the 2^32 CSR limit; split the batch".into(),
            ));
        }
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &c in counts {
            acc += c;
            offsets.push(acc);
        }
        let arena = vec![
            Neighbor {
                dist_sq: 0.0,
                id: 0
            };
            total as usize
        ];
        Ok(Self { offsets, arena })
    }

    /// Mutable access to row `i` for in-place assembly (see
    /// [`Self::with_row_counts`]). Panics when out of range.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [Neighbor] {
        &mut self.arena[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of queries (rows).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total neighbors across all rows.
    pub fn total_neighbors(&self) -> usize {
        self.arena.len()
    }

    /// Row `i`'s neighbors (ascending distance). Panics when out of
    /// range; see [`Self::get`] for the checked variant.
    #[inline]
    pub fn row(&self, i: usize) -> &[Neighbor] {
        &self.arena[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Row `i`'s neighbors, or `None` when `i >= len()`.
    pub fn get(&self, i: usize) -> Option<&[Neighbor]> {
        (i < self.len()).then(|| self.row(i))
    }

    /// Iterate rows in query order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Neighbor]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.arena[w[0] as usize..w[1] as usize])
    }

    /// The raw offsets array (`len() + 1` entries).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The flat neighbor arena, all rows concatenated in query order.
    pub fn arena(&self) -> &[Neighbor] {
        &self.arena
    }

    /// Append one row (used by sequential assembly paths).
    pub fn push_row(&mut self, neighbors: &[Neighbor]) {
        self.arena.extend_from_slice(neighbors);
        assert!(self.arena.len() <= u32::MAX as usize, "arena exceeds u32");
        self.offsets.push(self.arena.len() as u32);
    }
}

impl std::ops::Index<usize> for NeighborTable {
    type Output = [Neighbor];

    fn index(&self, i: usize) -> &[Neighbor] {
        self.row(i)
    }
}

impl<'a> IntoIterator for &'a NeighborTable {
    type Item = &'a [Neighbor];
    type IntoIter = Box<dyn ExactSizeIterator<Item = &'a [Neighbor]> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// What every backend returns from [`crate::engine::NnBackend::query`]:
/// the CSR neighbor table plus the work counters and wall timing. The
/// distributed pipeline's remote-traffic statistics and per-phase
/// breakdown are read from the SPMD driver's
/// [`crate::query_distributed::DistQueryOutput`], which the figures use.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// Per-query neighbors in input order.
    pub neighbors: NeighborTable,
    /// Aggregate traversal work counters.
    pub counters: QueryCounters,
    /// Real wall-clock seconds spent answering the request.
    pub wall_seconds: f64,
}

impl QueryResponse {
    /// A response from its three parts.
    pub fn local(neighbors: NeighborTable, counters: QueryCounters, wall_seconds: f64) -> Self {
        Self {
            neighbors,
            counters,
            wall_seconds,
        }
    }

    /// Number of queries answered.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// True when no queries were answered.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(d: f32, id: u64) -> Neighbor {
        Neighbor { dist_sq: d, id }
    }

    #[test]
    fn csr_round_trips_nested() {
        let nested = vec![
            vec![n(0.5, 1), n(1.0, 2)],
            vec![],
            vec![n(0.25, 7)],
            vec![n(0.1, 3), n(0.2, 4), n(0.3, 5)],
        ];
        let t = NeighborTable::from_nested(nested.clone());
        assert_eq!(t.len(), 4);
        assert_eq!(t.total_neighbors(), 6);
        assert_eq!(t.to_nested(), nested);
        assert_eq!(t.row(1), &[] as &[Neighbor]);
        assert_eq!(&t[3], nested[3].as_slice());
        assert_eq!(t.get(4), None);
        let rows: Vec<usize> = t.iter().map(<[Neighbor]>::len).collect();
        assert_eq!(rows, vec![2, 0, 1, 3]);
    }

    #[test]
    fn from_parts_validates() {
        assert!(NeighborTable::from_parts(vec![0, 1], vec![n(0.0, 0)]).is_ok());
        // does not start at 0
        assert!(NeighborTable::from_parts(vec![1, 1], vec![n(0.0, 0)]).is_err());
        // not monotone
        assert!(NeighborTable::from_parts(vec![0, 2, 1], vec![n(0.0, 0), n(0.0, 1)]).is_err());
        // does not cover the arena
        assert!(NeighborTable::from_parts(vec![0, 1], vec![n(0.0, 0), n(0.0, 1)]).is_err());
        // empty offsets
        assert!(NeighborTable::from_parts(vec![], vec![]).is_err());
    }

    #[test]
    fn into_nested_drains_and_matches_to_nested() {
        let nested = vec![vec![n(0.5, 1), n(1.0, 2)], vec![], vec![n(0.25, 7)]];
        let t = NeighborTable::from_nested(nested.clone());
        assert_eq!(t.to_nested(), nested);
        assert_eq!(t.into_nested(), nested);
        // degenerate: empty table drains to no rows
        assert!(NeighborTable::new().into_nested().is_empty());
    }

    #[test]
    fn with_row_counts_and_row_mut_assemble_in_place() {
        let mut t = NeighborTable::with_row_counts(&[2, 0, 1]).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_neighbors(), 3);
        t.row_mut(0).copy_from_slice(&[n(0.5, 9), n(1.5, 3)]);
        t.row_mut(2)[0] = n(0.1, 7);
        assert_eq!(t.row(0), &[n(0.5, 9), n(1.5, 3)]);
        assert_eq!(t.row(1), &[] as &[Neighbor]);
        assert_eq!(t.row(2), &[n(0.1, 7)]);
        assert_eq!(t.offsets(), &[0, 2, 2, 3]);
    }

    #[test]
    fn with_row_counts_rejects_u32_overflow() {
        // the total is checked before any allocation happens
        let err = NeighborTable::with_row_counts(&[u32::MAX, u32::MAX]).unwrap_err();
        assert!(matches!(err, PandaError::BadConfig(_)));
        assert!(err.to_string().contains("2^32"));
    }

    #[test]
    fn empty_table() {
        let t = NeighborTable::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.total_neighbors(), 0);
        // Default upholds the offsets invariant (a derived default would
        // panic in len()/into_nested())
        let d = NeighborTable::default();
        assert_eq!(d, t);
        assert!(d.into_nested().is_empty());
    }

    #[test]
    fn push_row_appends() {
        let mut t = NeighborTable::with_capacity(2, 2);
        t.push_row(&[n(1.0, 1)]);
        t.push_row(&[n(2.0, 2), n(3.0, 3)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.offsets(), &[0, 1, 3]);
        assert_eq!(t.arena().len(), 3);
    }

    #[test]
    fn response_local_has_no_remote() {
        let r = QueryResponse::local(NeighborTable::new(), QueryCounters::default(), 0.1);
        assert!(r.is_empty());
        assert_eq!(r.counters, QueryCounters::default());
        assert_eq!(r.wall_seconds, 0.1);
    }
}
