//! Crash-point recovery sweep for the durable mutable store.
//!
//! The contract under test (see `panda_store`'s "Durability contract"):
//! for a store opened with [`MutableIndex::open`] under
//! [`FsyncPolicy::PerWrite`], a kill at **any** instant — torn mid-WAL
//! write, failed fsync, half-written snapshot, missed snapshot rename —
//! must reopen to an index **bit-identical to brute force over exactly
//! the acknowledged write prefix**: never a hang, a torn point, a
//! reordering, or a resurrected delete. The batched fsync policies may
//! only *widen the window* of acknowledged-but-lost writes; the
//! survivor is still an exact prefix.
//!
//! The sweep drives a ≥300-step scripted insert/query/delete history
//! and, for each durability fault point, kills the run at its 1st hit,
//! 2nd hit, ... until a full history passes with no fire — so every
//! single WAL append, WAL fsync, snapshot write, and snapshot rename in
//! the history gets a kill injected into it. Arming takes the
//! process-wide faultpoint exclusivity lock (tests here and in
//! `tests/chaos.rs` serialize instead of cross-arming each other);
//! tests that inject nothing arm an empty plan for the same exclusion.

use std::fs;
use std::path::{Path, PathBuf};

use panda::core::faultpoint::{self, points, FaultPlan};
use panda::core::rng::SplitRng;
use panda::prelude::*;

const DIMS: usize = 3;
/// `wal-*.log` header: magic + version + dims + seq.
const WAL_HEADER_BYTES: u64 = 20;

fn cfg() -> StoreConfig {
    StoreConfig::default()
        .with_compact_points(32)
        .with_synchronous_compaction(true)
}

struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "panda-recovery-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        TmpDir(dir)
    }

    /// A fresh, empty store directory for one (fault, hit) run.
    fn run_dir(&self, run: u64) -> PathBuf {
        let dir = self.0.join(format!("run-{run}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[derive(Clone, Debug)]
enum Op {
    Insert { id: u64, coords: [f32; DIMS] },
    Remove { id: u64 },
    Query { coords: [f32; DIMS] },
}

/// A deterministic interleaved history: ~62% inserts, ~26% removes of a
/// live id, ~12% queries. Same seed ⇒ same script, so every sweep run
/// executes the identical op sequence and only the kill point moves.
fn script(steps: usize, seed: u64) -> Vec<Op> {
    let mut rng = SplitRng::new(seed);
    let coords =
        move |rng: &mut SplitRng| std::array::from_fn(|_| (rng.next_f64() * 10.0 - 5.0) as f32);
    let mut live: Vec<u64> = Vec::new();
    let mut next_id = 0u64;
    let mut ops = Vec::with_capacity(steps);
    for _ in 0..steps {
        let r = rng.next_f64();
        if r < 0.62 || live.is_empty() {
            let c = coords(&mut rng);
            ops.push(Op::Insert {
                id: next_id,
                coords: c,
            });
            live.push(next_id);
            next_id += 1;
        } else if r < 0.88 {
            let pick = (rng.next_f64() * live.len() as f64) as usize % live.len();
            ops.push(Op::Remove {
                id: live.swap_remove(pick),
            });
        } else {
            ops.push(Op::Query {
                coords: coords(&mut rng),
            });
        }
    }
    ops
}

type Oracle = Vec<(u64, [f32; DIMS])>;

/// Exact live-set equality: count, then one batched k=1 probe at every
/// oracle point's coordinates — each must come back at bit-zero
/// distance under its own id (coords are random, so distinct points
/// never collide).
fn live_set_equals(store: &MutableIndex, oracle: &Oracle) -> bool {
    if store.len() != oracle.len() {
        return false;
    }
    if oracle.is_empty() {
        return true;
    }
    let mut probes = PointSet::new(DIMS).unwrap();
    for (id, c) in oracle {
        probes.push(c, *id);
    }
    let res = store
        .query(&QueryRequest::knn(&probes, 1))
        .expect("recovered store must answer queries");
    oracle.iter().enumerate().all(|(i, (id, _))| {
        let row = res.neighbors.row(i);
        row.len() == 1 && row[0].id == *id && row[0].dist_sq.to_bits() == 0f32.to_bits()
    })
}

/// Full verification: exact live set + bit-identical distances to a
/// from-scratch brute-force scan of the oracle, on fresh probe queries.
fn assert_matches_oracle(store: &MutableIndex, oracle: &Oracle, who: &str) {
    assert_eq!(store.len(), oracle.len(), "{who}: live count differs");
    assert!(
        live_set_equals(store, oracle),
        "{who}: recovered live set differs from the acknowledged prefix"
    );
    if oracle.is_empty() {
        return;
    }
    let mut pts = PointSet::new(DIMS).unwrap();
    for (id, c) in oracle {
        pts.push(c, *id);
    }
    let brute = BruteForce::new(&pts);
    let mut rng = SplitRng::new(0xBEEF);
    let queries = PointSet::from_coords(
        DIMS,
        (0..8 * DIMS)
            .map(|_| (rng.next_f64() * 10.0 - 5.0) as f32)
            .collect(),
    )
    .unwrap();
    let k = 5.min(oracle.len());
    let got = store.query(&QueryRequest::knn(&queries, k)).unwrap();
    for qi in 0..queries.len() {
        let want = brute.query(queries.point(qi), k).unwrap();
        let g: Vec<u32> = got
            .neighbors
            .row(qi)
            .iter()
            .map(|n| n.dist_sq.to_bits())
            .collect();
        let w: Vec<u32> = want.iter().map(|n| n.dist_sq.to_bits()).collect();
        assert_eq!(g, w, "{who}: query {qi} distances not bit-identical");
    }
}

/// Execute the script against a durable store with `point` armed to
/// fire (only) on its `hit`-th hit, stopping — "killing the process" —
/// as soon as it fires. Returns the acknowledged oracle at the kill and
/// whether the fault fired at all.
fn run_killed(dir: &Path, ops: &[Op], point: &str, hit: u64) -> (Oracle, bool) {
    let guard = faultpoint::arm(FaultPlan::new().fail(point, hit));
    let store = MutableIndex::open(dir, DIMS, cfg()).expect("clean open");
    let mut oracle: Oracle = Vec::new();
    let mut fired = false;
    for op in ops {
        match op {
            Op::Insert { id, coords } => {
                // An `Err` is the injected fault rejecting the write:
                // not acknowledged, so the oracle must exclude it.
                if store.insert(coords, *id).is_ok() {
                    oracle.push((*id, *coords));
                }
            }
            Op::Remove { id } => {
                if store.remove(*id).is_ok() {
                    oracle.retain(|(i, _)| i != id);
                }
            }
            Op::Query { coords } => {
                let q = PointSet::from_coords(DIMS, coords.to_vec()).unwrap();
                // Reads never touch the WAL; they must keep working
                // right up to the kill.
                store
                    .query(&QueryRequest::knn(&q, 3))
                    .expect("queries never fail on durability faults");
            }
        }
        if guard.hits(point) >= hit {
            fired = true;
            break; // the kill: no further ops, no clean shutdown
        }
    }
    drop(store);
    drop(guard);
    (oracle, fired)
}

/// The sweep: kill at every occurrence of `point` across the history.
/// Under `PerWrite`, every reopen must equal the acknowledged prefix
/// exactly, and the store must accept writes + compactions afterwards.
fn sweep(point: &str, steps: usize) {
    let ops = script(steps, 0xD15C0);
    let tmp = TmpDir::new(&point.replace('.', "-"));
    let mut hit = 1u64;
    loop {
        let dir = tmp.run_dir(hit);
        let (oracle, fired) = run_killed(&dir, &ops, point, hit);
        // Verification injects nothing but still excludes sibling tests:
        // un-armed, its WAL and snapshot hits would match (and consume)
        // whatever plan a concurrent sweep has armed.
        let _excl = faultpoint::arm(FaultPlan::new());
        let who = format!("{point}, kill at hit {hit}");
        let store = MutableIndex::open(&dir, DIMS, cfg())
            .unwrap_or_else(|e| panic!("{who}: reopen failed: {e}"));
        assert_matches_oracle(&store, &oracle, &who);
        // Post-recovery liveness: the reopened store is fully writable
        // and compactable, not a read-only husk.
        store.insert(&[99.0, 99.0, 99.0], u64::MAX - hit).unwrap();
        store
            .compact_now()
            .unwrap_or_else(|e| panic!("{who}: post-recovery compact: {e}"));
        assert_eq!(store.len(), oracle.len() + 1, "{who}");
        if !fired {
            break; // swept past the last occurrence in the history
        }
        hit += 1;
        assert!(hit < 10_000, "sweep of {point} did not terminate");
    }
    assert!(
        hit > 1,
        "fault point {point} never fired over {steps} steps; the sweep is vacuous"
    );
}

#[test]
fn sweep_wal_append_torn_record() {
    sweep(points::STORE_WAL_APPEND, 300);
}

#[test]
fn sweep_wal_fsync_failure() {
    sweep(points::STORE_WAL_FSYNC, 300);
}

#[test]
fn sweep_snapshot_write_failure() {
    sweep(points::STORE_SNAPSHOT_WRITE, 340);
}

#[test]
fn sweep_snapshot_rename_failure() {
    sweep(points::STORE_SNAPSHOT_RENAME, 340);
}

/// Highest-numbered `wal-*.log` in a store directory (the active
/// append target at the moment the "process" died).
fn active_segment(dir: &Path) -> PathBuf {
    fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .max()
        .expect("a durable store always has an active segment")
}

/// Fsync-policy parity (the PerWrite case is the sweep's ground truth):
/// `EveryN` / `OnCompaction` may lose acknowledged writes to a crash,
/// but only by shortening the surviving **prefix** — never corrupting
/// or reordering it. The crash is simulated faithfully for a
/// lost-page-cache kill: the unsynced tail of the active segment is
/// discarded (closed segments and snapshots are always fsynced). After
/// an explicit [`MutableIndex::sync`] there is no such tail: every
/// policy loses nothing.
#[test]
fn fsync_policies_only_widen_the_loss_window() {
    let _guard = faultpoint::arm(FaultPlan::new()); // exclusion only
    let ops = script(300, 0x5EED);
    let tmp = TmpDir::new("fsync-parity");
    let mut run = 0u64;
    for policy in [
        FsyncPolicy::PerWrite,
        FsyncPolicy::EveryN(4),
        FsyncPolicy::OnCompaction,
    ] {
        for (kill_after, sync_first) in [(40usize, false), (170, false), (300, false), (300, true)]
        {
            run += 1;
            let dir = tmp.run_dir(run);
            let store = MutableIndex::open(&dir, DIMS, cfg().with_fsync(policy)).unwrap();
            // Oracle prefix after each step, so the recovered state can
            // be located on the acknowledged timeline.
            let mut prefixes: Vec<Oracle> = Vec::with_capacity(kill_after + 1);
            let mut oracle: Oracle = Vec::new();
            prefixes.push(oracle.clone());
            // Count of appended records (insert/remove) per step, to
            // bound the EveryN loss window in *records*, not steps.
            let mut records_at: Vec<usize> = vec![0];
            for op in &ops[..kill_after] {
                match op {
                    Op::Insert { id, coords } => {
                        store.insert(coords, *id).unwrap();
                        oracle.push((*id, *coords));
                        records_at.push(records_at.last().unwrap() + 1);
                    }
                    Op::Remove { id } => {
                        assert!(store.remove(*id).unwrap());
                        oracle.retain(|(i, _)| i != id);
                        records_at.push(records_at.last().unwrap() + 1);
                    }
                    Op::Query { coords } => {
                        let q = PointSet::from_coords(DIMS, coords.to_vec()).unwrap();
                        store.query(&QueryRequest::knn(&q, 3)).unwrap();
                        records_at.push(*records_at.last().unwrap());
                    }
                }
                prefixes.push(oracle.clone());
            }
            if sync_first {
                store.sync().unwrap();
            }
            let synced = store.stats().wal_synced_bytes;
            // No clean shutdown — then the kill: whatever the OS never
            // flushed is gone.
            drop(store);
            let active = active_segment(&dir);
            fs::OpenOptions::new()
                .write(true)
                .open(&active)
                .unwrap()
                .set_len(synced)
                .unwrap();
            let store = MutableIndex::open(&dir, DIMS, cfg().with_fsync(policy)).unwrap();
            let matched = (0..=kill_after)
                .rev()
                .find(|&m| live_set_equals(&store, &prefixes[m]));
            let who = format!("{policy:?}, kill after step {kill_after}, synced {sync_first}");
            let m = matched
                .unwrap_or_else(|| panic!("{who}: recovered state is not any acknowledged prefix"));
            match policy {
                _ if sync_first => {
                    assert_eq!(m, kill_after, "{who}: a synced write must survive")
                }
                FsyncPolicy::PerWrite => {
                    assert_eq!(m, kill_after, "{who}: PerWrite must lose nothing")
                }
                FsyncPolicy::EveryN(n) => {
                    let lost_records = records_at[kill_after] - records_at[m];
                    assert!(
                        lost_records < n as usize,
                        "{who}: lost {lost_records} acknowledged records, window is {}",
                        n - 1
                    );
                }
                FsyncPolicy::OnCompaction => {
                    // Rotation fsyncs bound the loss to the records
                    // since the last freeze; with compact_points=32
                    // that is well under one full history.
                    assert!(
                        records_at[kill_after] - records_at[m] <= 64,
                        "{who}: lost more than the fresh log since the last freeze"
                    );
                }
            }
            // And the survivor is fully consistent, not merely present.
            assert_matches_oracle(&store, &prefixes[m], &who);
        }
    }
}

/// A bit-flip in the middle of the WAL truncates recovery to the exact
/// record prefix before the flip — acknowledged-but-unflushed style
/// loss, surfaced as silent truncation because nothing after the flip
/// was promised durable either (the tail checksum chain is broken).
#[test]
fn mid_wal_bitflip_recovers_the_exact_prefix_before_it() {
    let _guard = faultpoint::arm(FaultPlan::new()); // exclusion only
    let tmp = TmpDir::new("bitflip");
    let dir = tmp.run_dir(1);
    // Huge thresholds: everything stays in the WAL, no snapshot.
    let big = StoreConfig::default()
        .with_compact_points(usize::MAX)
        .with_max_deleted(usize::MAX)
        .with_synchronous_compaction(true);
    let store = MutableIndex::open(&dir, DIMS, big.clone()).unwrap();
    let mut oracle: Oracle = Vec::new();
    let mut rng = SplitRng::new(0xF11);
    for id in 0..60u64 {
        let c: [f32; DIMS] = std::array::from_fn(|_| (rng.next_f64() * 10.0) as f32);
        store.insert(&c, id).unwrap();
        oracle.push((id, c));
    }
    drop(store);
    // Insert record: 8-byte prefix + 1 op + 8 id + DIMS×4 coords.
    let rec = 8 + 1 + 8 + DIMS as u64 * 4;
    let flip_record = 37;
    let path = active_segment(&dir);
    let mut bytes = fs::read(&path).unwrap();
    let off = (WAL_HEADER_BYTES + flip_record * rec + 12) as usize;
    bytes[off] ^= 0x08;
    fs::write(&path, &bytes).unwrap();
    let store = MutableIndex::open(&dir, DIMS, big).unwrap();
    oracle.truncate(flip_record as usize);
    assert_matches_oracle(&store, &oracle, "mid-wal bitflip");
}

/// An unreadable snapshot is acknowledged-durable state: `open` must
/// refuse with the typed [`PandaError::Corrupt`] instead of silently
/// recovering a stale or partial view.
#[test]
fn corrupt_snapshot_is_a_typed_open_error() {
    let _guard = faultpoint::arm(FaultPlan::new()); // exclusion only
    let tmp = TmpDir::new("badsnap");
    let dir = tmp.run_dir(1);
    let store = MutableIndex::open(&dir, DIMS, cfg()).unwrap();
    for id in 0..64u64 {
        store.insert(&[id as f32, 0.0, 0.0], id).unwrap();
    }
    store.quiesce();
    assert!(store.stats().snapshots_written >= 1, "{:?}", store.stats());
    drop(store);
    let snap = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "pnda"))
        .expect("compaction published a snapshot");
    let mut bytes = fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    fs::write(&snap, &bytes).unwrap();
    let err = MutableIndex::open(&dir, DIMS, cfg()).unwrap_err();
    assert!(
        matches!(err, PandaError::Corrupt { .. }),
        "want Corrupt, got {err}"
    );
}
