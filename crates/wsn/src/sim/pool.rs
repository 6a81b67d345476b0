//! Sweep-wide reuse: the per-worker event queue and the shared
//! immutable build cache.
//!
//! A paper figure is hundreds of independent runs, and without this
//! module each of them pays two fixed costs: (1) growing a fresh
//! event-queue slab, current-bucket vector and overflow heap to the
//! run's pending set, and (2) re-deriving the identical topology and
//! routing tree for every protocol and repetition sharing a
//! `(topology parameters, seed)` sweep point.
//!
//! [`WorldScratch`] fixes (1): a sweep worker keeps one scratch per
//! thread and threads it through
//! [`World::run_instrumented`](super::world::World::run_instrumented),
//! whose world construction pushes the first events straight into the
//! recycled queue. Every other buffer lives and dies with its run: at
//! run end a world holds one policy-action buffer, two MAC-action
//! buffers, one carrier list and a few frame slots, too little to be
//! worth carrying across runs. [`BuildCache`] fixes (2): a lock-guarded
//! map from the build inputs to an [`Arc`]-shared immutable `Prebuilt`
//! block (topology + pristine routing tree). Each world keeps its block,
//! clones the cheap mutable tree from the pristine copy and shares the
//! topology, whose neighbour lists the channel reads, by reference.
//! Made for a job list ([`BuildCache::for_jobs`]), the cache lets a
//! block go at the last ask the list announced for it, so sweep memory
//! follows the live jobs rather than every sweep point of the pass.
//!
//! Neither affects behaviour: the recycled queue arrives empty, the
//! cache is a pure function of the same inputs `World::new` hashes from
//! the config, and `tests/determinism.rs` pins pooled runs byte-for-byte
//! against fresh construction.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use essat_net::geometry::Area;
use essat_net::ids::NodeId;
use essat_net::topology::{Topology, PAPER_RANGE_M, PAPER_TREE_RADIUS_M};
use essat_query::tree::RoutingTree;
use essat_sim::queue::EventQueue;
use essat_sim::rng::SimRng;

use super::events::Ev;
#[cfg(test)]
use super::world::World;
use crate::config::ExperimentConfig;

/// A worker's recyclable run state: the event queue, whose slab,
/// current-bucket vector and overflow heap follow the largest pending
/// set (it keeps no per-bucket storage). Each run's construction pushes
/// its first events into it, and the run hands it back cleared. See
/// [`World::run_instrumented`](super::world::World::run_instrumented).
#[derive(Debug, Default)]
pub struct WorldScratch {
    pub(crate) queue: EventQueue<Ev>,
}

impl WorldScratch {
    /// An empty scratch (the queue grows over the first run).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The immutable products of world construction that depend only on
/// `(nodes, area, interference range, seed)` (range and tree radius are
/// the paper's constants):
/// shared across every protocol and repetition at the same sweep point.
#[derive(Debug)]
pub(crate) struct Prebuilt {
    pub(crate) topo: Arc<Topology>,
    pub(crate) root: NodeId,
    /// Pristine tree; runs clone it (failures/churn mutate their copy).
    pub(crate) tree: RoutingTree,
}

impl Prebuilt {
    /// Builds the block exactly as `World::new` would: same RNG stream
    /// (`master.derive(1)`), same construction order — so cached and
    /// fresh worlds are indistinguishable.
    pub(crate) fn build(cfg: &ExperimentConfig) -> Prebuilt {
        let master = SimRng::seed_from_u64(cfg.seed);
        let mut topo_rng = master.derive(1);
        let area = Area::new(cfg.area_side, cfg.area_side);
        let mut topo = Topology::random(cfg.nodes, area, PAPER_RANGE_M, &mut topo_rng);
        if let Some(ir) = cfg.interference_range {
            topo = topo.with_interference_range(ir);
        }
        let root = topo.closest_to_center();
        let tree = RoutingTree::build(&topo, root, Some(PAPER_TREE_RADIUS_M));
        Prebuilt {
            topo: Arc::new(topo),
            root,
            tree,
        }
    }
}

/// Everything [`Prebuilt::build`] reads from the config, as a hashable
/// key. Range and tree radius are the paper's constants, so they are
/// not part of it. Floats are keyed by bit pattern: configs are
/// constructed, not computed, so bitwise equality is the right notion
/// of "same sweep point".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BuildKey {
    nodes: u32,
    area_side: u64,
    interference_range: Option<u64>,
    seed: u64,
}

impl BuildKey {
    fn of(cfg: &ExperimentConfig) -> BuildKey {
        BuildKey {
            nodes: cfg.nodes,
            area_side: cfg.area_side.to_bits(),
            interference_range: cfg.interference_range.map(f64::to_bits),
            seed: cfg.seed,
        }
    }
}

/// Shared, thread-safe cache of prebuilt topology / routing-tree blocks
/// for one sweep.
///
/// Repetitions and protocols at the same `(topology, seed)` point build
/// the topology and routing tree **once**. The executor makes one per
/// job list with [`BuildCache::for_jobs`], which counts how many jobs
/// will ask for each block and lets go of a block at the last of those
/// asks, so a block lives exactly as long as the worlds that use it. A
/// cache made with [`BuildCache::new`] (or a key the job list did not
/// name) keeps every block until the cache is dropped.
#[derive(Debug, Default)]
pub struct BuildCache {
    map: Mutex<HashMap<BuildKey, Entry>>,
}

#[derive(Debug)]
struct Entry {
    /// Built at the first ask.
    block: Option<Arc<Prebuilt>>,
    /// Asks still to come, or `None` to keep the block.
    asks_left: Option<u32>,
}

impl BuildCache {
    /// An empty cache that keeps every block it builds.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache for a job list: each job will ask once for the
    /// block of its config, and the block is let go at the last ask.
    pub fn for_jobs<'a>(jobs: impl IntoIterator<Item = &'a ExperimentConfig>) -> Self {
        let mut map = HashMap::new();
        for cfg in jobs {
            let entry = map.entry(BuildKey::of(cfg)).or_insert(Entry {
                block: None,
                asks_left: Some(0),
            });
            entry.asks_left = entry.asks_left.map(|n| n + 1);
        }
        BuildCache {
            map: Mutex::new(map),
        }
    }

    /// Number of blocks the cache holds now: the sweep points asked for
    /// so far, less those whose last counted ask has come.
    pub fn len(&self) -> usize {
        let map = self.map.lock().expect("build cache poisoned");
        map.values().filter(|e| e.block.is_some()).count()
    }

    /// True if the cache holds no block.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn get_or_build(&self, cfg: &ExperimentConfig) -> Arc<Prebuilt> {
        let key = BuildKey::of(cfg);
        let mut map = self.map.lock().expect("build cache poisoned");
        let entry = map.entry(key).or_insert(Entry {
            block: None,
            asks_left: None,
        });
        // The lock is held across a miss's build: topologies are cheap
        // relative to a run, and this keeps duplicate concurrent builds
        // from racing each other.
        let block = entry
            .block
            .get_or_insert_with(|| Arc::new(Prebuilt::build(cfg)))
            .clone();
        if let Some(left) = &mut entry.asks_left {
            *left -= 1;
            if *left == 0 {
                map.remove(&key);
            }
        }
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Protocol, WorkloadSpec};

    #[test]
    fn cache_shares_across_protocols_and_reps() {
        let cache = BuildCache::new();
        let a = ExperimentConfig::quick(Protocol::DtsSs, WorkloadSpec::paper(1.0), 7);
        let b = ExperimentConfig::quick(Protocol::Sync, WorkloadSpec::paper(5.0), 7);
        let p1 = cache.get_or_build(&a);
        let p2 = cache.get_or_build(&b);
        assert!(
            Arc::ptr_eq(&p1, &p2),
            "same (topology, seed) point must share one build"
        );
        assert_eq!(cache.len(), 1);
        // A different seed is a different point.
        let c = ExperimentConfig::quick(Protocol::DtsSs, WorkloadSpec::paper(1.0), 8);
        let p3 = cache.get_or_build(&c);
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn counted_cache_builds_once_and_lets_go_at_the_last_ask() {
        let a = ExperimentConfig::quick(Protocol::DtsSs, WorkloadSpec::paper(1.0), 7);
        let b = ExperimentConfig::quick(Protocol::Sync, WorkloadSpec::paper(5.0), 7);
        let c = ExperimentConfig::quick(Protocol::DtsSs, WorkloadSpec::paper(1.0), 8);
        // Three jobs at a's sweep point (b shares it), one at c's.
        let cache = BuildCache::for_jobs([&a, &b, &c, &a]);
        assert!(cache.is_empty(), "nothing is built before the first ask");
        let p1 = cache.get_or_build(&a);
        let p2 = cache.get_or_build(&b);
        assert!(Arc::ptr_eq(&p1, &p2), "a shared point is built once");
        assert_eq!(cache.len(), 1);
        let p3 = cache.get_or_build(&c);
        assert_eq!(cache.len(), 1, "c's only job asked: its block is let go");
        assert_eq!(Arc::strong_count(&p3), 1, "only the asking world holds it");
        let p4 = cache.get_or_build(&a);
        assert!(Arc::ptr_eq(&p1, &p4), "still the first build");
        assert!(cache.is_empty(), "the last of a's three jobs asked");
        assert_eq!(Arc::strong_count(&p1), 3, "only the three worlds hold it");
        // A point the list did not name is kept, as by an uncounted cache.
        let d = ExperimentConfig::quick(Protocol::DtsSs, WorkloadSpec::paper(1.0), 9);
        let p5 = cache.get_or_build(&d);
        assert!(Arc::ptr_eq(&p5, &cache.get_or_build(&d)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn prebuilt_matches_fresh_world() {
        let cfg = ExperimentConfig::quick(Protocol::NtsSs, WorkloadSpec::paper(1.0), 11);
        let pre = Prebuilt::build(&cfg);
        let (world, _) = World::new(cfg);
        assert_eq!(pre.root, world.root);
        assert_eq!(pre.tree, *world.tree());
        assert_eq!(pre.topo.node_count(), world.topology().node_count());
    }
}
