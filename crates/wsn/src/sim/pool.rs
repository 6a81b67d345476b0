//! Sweep-wide reuse: the per-worker scratch pool and the shared
//! immutable build cache.
//!
//! A paper figure is hundreds of independent runs, and without this
//! module each of them pays the same two fixed costs: (1) allocating a
//! fresh event-queue slab, channel buffer pools and policy/MAC action
//! buffers, all of which immediately re-grow to the same steady-state
//! shapes, and (2) re-deriving the identical topology, routing tree and
//! channel adjacency for every protocol and repetition sharing a
//! `(topology parameters, seed)` sweep point.
//!
//! [`WorldScratch`] fixes (1): a sweep worker keeps one scratch per
//! thread and threads it through
//! [`World::run_instrumented`](super::world::World::run_instrumented),
//! which adopts the warmed allocations at construction and salvages them
//! at finalise. [`BuildCache`] fixes (2): a lock-guarded map from the
//! build inputs to an [`Arc`]-shared immutable `Prebuilt` block
//! (topology + pristine routing tree + channel CSR adjacency). Runs
//! clone the cheap mutable tree from the pristine copy and share the
//! rest by reference.
//!
//! Neither pool affects behaviour: recycled buffers arrive empty, the
//! cache is a pure function of the same inputs `World::new` hashes from
//! the config, and `tests/determinism.rs` pins pooled runs byte-for-byte
//! against fresh construction.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use essat_core::policy::PolicyAction;
use essat_net::channel::{ChannelAdjacency, ChannelPools};
use essat_net::frame::Frame;
use essat_net::geometry::Area;
use essat_net::ids::NodeId;
use essat_net::mac::MacAction;
use essat_net::topology::Topology;
use essat_query::tree::RoutingTree;
use essat_sim::queue::EventQueue;
use essat_sim::rng::SimRng;
use essat_sim::time::SimTime;

use super::events::Ev;
#[cfg(test)]
use super::world::World;
use crate::config::ExperimentConfig;
use crate::payload::Payload;

/// A worker's recyclable run state: everything a
/// [`World`](super::world::World) allocates that the *next* run on the
/// same thread can reuse — the event-queue slab and wheel buckets, the
/// channel's receiver-list buffer pool, the policy- and
/// MAC-action buffers, and the tree-view child buffers. See
/// [`World::run_instrumented`](super::world::World::run_instrumented).
#[derive(Debug, Default)]
pub struct WorldScratch {
    pub(crate) queue: EventQueue<Ev>,
    pub(crate) initial: Vec<(SimTime, Ev)>,
    pub(crate) kid_pool: Vec<Vec<(NodeId, u32)>>,
    pub(crate) act_pool: Vec<Vec<PolicyAction<Payload>>>,
    pub(crate) mact_pool: Vec<Vec<MacAction<Payload>>>,
    pub(crate) tx_frames: Vec<Option<Frame<Payload>>>,
    pub(crate) channel: ChannelPools,
}

impl WorldScratch {
    /// An empty scratch (pools warm up over the first run).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The immutable products of world construction that depend only on
/// `(nodes, area, range, interference range, tree radius, seed)`:
/// shared across every protocol and repetition at the same sweep point.
#[derive(Debug)]
pub(crate) struct Prebuilt {
    pub(crate) topo: Arc<Topology>,
    pub(crate) root: NodeId,
    /// Pristine tree; runs clone it (failures/churn mutate their copy).
    pub(crate) tree: RoutingTree,
    pub(crate) adj: Arc<ChannelAdjacency>,
}

impl Prebuilt {
    /// Builds the block exactly as `World::new` would: same RNG stream
    /// (`master.derive(1)`), same construction order — so cached and
    /// fresh worlds are indistinguishable.
    pub(crate) fn build(cfg: &ExperimentConfig) -> Prebuilt {
        let master = SimRng::seed_from_u64(cfg.seed);
        let mut topo_rng = master.derive(1);
        let area = Area::new(cfg.area_side, cfg.area_side);
        let mut topo = Topology::random(cfg.nodes, area, cfg.range, &mut topo_rng);
        if let Some(ir) = cfg.interference_range {
            topo = topo.with_interference_range(ir);
        }
        let root = topo.closest_to_center();
        let tree = RoutingTree::build(&topo, root, Some(cfg.tree_radius));
        let adj = Arc::new(ChannelAdjacency::build(&topo));
        Prebuilt {
            topo: Arc::new(topo),
            root,
            tree,
            adj,
        }
    }
}

/// Everything [`Prebuilt::build`] reads from the config, as a hashable
/// key (floats by bit pattern — configs are constructed, not computed,
/// so bitwise equality is the right notion of "same sweep point").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BuildKey {
    nodes: u32,
    area_side: u64,
    range: u64,
    interference_range: Option<u64>,
    tree_radius: u64,
    seed: u64,
}

impl BuildKey {
    fn of(cfg: &ExperimentConfig) -> BuildKey {
        BuildKey {
            nodes: cfg.nodes,
            area_side: cfg.area_side.to_bits(),
            range: cfg.range.to_bits(),
            interference_range: cfg.interference_range.map(f64::to_bits),
            tree_radius: cfg.tree_radius.to_bits(),
            seed: cfg.seed,
        }
    }
}

/// Shared, thread-safe cache of prebuilt topology / routing-tree /
/// channel-adjacency blocks for one sweep.
///
/// The executor creates one per job list and hands it to every worker;
/// repetitions and protocols at the same `(topology, seed)` point then
/// build the topology, routing tree and channel adjacency **once**.
#[derive(Debug, Default)]
pub struct BuildCache {
    map: Mutex<HashMap<BuildKey, Arc<Prebuilt>>>,
}

impl BuildCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct sweep points built so far.
    pub fn len(&self) -> usize {
        self.map.lock().expect("build cache poisoned").len()
    }

    /// True if nothing has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn get_or_build(&self, cfg: &ExperimentConfig) -> Arc<Prebuilt> {
        let key = BuildKey::of(cfg);
        let mut map = self.map.lock().expect("build cache poisoned");
        // The lock is held across a miss's build: topologies are cheap
        // relative to a run, and this keeps duplicate concurrent builds
        // from racing each other.
        map.entry(key)
            .or_insert_with(|| Arc::new(Prebuilt::build(cfg)))
            .clone()
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
    fn prebuilt_matches_fresh_world() {
        let cfg = ExperimentConfig::quick(Protocol::NtsSs, WorkloadSpec::paper(1.0), 11);
        let pre = Prebuilt::build(&cfg);
        let (world, _) = World::new(cfg);
        assert_eq!(pre.root, world.root);
        assert_eq!(pre.tree, *world.tree());
        assert_eq!(pre.topo.node_count(), world.topology().node_count());
    }
}
