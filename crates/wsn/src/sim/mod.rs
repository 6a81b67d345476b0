//! The integrated simulator: layered per-node stacks composed over the
//! discrete-event engine.
//!
//! One [`World`] is one simulation run. The module is a
//! protocol-agnostic *executor* split along the stack's layers:
//!
//! * `events` — the closed event alphabet ([`Ev`]).
//! * `node` — the per-node stack: radio + CSMA/CA MAC + power policy +
//!   query-agent state.
//! * `world` — construction (topology, tree, channel, scenario,
//!   queries, per-node policies via the factory), setup/finalisation,
//!   and the engine [`essat_sim::engine::Model`] dispatch.
//! * `rounds` — the shared query service: per-round aggregation,
//!   collection timeouts, loss detection, §4.3 failure recovery.
//! * `power` — policy-action execution, MAC plumbing, radio
//!   transitions, and sleep checkpoints.
//! * `lifecycle` — scripted failures, scenario churn with recovery,
//!   battery depletion, and routing-tree repair.
//! * `repair` — the self-healing layer: link-quality EWMA estimation,
//!   backoff repair timers, quality-driven re-parenting/adoption, and
//!   deadline-aware retransmission budgets.
//!
//! Protocol behaviour lives *entirely* behind
//! [`essat_core::policy::PowerPolicy`]: the ESSAT modes (a
//! [`essat_core::shaper::TrafficShaper`] + Safe Sleep) in `essat-core`,
//! the SYNC/PSM/always-on baselines in `essat-baselines`, and anything
//! else through [`World::run_with`]'s factory seam. The executor
//! never matches on the configured protocol.

mod events;
mod lifecycle;
mod node;
mod pool;
mod power;
mod repair;
mod rounds;
#[cfg(feature = "sanitize")]
mod sanitizer;
mod world;

pub use events::Ev;
pub use pool::{BuildCache, WorldScratch};
pub use repair::link_ewma_step;
pub use world::World;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentConfig, Protocol, SetupMode, WorkloadSpec};
    use essat_baselines::sync::SyncSchedule;
    use essat_sim::time::{SimDuration, SimTime};

    fn quick_cfg(protocol: Protocol, seed: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(protocol, WorkloadSpec::paper(1.0), seed);
        cfg.duration = SimDuration::from_secs(12);
        cfg
    }

    #[test]
    fn world_builds_paper_workload() {
        let (world, initial) = World::new(quick_cfg(Protocol::DtsSs, 1));
        assert_eq!(world.queries.len(), 3, "one query per class");
        // Rate ratio 6:3:2.
        let p0 = world.queries[0].period;
        let p1 = world.queries[1].period;
        let p2 = world.queries[2].period;
        assert_eq!(p1, p0 * 2);
        assert_eq!(p2, p0 * 3);
        // Phases within the window.
        for q in &world.queries {
            assert!(q.phase <= SimTime::from_secs(10));
        }
        // Setup end + round starts + (per-protocol chains) scheduled.
        assert!(initial.len() > world.tree.member_count());
        // The tree is rooted near the centre and valid.
        world.tree().check_invariants();
    }

    #[test]
    fn factory_assigns_policies_per_node() {
        // Every DTS node runs the DTS-SS policy…
        let (world, _) = World::new(quick_cfg(Protocol::DtsSs, 1));
        for n in &world.nodes {
            assert_eq!(n.policy.name(), "DTS-SS");
        }
        // …while SPAN mixes roles per node (see below).
        let (world, _) = World::new(quick_cfg(Protocol::Sync, 1));
        for n in &world.nodes {
            assert_eq!(n.policy.name(), "SYNC");
        }
    }

    #[test]
    fn span_assigns_coordinators_always_on() {
        let (world, _) = World::new(quick_cfg(Protocol::Span, 2));
        let mut coordinators = 0;
        let mut leaves = 0;
        for &m in world.tree.members().to_vec().iter() {
            match world.nodes[m.index()].policy.name() {
                "ALWAYS-ON" => {
                    coordinators += 1;
                    assert!(!world.tree.is_leaf(m), "coordinators are non-leaves");
                }
                "NTS-SS" => {
                    leaves += 1;
                    assert!(world.tree.is_leaf(m), "sleepers are leaves");
                }
                other => panic!("unexpected policy {other:?}"),
            }
        }
        assert!(coordinators > 0 && leaves > 0);
    }

    #[test]
    fn collection_deadline_mode_specific() {
        let (mut world, _) = World::new(quick_cfg(Protocol::Sync, 3));
        // Pick an interior member.
        let node = world
            .tree
            .members()
            .iter()
            .copied()
            .find(|&m| !world.tree.is_leaf(m))
            .expect("interior node");
        world.nodes[node.index()].participating.insert(0);
        let d_sync = world.collection_deadline(node, 0, 0);
        let q = world.query(0);
        // SYNC: at least one schedule period of grace.
        assert!(d_sync >= q.round_start(0) + SyncSchedule::paper().period());
    }

    #[test]
    fn readings_are_deterministic() {
        use essat_net::ids::NodeId;
        assert_eq!(
            World::reading(NodeId::new(3), 7),
            World::reading(NodeId::new(3), 7)
        );
        assert_ne!(
            World::reading(NodeId::new(3), 7),
            World::reading(NodeId::new(4), 7)
        );
    }

    #[test]
    fn register_skips_childless_nonsources() {
        let (mut world, _) = World::new(quick_cfg(Protocol::DtsSs, 4));
        // With SourceSet::All every member registers...
        let member = world.tree.members()[0];
        // Re-registration for an already-registered query returns the
        // next round time rather than None.
        let at = world.register_query_at(member, 0, SimTime::ZERO);
        assert!(at.is_some());
        // Non-members never register.
        let non_member = world.topo.nodes().find(|&n| !world.tree.is_member(n));
        if let Some(nm) = non_member {
            assert!(world.register_query_at(nm, 0, SimTime::ZERO).is_none());
        }
    }

    #[test]
    fn psm_nodes_run_the_psm_policy() {
        let (world, _) = World::new(quick_cfg(Protocol::Psm, 5));
        for &m in world.tree.members() {
            assert_eq!(world.nodes[m.index()].policy.name(), "PSM");
        }
    }

    #[test]
    fn run_to_completion_settles_all_radios() {
        let r = crate::runner::run_one(&quick_cfg(Protocol::DtsSs, 6));
        // Every member contributes a node metric with a sane duty cycle.
        assert!(!r.nodes.is_empty());
        for n in &r.nodes {
            assert!((0.0..=1.0).contains(&n.duty_cycle), "{:?}", n);
            assert!(n.energy_j >= 0.0);
        }
        // Time accounting: window matches config.
        assert_eq!(r.measured_until, SimTime::from_secs(12));
    }

    #[test]
    fn forced_windows_only_in_flooded_mode() {
        let (ideal, _) = World::new(quick_cfg(Protocol::DtsSs, 7));
        assert!(ideal.forced_windows.is_empty());
        let mut cfg = quick_cfg(Protocol::DtsSs, 7);
        cfg.setup_mode = SetupMode::Flooded;
        let (flooded, initial) = World::new(cfg);
        assert_eq!(flooded.forced_windows.len(), 3);
        assert!(initial
            .iter()
            .any(|(_, e)| matches!(e, Ev::FloodIssue { .. })));
    }

    #[test]
    fn custom_factory_plugs_in() {
        // The factory seam accepts policies built outside
        // `Protocol::build_policy` — here, always-on regardless of the
        // configured protocol.
        use essat_baselines::policy::AlwaysOnPolicy;
        let cfg = quick_cfg(Protocol::DtsSs, 8);
        let r = World::run_with(&cfg, &|_cfg, _node, _env| {
            Box::new(AlwaysOnPolicy::new("CUSTOM"))
        });
        // Nobody ever sleeps: full duty cycle everywhere.
        for n in &r.nodes {
            assert_eq!(n.duty_cycle, 1.0, "{n:?}");
        }
    }
}
