//! The protocol catalogue and the policy factory.
//!
//! This module is the **only** place in the workspace that maps a
//! [`Protocol`] onto concrete power-management behaviour: naming
//! (display + parsing round-trip through one table) and construction
//! ([`Protocol::build_policy`], the single `match` over protocols).
//! The simulator's executor never branches on the protocol; it drives
//! whatever [`PowerPolicy`] the factory hands it, so out-of-tree
//! policies plug in through [`crate::sim::World::run_with`] without
//! touching either the executor or this catalogue.

use std::str::FromStr;

use essat_baselines::policy::{AlwaysOnPolicy, PsmPolicy, SyncPolicy};
use essat_baselines::psm::PsmSchedule;
use essat_baselines::span::SpanBackbone;
use essat_baselines::sync::SyncSchedule;
use essat_baselines::tag::Tag;
use essat_core::dts::Dts;
use essat_core::nts::Nts;
use essat_core::policy::EssatPolicy;
use essat_core::shaper::TrafficShaper;
use essat_core::sts::Sts;
use essat_net::ids::NodeId;
use essat_query::tree::RoutingTree;
use essat_sim::time::SimTime;

use crate::config::ExperimentConfig;
use crate::payload::Payload;

// Re-exported so downstream crates (the harness's custom-factory
// seam) can name the policy trait without depending on `essat-core`.
pub use essat_core::policy::PowerPolicy;

/// Which power-management protocol every node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// ESSAT with no traffic shaping (NTS-SS).
    NtsSs,
    /// ESSAT with the static traffic shaper (STS-SS).
    StsSs,
    /// ESSAT with the dynamic traffic shaper (DTS-SS).
    DtsSs,
    /// Fixed 20%-duty synchronous wakeup.
    Sync,
    /// 802.11 PSM with advertisement windows.
    Psm,
    /// SPAN backbone (tree non-leaves always on, leaves run NTS-SS).
    Span,
    /// TinyDB/TAG level-slot scheduling under Safe Sleep (related-work
    /// comparison, not in the paper's figures).
    TagSs,
    /// Radios never sleep (sanity baseline, not in the paper's figures).
    AlwaysOn,
}

/// The single protocol-name table: display, parsing, and documentation
/// all read from here, so a variant cannot drift out of sync with its
/// string form.
const PROTOCOL_NAMES: [(Protocol, &str); 8] = [
    (Protocol::NtsSs, "NTS-SS"),
    (Protocol::StsSs, "STS-SS"),
    (Protocol::DtsSs, "DTS-SS"),
    (Protocol::Sync, "SYNC"),
    (Protocol::Psm, "PSM"),
    (Protocol::Span, "SPAN"),
    (Protocol::TagSs, "TAG-SS"),
    (Protocol::AlwaysOn, "ALWAYS-ON"),
];

impl Protocol {
    /// Every protocol the factory can build.
    pub fn all() -> [Protocol; 8] {
        PROTOCOL_NAMES.map(|(p, _)| p)
    }

    /// All protocols the paper plots (Figures 3–7).
    pub fn paper_set() -> [Protocol; 6] {
        [
            Protocol::DtsSs,
            Protocol::StsSs,
            Protocol::NtsSs,
            Protocol::Psm,
            Protocol::Span,
            Protocol::Sync,
        ]
    }

    /// The three ESSAT variants.
    pub fn essat_set() -> [Protocol; 3] {
        [Protocol::DtsSs, Protocol::StsSs, Protocol::NtsSs]
    }

    /// Display name as used in the paper's figures.
    pub fn label(self) -> &'static str {
        PROTOCOL_NAMES
            .iter()
            .find(|(p, _)| *p == self)
            .map(|(_, name)| *name)
            .expect("every variant is in PROTOCOL_NAMES")
    }

    /// Builds the node's power-management policy — the one place the
    /// protocol choice turns into behaviour.
    ///
    /// `node` matters only to protocols that assign roles per node
    /// (SPAN's coordinator backbone); `env` carries the run-level
    /// context those assignments need.
    pub fn build_policy(
        cfg: &ExperimentConfig,
        node: NodeId,
        env: &PolicyEnv<'_>,
    ) -> Box<dyn PowerPolicy<Payload>> {
        let t_be = cfg.radio.break_even();
        let t_on = cfg.radio.turn_on;
        let essat = |name, shaper: Box<dyn TrafficShaper>| {
            Box::new(EssatPolicy::new(name, shaper, t_be, t_on)) as Box<dyn PowerPolicy<Payload>>
        };
        match cfg.protocol {
            Protocol::NtsSs => essat("NTS-SS", Box::new(Nts::new())),
            Protocol::StsSs => essat("STS-SS", Box::new(Sts::with_config(cfg.sts))),
            Protocol::DtsSs => essat("DTS-SS", Box::new(Dts::new())),
            Protocol::TagSs => essat("TAG-SS", Box::new(Tag::new())),
            Protocol::Sync => Box::new(SyncPolicy::new(SyncSchedule::paper(), env.run_end)),
            Protocol::Psm => Box::new(PsmPolicy::new(PsmSchedule::paper(), env.run_end)),
            Protocol::AlwaysOn => Box::new(AlwaysOnPolicy::new("ALWAYS-ON")),
            Protocol::Span => {
                let bb = env
                    .backbone
                    .as_ref()
                    .expect("PolicyEnv::new builds the SPAN backbone");
                if bb.is_coordinator(node) {
                    Box::new(AlwaysOnPolicy::new("ALWAYS-ON"))
                } else {
                    // Leaves (and non-members) run NTS-SS, per the
                    // paper's modified SPAN setup.
                    essat("NTS-SS", Box::new(Nts::new()))
                }
            }
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Error for [`Protocol::from_str`]: the input matched no protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProtocolError {
    input: String,
}

impl std::fmt::Display for ParseProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown protocol `{}`; expected one of: ", self.input)?;
        for (i, (_, name)) in PROTOCOL_NAMES.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str(name)?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseProtocolError {}

impl FromStr for Protocol {
    type Err = ParseProtocolError;

    /// Parses the canonical figure label, case-insensitively and
    /// tolerating `_` for `-` (`"DTS-SS"`, `"dts-ss"`, `"dts_ss"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.trim().replace('_', "-");
        PROTOCOL_NAMES
            .iter()
            .find(|(_, name)| name.eq_ignore_ascii_case(&norm))
            .map(|(p, _)| *p)
            .ok_or_else(|| ParseProtocolError {
                input: s.to_string(),
            })
    }
}

/// A per-node policy constructor: the simulator consults it once per
/// node at world construction. [`Protocol::build_policy`] is the
/// default; custom experiments pass their own to
/// [`crate::sim::World::run_with`].
pub type PolicyFactory<'f> =
    dyn Fn(&ExperimentConfig, NodeId, &PolicyEnv<'_>) -> Box<dyn PowerPolicy<Payload>> + 'f;

/// Run-level context handed to the policy factory alongside the
/// configuration: the routing tree, the run horizon, and any
/// protocol-wide precomputation (currently SPAN's coordinator
/// backbone).
#[derive(Debug)]
pub struct PolicyEnv<'a> {
    /// The routing tree the run starts from.
    pub tree: &'a RoutingTree,
    /// End of the run (schedule chains stop here).
    pub run_end: SimTime,
    /// SPAN's coordinator assignment, built once per run when the
    /// configured protocol needs it.
    pub backbone: Option<SpanBackbone>,
}

impl<'a> PolicyEnv<'a> {
    /// Prepares the factory context for one run, including any
    /// protocol-wide precomputation the per-node factory calls need.
    pub fn new(
        cfg: &ExperimentConfig,
        tree: &'a RoutingTree,
        node_count: usize,
        run_end: SimTime,
    ) -> Self {
        let backbone = match cfg.protocol {
            Protocol::Span => Some(SpanBackbone::from_tree(tree, node_count)),
            _ => None,
        };
        PolicyEnv {
            tree,
            run_end,
            backbone,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadSpec;
    use essat_net::geometry::Area;
    use essat_net::topology::Topology;
    use essat_sim::rng::SimRng;

    #[test]
    fn display_parse_round_trips_all_variants() {
        for p in Protocol::all() {
            let shown = p.to_string();
            assert_eq!(shown.parse::<Protocol>(), Ok(p), "{shown}");
            // Tolerant forms round-trip too.
            assert_eq!(shown.to_lowercase().parse::<Protocol>(), Ok(p));
            assert_eq!(shown.replace('-', "_").parse::<Protocol>(), Ok(p));
        }
    }

    #[test]
    fn unknown_protocol_rejected_with_catalogue() {
        let err = "S-MAC".parse::<Protocol>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("S-MAC"));
        assert!(msg.contains("DTS-SS") && msg.contains("ALWAYS-ON"));
    }

    #[test]
    fn labels_stable() {
        assert_eq!(Protocol::DtsSs.to_string(), "DTS-SS");
        assert_eq!(Protocol::Span.label(), "SPAN");
        assert_eq!(Protocol::paper_set().len(), 6);
        assert_eq!(Protocol::essat_set().len(), 3);
        assert_eq!(Protocol::all().len(), 8);
    }

    #[test]
    fn factory_builds_every_protocol() {
        let mut rng = SimRng::seed_from_u64(7);
        let topo = Topology::random(20, Area::new(300.0, 300.0), 125.0, &mut rng);
        let root = topo.closest_to_center();
        let tree = RoutingTree::build(&topo, root, None);
        for p in Protocol::all() {
            let cfg = ExperimentConfig::quick(p, WorkloadSpec::paper(1.0), 3);
            let run_end = SimTime::ZERO + cfg.duration;
            let env = PolicyEnv::new(&cfg, &tree, topo.node_count(), run_end);
            let policy = Protocol::build_policy(&cfg, root, &env);
            match p {
                // SPAN's root is a non-leaf: an always-on coordinator.
                Protocol::Span | Protocol::AlwaysOn => assert_eq!(policy.name(), "ALWAYS-ON"),
                other => assert_eq!(policy.name(), other.label()),
            }
        }
    }

    #[test]
    fn span_factory_assigns_roles_per_node() {
        let mut rng = SimRng::seed_from_u64(11);
        let topo = Topology::random(30, Area::new(300.0, 300.0), 125.0, &mut rng);
        let root = topo.closest_to_center();
        let tree = RoutingTree::build(&topo, root, None);
        let cfg = ExperimentConfig::quick(Protocol::Span, WorkloadSpec::paper(1.0), 3);
        let env = PolicyEnv::new(&cfg, &tree, topo.node_count(), SimTime::from_secs(50));
        let bb = env.backbone.as_ref().expect("span builds a backbone");
        for &m in tree.members() {
            let policy = Protocol::build_policy(&cfg, m, &env);
            if bb.is_coordinator(m) {
                assert_eq!(policy.name(), "ALWAYS-ON");
                assert!(!tree.is_leaf(m));
            } else {
                assert_eq!(policy.name(), "NTS-SS");
            }
        }
    }
}
