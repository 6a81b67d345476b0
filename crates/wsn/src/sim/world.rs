//! The [`World`]: one simulation run over the discrete-event engine.

use std::collections::{BTreeMap, BTreeSet};

use essat_core::policy::{PolicyAction, SleepTrigger};
use essat_net::channel::{Channel, TxEndBuf};
use essat_net::frame::Frame;
use essat_net::ids::NodeId;
use essat_net::mac::Mac;
use essat_net::radio::Radio;
use essat_net::topology::Topology;
use essat_obs::profile::RunTimings;
use essat_obs::{NullProbe, Probe, SampleView};
use essat_query::aggregate::AggState;
use essat_query::model::{Query, QueryId};
use essat_query::tree::RoutingTree;
use essat_scenario::compile::CompiledScenario;
use essat_scenario::gilbert::GilbertElliott;
use essat_sim::engine::{Context, Engine, Model};
use essat_sim::queue::EventId;
use essat_sim::rng::SimRng;
use essat_sim::stats::{Histogram, OnlineStats};
use essat_sim::time::SimTime;

use super::events::Ev;
use super::node::{NodeState, RadioSnapshot, CHILD_FAIL_THRESHOLD, PARENT_FAIL_THRESHOLD};
use super::pool::{BuildCache, Prebuilt, WorldScratch};
use crate::config::{ExperimentConfig, SetupMode};
use crate::metrics::{LifetimeStats, MacTotals, NodeMetrics, QueryMetrics, RunResult};
use crate::payload::Payload;
use crate::protocol::{PolicyEnv, PolicyFactory, Protocol};

/// Fine-grained sleep-interval histogram: 0.5 ms bins up to 1 s.
const SLEEP_HIST_BIN_S: f64 = 0.0005;
const SLEEP_HIST_BINS: usize = 2000;

/// Cache-linear per-node hot state, structure-of-arrays.
///
/// These are the scalars consulted by (nearly) every event — the dead /
/// member guards, the radio-mode test in the per-receiver transmission
/// fan-out, the pending wake-up handles — plus the flags the
/// periodic `BatteryCheck` sweep scans. Keeping them in flat arrays
/// indexed by node keeps those whole-network walks inside a handful of
/// cache lines instead of striding across the ~half-KB
/// [`NodeState`](super::node::NodeState) records.
///
/// `radio_active` / `active_since` mirror the per-node
/// [`essat_net::radio::Radio`] state machine exactly; every transition
/// goes through a `World` method (`suspend_radio`, `wake_radio`,
/// `handle_radio_done`, churn revival), which updates the mirror in the
/// same breath.
#[derive(Debug, Default)]
pub(crate) struct Hot {
    /// Node is dead (scripted failure, churn, or battery depletion).
    pub(crate) dead: Vec<bool>,
    /// Node joined the routing tree at build time.
    pub(crate) member: Vec<bool>,
    /// Mirror of `radio.is_active()`.
    pub(crate) radio_active: Vec<bool>,
    /// Mirror of `radio.active_since()`; `SimTime::MAX` while the radio
    /// is not fully active.
    pub(crate) active_since: Vec<SimTime>,
    /// Handle of the node's pending Safe-Sleep wake-up, if any. A newer
    /// sleep decision cancels the superseded event on the queue through
    /// this handle instead of letting it dispatch stale.
    pub(crate) wake_ev: Vec<Option<EventId>>,
    /// Death was caused by battery depletion: permanent — churn
    /// `resurrect` events must not revive a node with an empty battery.
    pub(crate) battery_dead: Vec<bool>,
}

impl Hot {
    fn new(n: usize, tree: &RoutingTree) -> Hot {
        Hot {
            dead: vec![false; n],
            member: (0..n)
                .map(|i| tree.is_member(NodeId::new(i as u32)))
                .collect(),
            radio_active: vec![true; n],
            active_since: vec![SimTime::ZERO; n],
            wake_ev: vec![None; n],
            battery_dead: vec![false; n],
        }
    }
}

/// One simulation run: the [`Model`] driven by the engine.
///
/// The `World` owns the topology, the routing tree, the shared channel,
/// and a per-node stack (radio + MAC + power policy + query agent). It
/// is a protocol-agnostic executor: all power-management behaviour
/// lives behind each node's [`essat_core::policy::PowerPolicy`], built
/// once per run by the policy factory (default:
/// [`Protocol::build_policy`]).
///
/// The world is generic over an [`essat_obs::Probe`]: a read-only
/// observer notified at the same structural seams the `sanitize`
/// feature checks. The default [`NullProbe`] monomorphizes every hook
/// away, so the probe-free hot path is unchanged; attaching a real
/// probe cannot perturb the run (probes see shared views only — the
/// digest-equality tests in `tests/probes.rs` pin this).
#[derive(Debug)]
pub struct World<P: Probe = NullProbe> {
    pub(crate) cfg: ExperimentConfig,
    /// Master RNG (kept for deriving fresh per-node streams mid-run,
    /// e.g. the MAC of a churn-revived node).
    pub(crate) master: SimRng,
    /// Immutable for the whole run; shared across jobs by the sweep
    /// executor's build cache.
    pub(crate) topo: std::sync::Arc<Topology>,
    pub(crate) tree: RoutingTree,
    pub(crate) root: NodeId,
    pub(crate) channel: Channel,
    /// Compiled dynamic-environment scenario, if any.
    pub(crate) scenario: Option<CompiledScenario>,
    pub(crate) queries: Vec<Query>,
    pub(crate) source_count: Vec<u64>,
    pub(crate) nodes: Vec<NodeState>,
    /// Structure-of-arrays hot node state (see [`Hot`]).
    pub(crate) hot: Hot,
    /// Handles of each node's pending *chain* policy timers (SYNC
    /// edges / PSM beacons): the self-perpetuating schedules a churn
    /// death or recovery must truly cancel on the queue. Non-chain
    /// policy timers are one-shots and stay untracked.
    pub(crate) chain_ev: Vec<Vec<EventId>>,
    pub(crate) setup_over: bool,
    pub(crate) forced_windows: Vec<(SimTime, SimTime)>,
    pub(crate) run_end: SimTime,
    pub(crate) measure_from: SimTime,
    // accumulated metrics
    pub(crate) qmetrics: Vec<QueryMetrics>,
    pub(crate) phase_piggybacks: u64,
    pub(crate) phase_requests: u64,
    pub(crate) reports_sent: u64,
    /// Child reports still missing when a collection timeout fired.
    pub(crate) missed_reports: u64,
    /// Piggybacked phase updates that resolved a known-stale phase.
    pub(crate) resync_events: u64,
    /// Total guard-time lead added to radio wake-ups (clock-drift
    /// tolerance bought with energy; see
    /// [`crate::config::GuardTime`]).
    pub(crate) guard_wake_ns: u64,
    /// Invariant checker (compiled in only with the `sanitize`
    /// feature).
    #[cfg(feature = "sanitize")]
    pub(crate) san: super::sanitizer::Sanitizer,
    /// Deaths / partition / recovery marks for the lifetime figures.
    pub(crate) lifetime: LifetimeStats,
    /// Self-healing state: link-quality EWMA, per-node repair timers,
    /// orphan accounting, and the run's repair counters (see
    /// [`super::repair`]).
    pub(crate) repair: super::repair::RepairState,
    /// MAC counters of MACs replaced by churn revivals (so totals keep
    /// the pre-death traffic).
    pub(crate) mac_lost: MacTotals,
    /// Recycled `(child, rank)` buffers for [`World::tree_view`], so the
    /// per-event tree snapshots allocate only until the pool warms up.
    pub(crate) kid_pool: Vec<Vec<(NodeId, u32)>>,
    /// Recycled policy-action buffers (same purpose as `kid_pool`).
    pub(crate) act_pool: Vec<Vec<PolicyAction<Payload>>>,
    /// Recycled MAC-action buffers (same purpose as `kid_pool`).
    pub(crate) mact_pool: Vec<Vec<essat_net::mac::MacAction<Payload>>>,
    /// In-flight frames, indexed by the channel's transmission slot.
    ///
    /// The frame body used to travel inside `Ev::TxEnd`, which made
    /// every queue slot as large as the fattest frame (120 B) and every
    /// push/pop copy it; parking frames here keeps the event alphabet
    /// at pointer-ish sizes for the 40M-event runs.
    pub(crate) tx_frames: Vec<Option<Frame<Payload>>>,
    /// Recycled flat tx-end outcome buffer: the channel partitions each
    /// finished transmission's clean / corrupted / now-idle fan-out into
    /// this one contiguous list instead of three per-call vectors.
    pub(crate) tx_end_buf: TxEndBuf,
    /// Recycled scratch for the whole-network sweeps (battery doom
    /// list, boundary checkpoint work lists).
    pub(crate) sweep_scratch: Vec<u32>,
    /// The attached observability probe ([`NullProbe`] by default).
    pub(crate) probe: P,
}

impl World {
    /// Builds the world and the initial event list for `cfg`, with the
    /// default policy factory ([`Protocol::build_policy`]).
    pub fn new(cfg: ExperimentConfig) -> (World, Vec<(SimTime, Ev)>) {
        let mut initial = Vec::new();
        let world =
            World::new_prebuilt(cfg, &Protocol::build_policy, None, &mut initial, NullProbe);
        (world, initial)
    }
}

impl<P: Probe> World<P> {
    /// Builds the world for `cfg` with a policy factory, over an
    /// optional cached build block, appending the initial event list to
    /// a caller-recycled buffer. The probe is installed before any
    /// event runs (and told about the scenario's scripted clock
    /// glitches, which are compiled ahead of time).
    pub(crate) fn new_prebuilt(
        cfg: ExperimentConfig,
        factory: &PolicyFactory<'_>,
        pre: Option<std::sync::Arc<Prebuilt>>,
        initial: &mut Vec<(SimTime, Ev)>,
        probe: P,
    ) -> World<P> {
        cfg.validate();
        let master = SimRng::seed_from_u64(cfg.seed);
        let mut phase_rng = master.derive(2);
        let channel_rng = master.derive(3);

        // The topology, pristine routing tree and channel adjacency are
        // pure functions of (cfg shape, seed); take them from the cache
        // when the executor provides one, else build them here (the
        // builder consumes the same `master.derive(1)` stream either
        // way, so cached and fresh construction are indistinguishable).
        let pre = match pre {
            Some(p) => p,
            None => std::sync::Arc::new(Prebuilt::build(&cfg)),
        };
        let topo = std::sync::Arc::clone(&pre.topo);
        let root = pre.root;
        let tree = pre.tree.clone();

        let mut channel = Channel::with_adjacency(std::sync::Arc::clone(&pre.adj), channel_rng);
        channel.set_drop_probability(cfg.drop_probability);

        // Dynamic environment: compile the scenario (or replay its
        // recorded trace) and install the bursty-link process.
        let scenario = cfg
            .scenario
            .as_ref()
            .map(|s| s.resolve(cfg.nodes, root.as_u32(), cfg.duration, cfg.seed));
        if let Some(ge) = scenario.as_ref().and_then(|s| s.link) {
            channel.set_loss_model(Box::new(GilbertElliott::new(
                topo.node_count(),
                ge,
                master.derive(7),
            )));
        }

        // Queries: three classes at rate ratio 6:3:2.
        let rates = cfg.workload.class_rates();
        let mut queries = Vec::new();
        for &rate in &rates {
            for _ in 0..cfg.workload.queries_per_class {
                let id = QueryId::new(queries.len() as u32);
                let period = essat_sim::time::SimDuration::from_rate_hz(rate);
                let phase = SimTime::from_secs_f64(
                    phase_rng.range_f64(0.0, cfg.workload.phase_window.as_secs_f64()),
                );
                let mut q = Query::periodic(id, period, phase, cfg.workload.op);
                if let Some(d) = cfg.workload.deadline {
                    q = q.with_deadline(d);
                }
                queries.push(q);
            }
        }
        let member_count = tree.member_count() as u64;
        let source_count = queries.iter().map(|_| member_count).collect();

        let run_end = SimTime::ZERO + cfg.duration;
        let measure_from = SimTime::ZERO + cfg.setup_slot;

        // The policy factory sees the finished tree (SPAN derives its
        // backbone from it) and builds one policy per node.
        let env = PolicyEnv::new(&cfg, &tree, topo.node_count(), run_end);
        let hot = Hot::new(topo.node_count(), &tree);
        let nodes = topo
            .nodes()
            .map(|id| NodeState {
                policy: factory(&cfg, id, &env),
                radio: Radio::new(cfg.radio),
                mac: Mac::new(id, cfg.mac, master.derive2(4, id.as_u32() as u64)),
                died_at: None,
                participating: BTreeSet::new(),
                expected_children: BTreeMap::new(),
                rounds: BTreeMap::new(),
                done: BTreeMap::new(),
                loss: essat_core::maintenance::LossDetector::new(),
                child_fail: essat_core::maintenance::FailureDetector::new(CHILD_FAIL_THRESHOLD),
                parent_fail: essat_core::maintenance::FailureDetector::new(PARENT_FAIL_THRESHOLD),
                stale_phase: BTreeSet::new(),
                next_round: BTreeMap::new(),
                revivals: 0,
                recheck_on_wake: false,
                registered: BTreeSet::new(),
                snap: RadioSnapshot::default(),
                rank0: tree.rank(id),
                level0: tree.level(id).unwrap_or(0),
            })
            .collect();

        let qmetrics = queries
            .iter()
            .map(|q| QueryMetrics {
                query: q.id,
                rate_hz: q.rate_hz(),
                latency: OnlineStats::new(),
                rounds_completed: 0,
                rounds_full: 0,
                delivered_readings: 0,
                expected_readings: 0,
                records: Vec::new(),
            })
            .collect();

        let mut forced_windows = Vec::new();
        if cfg.setup_mode == SetupMode::Flooded {
            for q in &queries {
                let start = q.phase.saturating_sub(cfg.setup_slot);
                forced_windows.push((start, start + cfg.setup_slot));
            }
        }

        let topo_nodes = topo.node_count();
        let repair_active = cfg.repair.enabled
            && (scenario.as_ref().is_some_and(|s| s.can_fault())
                || !cfg.node_failures.is_empty()
                || cfg.drop_probability > 0.0);
        let repair = super::repair::RepairState::new(topo_nodes, repair_active, &cfg.repair);
        let mut world = World {
            cfg,
            master,
            topo,
            tree,
            root,
            channel,
            scenario,
            queries,
            source_count,
            nodes,
            hot,
            chain_ev: vec![Vec::new(); topo_nodes],
            setup_over: false,
            forced_windows,
            run_end,
            measure_from,
            qmetrics,
            phase_piggybacks: 0,
            phase_requests: 0,
            reports_sent: 0,
            missed_reports: 0,
            resync_events: 0,
            guard_wake_ns: 0,
            #[cfg(feature = "sanitize")]
            san: super::sanitizer::Sanitizer::default(),
            lifetime: LifetimeStats::default(),
            repair,
            mac_lost: MacTotals::default(),
            kid_pool: Vec::new(),
            act_pool: Vec::new(),
            mact_pool: Vec::new(),
            tx_frames: Vec::new(),
            tx_end_buf: TxEndBuf::default(),
            sweep_scratch: Vec::new(),
            probe,
        };

        // Scripted clock glitches are part of the compiled scenario,
        // not the event stream; report them to the probe up front.
        if world.probe.enabled() {
            if let Some(s) = &world.scenario {
                for g in &s.glitches {
                    world.probe.on_clock_glitch(g.at, g.node, g.delta_ns);
                }
            }
        }

        initial.push((world.measure_from, Ev::SetupEnd));

        match world.cfg.setup_mode {
            SetupMode::Idealized => {
                // Pre-register every query at every relevant node.
                for qi in 0..world.queries.len() {
                    for node in world.tree.members().to_vec() {
                        if let Some((round, at)) = world.register_query_at(node, qi, SimTime::ZERO)
                        {
                            initial.push((
                                world.to_wall(node, at),
                                Ev::RoundStart {
                                    node,
                                    query: qi,
                                    round,
                                },
                            ));
                        }
                    }
                }
            }
            SetupMode::Flooded => {
                for (qi, q) in world.queries.iter().enumerate() {
                    let issue = q.phase.saturating_sub(world.cfg.setup_slot);
                    initial.push((issue, Ev::FloodIssue { query: qi }));
                    for node in world.tree.members() {
                        initial.push((issue, Ev::ForceWake { node: *node }));
                    }
                }
                for &(_, end) in &world.forced_windows.clone() {
                    initial.push((end, Ev::ForcedWindowEnd));
                }
            }
        }

        // Policy schedule chains (SYNC edges / PSM beacons, …): each
        // member's policy may arm its initial timers.
        {
            let mut acts = Vec::new();
            for m in world.tree.members().to_vec() {
                world.nodes[m.index()].policy.initial_actions(&mut acts);
                for a in acts.drain(..) {
                    match a {
                        PolicyAction::SetTimer { timer, at } => {
                            initial.push((
                                world.to_wall(m, at),
                                Ev::Policy {
                                    node: m,
                                    timer,
                                    local: at,
                                },
                            ));
                        }
                        other => panic!("initial_actions may only arm timers, got {other:?}"),
                    }
                }
            }
        }

        // Scripted failures.
        for &(at, node) in &world.cfg.node_failures.clone() {
            initial.push((
                at,
                Ev::NodeFail {
                    node: NodeId::new(node),
                },
            ));
        }

        // Scenario event stream: churn + the battery sweep chain.
        if let Some(s) = &world.scenario {
            for e in &s.events {
                let node = NodeId::new(e.node);
                let ev = if e.up {
                    Ev::NodeRecover { node }
                } else {
                    Ev::NodeFail { node }
                };
                initial.push((e.at, ev));
            }
            if let Some(b) = s.battery {
                initial.push((SimTime::ZERO + b.check_period, Ev::BatteryCheck));
            }
        }

        world
    }
}

impl World {
    /// Runs a full experiment with a custom policy factory — the plugin
    /// seam: the factory is consulted once per node and may return any
    /// [`essat_core::policy::PowerPolicy`] implementation, including
    /// ones defined outside this workspace.
    pub fn run_with(cfg: &ExperimentConfig, factory: &PolicyFactory<'_>) -> RunResult {
        let (result, _) = World::run_instrumented(
            cfg,
            factory,
            None,
            &mut WorldScratch::new(),
            None,
            NullProbe,
            &mut RunTimings::default(),
        );
        result.expect("uncapped run cannot exhaust a budget")
    }

    /// Deterministic synthetic sensor reading.
    ///
    /// (On the non-generic impl so `World::reading(...)` resolves
    /// without a probe type annotation — it is a pure function.)
    pub(crate) fn reading(node: NodeId, k: u64) -> AggState {
        AggState::from_reading(((node.index() as u64 * 31 + k * 7) % 101) as f64)
    }
}

impl<P: Probe> World<P> {
    /// The run path every entry point takes: builds the world for
    /// `cfg` with `factory`, runs it to the configured duration, and
    /// returns its metrics together with the probe, so callers can
    /// drain what it recorded.
    ///
    /// * `cache` shares the immutable topology / routing-tree / channel
    ///   adjacency block across runs at the same sweep point, and
    ///   `scratch` recycles a worker's warmed allocations across calls
    ///   (see [`BuildCache`] and [`WorldScratch`]). Neither changes the
    ///   result, only the allocator traffic (pinned by
    ///   `tests/determinism.rs`).
    /// * `budget` caps the events processed: the result is `None` when
    ///   the run hits it before the configured duration — an event
    ///   count, not a wall clock, so the same job trips (or doesn't)
    ///   identically on every machine and thread count.
    /// * `timings` accumulates build / run / finalize wall-clock; it is
    ///   measurement only and never influences the run.
    ///
    /// The result is byte-identical for every probe (including
    /// [`NullProbe`]) — probes observe, they cannot perturb.
    pub fn run_instrumented(
        cfg: &ExperimentConfig,
        factory: &PolicyFactory<'_>,
        cache: Option<&BuildCache>,
        scratch: &mut WorldScratch,
        budget: Option<u64>,
        probe: P,
        timings: &mut RunTimings,
    ) -> (Option<RunResult>, P) {
        let t_build = std::time::Instant::now();
        let pre = cache.map(|c| c.get_or_build(cfg));
        let mut initial = std::mem::take(&mut scratch.initial);
        initial.clear();
        let mut world = World::new_prebuilt(cfg.clone(), factory, pre, &mut initial, probe);
        world.adopt_scratch(scratch);
        let run_end = world.run_end;
        let mut engine = Engine::with_queue(world, std::mem::take(&mut scratch.queue));
        for (at, ev) in initial.drain(..) {
            // Initial chain policy timers must be tracked like every
            // later one, or churn cancellation would miss them.
            let chain_node = match &ev {
                Ev::Policy { node, timer, .. } if timer.is_chain() => Some(*node),
                _ => None,
            };
            let id = engine.schedule_at(at, ev);
            if let Some(n) = chain_node {
                engine.model_mut().chain_ev[n.index()].push(id);
            }
        }
        scratch.initial = initial;
        timings.build += t_build.elapsed();
        let t_run = std::time::Instant::now();
        let reached_end = match budget {
            Some(b) => engine.run_until_capped(run_end, b),
            None => {
                engine.run_until(run_end);
                true
            }
        };
        let events = engine.processed();
        let peak = engine.peak_pending() as u64;
        let (world, mut queue) = engine.into_parts();
        queue.clear();
        scratch.queue = queue;
        timings.run += t_run.elapsed();
        if !reached_end {
            // Budget exhausted: drop the world (its pools are rebuilt
            // on the worker's next run) and report the abandonment.
            return (None, world.probe);
        }
        let t_fin = std::time::Instant::now();
        let (result, probe) = world.finalize_into(run_end, events, peak, Some(scratch));
        timings.finalize += t_fin.elapsed();
        (Some(result), probe)
    }

    /// Moves a scratch's warmed buffer pools into this (fresh) world.
    pub(crate) fn adopt_scratch(&mut self, scratch: &mut WorldScratch) {
        std::mem::swap(&mut self.kid_pool, &mut scratch.kid_pool);
        std::mem::swap(&mut self.act_pool, &mut scratch.act_pool);
        std::mem::swap(&mut self.mact_pool, &mut scratch.mact_pool);
        std::mem::swap(&mut self.tx_frames, &mut scratch.tx_frames);
        self.channel.adopt_pools(&mut scratch.channel);
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    pub(crate) fn query(&self, qi: usize) -> Query {
        self.queries[qi].clone()
    }

    /// Maps a node-local schedule instant to wall (engine) time under
    /// the scenario's clock-fault model.
    ///
    /// Policies reason in their node's local clock; the engine runs on
    /// true time. A node whose clock reads `at` when the true time is
    /// `at - err(at)` fires its timer at that wall instant, so positive
    /// clock error makes a node act *early* and negative error late —
    /// exactly the desync Safe Sleep's wake-lead and DTS's phase-shifted
    /// schedules must survive. The identity map without clock faults,
    /// so fault-free runs are bit-for-bit unchanged.
    pub(crate) fn to_wall(&self, node: NodeId, at: SimTime) -> SimTime {
        let Some(s) = &self.scenario else { return at };
        if !s.has_clock_faults() {
            return at;
        }
        let err = s.clock_err_ns(node.as_u32(), at) as i128;
        let wall = at.as_nanos() as i128 - err;
        SimTime::from_nanos(wall.clamp(0, u64::MAX as i128) as u64)
    }

    /// The adaptive guard time at local instant `t` (see
    /// [`crate::config::GuardTime`]): wake-ups lead their target by this
    /// much and collection timeouts stretch by it, so schedules tolerate
    /// the clock error accumulated by `t`.
    pub(crate) fn guard_at(&self, t: SimTime) -> essat_sim::time::SimDuration {
        self.cfg.clock_guard.at(t)
    }

    /// `(own_rank, max_rank, own_level, max_level, children-with-ranks)`
    /// for `node`, from the current tree.
    ///
    /// The children vector comes from [`World::kid_pool`]; hand it back
    /// with [`World::put_kids`] when done so steady-state event handling
    /// does not allocate.
    pub(crate) fn tree_view(&mut self, node: NodeId) -> (u32, u32, u32, u32, Vec<(NodeId, u32)>) {
        let mut kids = self.kid_pool.pop().unwrap_or_default();
        kids.extend(
            self.tree
                .children(node)
                .iter()
                .map(|&c| (c, self.tree.rank(c))),
        );
        (
            self.tree.rank(node),
            self.tree.max_rank(),
            self.tree.level(node).unwrap_or(0),
            self.tree.max_level(),
            kids,
        )
    }

    /// Returns a [`World::tree_view`] children buffer to the pool.
    pub(crate) fn put_kids(&mut self, mut kids: Vec<(NodeId, u32)>) {
        kids.clear();
        self.kid_pool.push(kids);
    }

    /// Whether this configuration can inject any fault at all (a
    /// scenario that actually perturbs the run, scripted failures, or
    /// loss injection). The self-healing layer only activates when it
    /// can — an idealised fault-free run keeps the legacy event stream
    /// byte-identical (the golden-digest guarantee), and the sanitizer
    /// asserts no repair timer ever arms there. A scenario that compiles
    /// to nothing (e.g. `clock_drift(0)`) doesn't count, so its control
    /// arm stays bit-identical to having no scenario at all. MAC retry
    /// exhaustion from plain contention is legacy §4.3 territory either
    /// way.
    pub(crate) fn faults_possible(&self) -> bool {
        self.scenario.as_ref().is_some_and(|s| s.can_fault())
            || !self.cfg.node_failures.is_empty()
            || self.cfg.drop_probability > 0.0
    }

    pub(crate) fn is_source(&self, node: NodeId, qi: usize) -> bool {
        self.tree.is_member(node) && self.queries[qi].sources.contains(node)
    }

    pub(crate) fn in_forced_window(&self, now: SimTime) -> bool {
        self.forced_windows
            .iter()
            .any(|&(s, e)| now >= s && now < e)
    }

    /// Whether round `k` of `q` is active under the scenario's traffic
    /// phases (always, without a scenario). A pure function of the
    /// compiled schedule, so every node agrees without signalling.
    pub(crate) fn round_is_active(&self, q: &Query, k: u64) -> bool {
        match &self.scenario {
            Some(s) => s.round_active(q.round_start(k), k),
            None => true,
        }
    }

    // ------------------------------------------------------------------
    // Setup & finalisation
    // ------------------------------------------------------------------

    pub(crate) fn handle_setup_end(&mut self, ctx: &mut Context<'_, Ev>) {
        self.setup_over = true;
        let now = ctx.now();
        // Metrics snapshot (dead radios were settled at death; settling
        // them again would bill the dead span).
        for i in 0..self.nodes.len() {
            let n = &mut self.nodes[i];
            if !self.hot.dead[i] {
                n.radio.settle(now);
            }
            n.snap = RadioSnapshot {
                active: n.radio.active_ns(),
                off: n.radio.off_ns(),
                trans: n.radio.transition_ns(),
                energy: n.radio.energy_j(),
            };
        }
        // First sleep decisions: one in-order sweep straight over the
        // SoA flags (no id-list materialisation — scheduling order, and
        // therefore seq tie-breaks, must match the per-node path
        // exactly). Non-members sleep for the rest of the run.
        for i in 0..self.hot.dead.len() {
            if self.hot.dead[i] {
                continue;
            }
            let node = NodeId::new(i as u32);
            if !self.hot.member[i] {
                if self.hot.radio_active[i] && self.nodes[i].mac.can_suspend() {
                    self.suspend_radio(node, ctx);
                }
                continue;
            }
            self.sleep_checkpoint(node, SleepTrigger::Boundary, ctx);
        }
    }

    pub(crate) fn handle_forced_window_end(&mut self, ctx: &mut Context<'_, Ev>) {
        if !self.setup_over {
            return;
        }
        // Whole-network boundary sweep, straight over the Hot arrays —
        // no id-list materialisation.
        for i in 0..self.hot.dead.len() {
            self.sleep_checkpoint(NodeId::new(i as u32), SleepTrigger::Boundary, ctx);
        }
    }

    pub(crate) fn handle_flood_issue(&mut self, qi: usize, ctx: &mut Context<'_, Ev>) {
        let root = self.root;
        if let Some((round, at)) = self.register_query_at(root, qi, ctx.now()) {
            ctx.schedule_at(
                self.to_wall(root, at).max(ctx.now()),
                Ev::RoundStart {
                    node: root,
                    query: qi,
                    round,
                },
            );
        }
        self.nodes[root.index()].registered.insert(qi);
        let frame = {
            let n = &mut self.nodes[root.index()];
            essat_net::frame::Frame {
                id: n.mac.alloc_frame_id(),
                src: root,
                dest: essat_net::frame::Dest::Broadcast,
                kind: essat_net::frame::FrameKind::Data,
                bytes: crate::payload::sizes::QUERY_SETUP_BYTES,
                payload: Payload::QuerySetup {
                    query: QueryId::new(qi as u32),
                    hops: 0,
                },
            }
        };
        self.enqueue_frame(root, frame, ctx);
    }

    /// Collects the run's metrics; with a scratch, salvages the world's
    /// warmed buffer pools into it for the worker's next run. Returns
    /// the probe alongside the result so callers can drain what it
    /// recorded.
    pub(crate) fn finalize_into(
        mut self,
        end: SimTime,
        events_processed: u64,
        peak_queue_depth: u64,
        scratch: Option<&mut WorldScratch>,
    ) -> (RunResult, P) {
        // A node still orphaned at run end is right-censored: its
        // open orphan interval closes at the measurement boundary.
        for i in 0..self.nodes.len() {
            if !self.hot.dead[i] {
                self.settle_orphan(i, end);
            }
        }
        #[cfg(feature = "sanitize")]
        self.sanitize_sweep(end);
        // Last probe callback, before radios settle: the view's
        // projections at `end` equal the settled books, so a sampler's
        // final row matches the `RunResult` node totals exactly.
        if self.probe.enabled() {
            let view = WorldView {
                nodes: &self.nodes,
                hot: &self.hot,
            };
            self.probe.on_run_end(end, &view);
        }
        if let Some(s) = scratch {
            s.kid_pool.append(&mut self.kid_pool);
            s.act_pool.append(&mut self.act_pool);
            s.mact_pool.append(&mut self.mact_pool);
            self.tx_frames.clear();
            std::mem::swap(&mut self.tx_frames, &mut s.tx_frames);
            self.channel.harvest_pools(&mut s.channel);
        }
        let mut node_metrics = Vec::new();
        let mut sleep_hist = Histogram::new(SLEEP_HIST_BIN_S, SLEEP_HIST_BINS);
        let mut mac = MacTotals::default();
        for i in 0..self.nodes.len() {
            let id = NodeId::new(i as u32);
            let n = &mut self.nodes[i];
            if !self.hot.dead[i] {
                n.radio.settle(end);
            }
            // Settlement: a node that never died must have its whole
            // run accounted, split exactly across the three states.
            #[cfg(feature = "sanitize")]
            if !self.hot.dead[i] && n.revivals == 0 {
                assert_eq!(
                    n.radio.active_ns() + n.radio.off_ns() + n.radio.transition_ns(),
                    end.as_nanos(),
                    "sanitizer: node {i} radio accounting does not settle to the run length"
                );
            }
            if !self.hot.member[i] {
                continue;
            }
            let active = n.radio.active_ns() - n.snap.active;
            let off = n.radio.off_ns() - n.snap.off;
            let trans = n.radio.transition_ns() - n.snap.trans;
            let total = active + off + trans;
            // A dead radio's books are settled at death, so `total`
            // already clamps to the node's death time. A node that died
            // *before* the window opened (or a zero-length window) has
            // no measured span at all — it was never active in the
            // window, so its duty cycle is 0, not the former 1.0
            // (tests/fault_injection.rs pins this).
            let duty = if total == 0 {
                0.0
            } else {
                (active + trans) as f64 / total as f64
            };
            node_metrics.push(NodeMetrics {
                node: id,
                rank: n.rank0,
                level: n.level0,
                duty_cycle: duty,
                energy_j: n.radio.energy_j() - n.snap.energy,
            });
            for si in n.radio.sleep_intervals() {
                if si.started >= self.measure_from {
                    sleep_hist.add(si.length().as_secs_f64());
                }
            }
            let ms = n.mac.stats();
            mac.enqueued += ms.enqueued;
            mac.data_tx += ms.data_tx;
            mac.delivered += ms.delivered;
            mac.failed += ms.failed;
            mac.retries += ms.retries;
        }
        // MACs replaced by churn revivals contributed traffic too.
        mac.enqueued += self.mac_lost.enqueued;
        mac.data_tx += self.mac_lost.data_tx;
        mac.delivered += self.mac_lost.delivered;
        mac.failed += self.mac_lost.failed;
        mac.retries += self.mac_lost.retries;
        let ch = self.channel.stats();
        let result = RunResult {
            seed: self.cfg.seed,
            measured_from: self.measure_from,
            measured_until: end,
            nodes: node_metrics,
            queries: std::mem::take(&mut self.qmetrics),
            sleep_intervals: sleep_hist,
            phase_piggybacks: self.phase_piggybacks,
            phase_requests: self.phase_requests,
            reports_sent: self.reports_sent,
            missed_reports: self.missed_reports,
            resync_events: self.resync_events,
            guard_wake_ns: self.guard_wake_ns,
            mac,
            lifetime: std::mem::take(&mut self.lifetime),
            repairs: self.repair.repairs,
            reparent_latency_ns: self.repair.reparent_latency_ns,
            orphan_node_ns: self.repair.orphan_node_ns,
            redispatches: self.repair.redispatches,
            channel_transmissions: ch.transmissions,
            channel_collisions: ch.collisions,
            events_processed,
            peak_queue_depth,
        };
        (result, self.probe)
    }

    /// The routing tree (tests & examples inspect structure).
    pub fn tree(&self) -> &RoutingTree {
        &self.tree
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The compiled scenario driving this run, if any (tests record its
    /// trace for replay).
    pub fn scenario(&self) -> Option<&CompiledScenario> {
        self.scenario.as_ref()
    }

    /// Notifies the probe of an event dispatch. With [`NullProbe`] the
    /// `enabled()` check constant-folds to `false` and the whole call
    /// (view construction included) disappears from the hot path.
    fn probe_event(&mut self, now: SimTime, kind: &'static str) {
        if !self.probe.enabled() {
            return;
        }
        let view = WorldView {
            nodes: &self.nodes,
            hot: &self.hot,
        };
        self.probe.on_event(now, kind, &view);
    }
}

/// The read-only per-node projection handed to probes: borrows only
/// the node stacks and the hot flags, so it can coexist with a
/// mutable borrow of the probe itself.
struct WorldView<'a> {
    nodes: &'a [NodeState],
    hot: &'a Hot,
}

impl SampleView for WorldView<'_> {
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn is_alive(&self, node: usize) -> bool {
        !self.hot.dead[node]
    }

    fn in_tree(&self, node: usize) -> bool {
        self.hot.member[node]
    }

    fn energy_j(&self, node: usize, now: SimTime) -> f64 {
        let n = &self.nodes[node];
        // Dead radios were settled at death; projecting them to `now`
        // would bill the dead span.
        let e = if self.hot.dead[node] {
            n.radio.energy_j()
        } else {
            n.radio.energy_j_at(now)
        };
        e - n.snap.energy
    }

    fn duty_cycle(&self, node: usize, now: SimTime) -> f64 {
        let n = &self.nodes[node];
        let (active, off, trans) = if self.hot.dead[node] {
            (
                n.radio.active_ns(),
                n.radio.off_ns(),
                n.radio.transition_ns(),
            )
        } else {
            n.radio.counters_at(now)
        };
        let active = active - n.snap.active;
        let off = off - n.snap.off;
        let trans = trans - n.snap.trans;
        let total = active + off + trans;
        if total == 0 {
            0.0
        } else {
            (active + trans) as f64 / total as f64
        }
    }

    fn queue_depth(&self, node: usize) -> usize {
        self.nodes[node].mac.queue_len()
    }
}

impl<P: Probe> Model for World<P> {
    type Event = Ev;

    fn handle(&mut self, event: Ev, ctx: &mut Context<'_, Ev>) {
        #[cfg(feature = "sanitize")]
        self.sanitize_step(ctx.now());
        self.probe_event(ctx.now(), event.label());
        match event {
            Ev::SetupEnd => self.handle_setup_end(ctx),
            Ev::ForcedWindowEnd => self.handle_forced_window_end(ctx),
            Ev::RoundStart { node, query, round } => {
                self.handle_round_start(node, query, round, ctx)
            }
            Ev::CollectionTimeout { node, query, round } => {
                self.handle_collection_timeout(node, query, round, ctx)
            }
            Ev::ReleaseReport { node, query, round } => {
                if !self.hot.dead[node.index()] {
                    self.do_send(node, query, round, ctx);
                }
            }
            Ev::MacTimer { node, kind } => {
                // Disarmed timers were cancelled on the queue, so an
                // expiry that dispatches is the armed one — no staleness
                // check. The dead guard stays: death cancels the MAC's
                // timers, but a timer armed *while dead* (a dead node's
                // one-shot policy timer may still enqueue) must no-op.
                if !self.hot.dead[node.index()] {
                    #[cfg(feature = "sanitize")]
                    assert_eq!(
                        self.nodes[node.index()].mac.timer_event(kind),
                        Some(ctx.event_id()),
                        "sanitizer: stale MAC timer dispatched at node {node}"
                    );
                    let mut acts = self.take_macts();
                    self.nodes[node.index()]
                        .mac
                        .timer_fired_into(kind, ctx.now(), &mut acts);
                    self.exec_mac_actions(node, &mut acts, ctx);
                    self.put_macts(acts);
                    self.sleep_checkpoint(node, SleepTrigger::Quiesce, ctx);
                }
            }
            Ev::TxEnd { sender, tx } => self.handle_tx_end(sender, tx, ctx),
            Ev::RadioDone { node } => self.handle_radio_done(node, ctx),
            Ev::RadioWake { node } => self.handle_radio_wake(node, ctx),
            Ev::Policy { node, timer, local } => self.handle_policy_timer(node, timer, local, ctx),
            Ev::NodeFail { node } => self.handle_node_fail(node, ctx),
            Ev::NodeRecover { node } => self.handle_node_recover(node, ctx),
            Ev::BatteryCheck => self.handle_battery_check(ctx),
            Ev::FloodIssue { query } => self.handle_flood_issue(query, ctx),
            Ev::ForceWake { node } => self.wake_radio(node, ctx),
        }
    }
}
