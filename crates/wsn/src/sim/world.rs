//! The [`World`]: one simulation run over the discrete-event engine.

use std::sync::Arc;

use essat_core::policy::{PolicyAction, SleepTrigger};
use essat_core::shaper::TreeInfo;
use essat_net::channel::{Channel, TxEndBuf};
use essat_net::frame::Frame;
use essat_net::ids::NodeId;
use essat_net::mac::{Mac, MacParams, MacTimer};
use essat_net::radio::Radio;
use essat_net::topology::Topology;
use essat_obs::profile::RunTimings;
use essat_obs::{NullProbe, Probe, SampleView};
use essat_query::aggregate::{AggState, AggregateOp};
use essat_query::model::{Query, QueryId};
use essat_query::tree::RoutingTree;
use essat_scenario::compile::CompiledScenario;
use essat_scenario::gilbert::GilbertElliott;
use essat_sim::engine::{Context, Engine, Model};
use essat_sim::queue::{EventId, EventQueue};
use essat_sim::rng::SimRng;
use essat_sim::stats::{Histogram, OnlineStats};
use essat_sim::time::SimTime;

use super::events::Ev;
use super::node::{
    NodeState, QueryState, RadioSnapshot, CHILD_FAIL_THRESHOLD, PARENT_FAIL_THRESHOLD,
};
use super::pool::{BuildCache, Prebuilt, WorldScratch};
use crate::config::{ExperimentConfig, SetupMode, SETUP_SLOT};
use crate::metrics::{LifetimeStats, MacTotals, NodeMetrics, QueryMetrics, RunResult};
use crate::payload::Payload;
use crate::protocol::{PolicyEnv, PolicyFactory, Protocol};

/// Fine-grained sleep-interval histogram: 0.5 ms bins up to 1 s.
const SLEEP_HIST_BIN_S: f64 = 0.0005;
const SLEEP_HIST_BINS: usize = 2000;

/// Per-node run state that has no other home, structure-of-arrays:
/// liveness, the pending Safe-Sleep wake-up handles and the battery
/// deaths.
///
/// Liveness is consulted by (nearly) every event, and the whole-network
/// walks (setup end, the `BatteryCheck` sweep, partition checks) scan
/// it in a handful of cache lines. Nothing here copies state kept
/// elsewhere: a radio's mode lives in its [`essat_net::radio::Radio`],
/// and build-time tree membership in the world's pristine tree.
#[derive(Debug, Default)]
pub(crate) struct Hot {
    /// Node is dead (scripted failure, churn, or battery depletion).
    pub(crate) dead: Vec<bool>,
    /// Handle of the node's pending Safe-Sleep wake-up, if any. A newer
    /// sleep decision cancels the superseded event on the queue through
    /// this handle instead of letting it dispatch stale.
    pub(crate) wake_ev: Vec<Option<EventId>>,
    /// Death was caused by battery depletion: permanent — churn
    /// `resurrect` events must not revive a node with an empty battery.
    pub(crate) battery_dead: Vec<bool>,
}

impl Hot {
    fn new(n: usize) -> Hot {
        Hot {
            dead: vec![false; n],
            wake_ev: vec![None; n],
            battery_dead: vec![false; n],
        }
    }
}

/// `node`'s place in `tree` as the policy calls take it, borrowing the
/// tree's `(child, rank)` list.
pub(crate) fn tree_info(tree: &RoutingTree, node: NodeId) -> TreeInfo<'_> {
    TreeInfo {
        own_rank: tree.rank(node),
        max_rank: tree.max_rank(),
        own_level: tree.level(node).unwrap_or(0),
        // Every member reaches the root, so the deepest level is the
        // root's rank.
        max_level: tree.max_rank(),
        children: tree.child_ranks(node),
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
    /// The topology, root and pristine routing tree this run was built
    /// from; immutable for the whole run and shared across jobs by the
    /// sweep executor's build cache. Build-time tree facts (membership,
    /// rank, level, member count) are read from `pre.tree`.
    pub(crate) pre: Arc<Prebuilt>,
    /// `pre.topo` and `pre.root`, the handles the hot code reads.
    pub(crate) topo: Arc<Topology>,
    pub(crate) root: NodeId,
    /// The live routing tree: a clone of `pre.tree` that failures,
    /// churn and repair change.
    pub(crate) tree: RoutingTree,
    pub(crate) channel: Channel,
    /// Compiled dynamic-environment scenario, if any.
    pub(crate) scenario: Option<CompiledScenario>,
    pub(crate) queries: Vec<Query>,
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
    /// The Figure 8 histogram: each build-time member's sleep intervals
    /// that began at or after `measure_from`, binned as they close.
    pub(crate) sleep_hist: Histogram,
    /// Recycled policy-action buffers, so steady-state event handling
    /// allocates only until the pool warms up. A pool, not one buffer,
    /// because executing one node's actions can run another node's
    /// policy.
    pub(crate) act_pool: Vec<Vec<PolicyAction<Payload>>>,
    /// Recycled MAC-action buffers (same purpose as `act_pool`).
    pub(crate) mact_pool: Vec<Vec<essat_net::mac::MacAction<Payload>>>,
    /// In-flight frames, indexed by the channel's transmission slot.
    ///
    /// The frame body used to travel inside `Ev::TxEnd`, which made
    /// every queue slot as large as the fattest frame (120 B) and every
    /// push/pop copy it; parking frames here keeps the event alphabet
    /// at pointer-ish sizes for the 40M-event runs.
    pub(crate) tx_frames: Vec<Option<Frame<Payload>>>,
    /// Recycled carrier 0 → 1 list: the channel writes each new
    /// transmission's newly busy nodes here.
    pub(crate) now_busy: Vec<NodeId>,
    /// Recycled flat tx-end outcome buffer: the channel partitions each
    /// finished transmission's clean / corrupted / now-idle fan-out into
    /// this one contiguous list instead of three per-call vectors.
    pub(crate) tx_end_buf: TxEndBuf,
    /// The attached observability probe ([`NullProbe`] by default).
    pub(crate) probe: P,
}

impl World {
    /// Builds the world for `cfg`, with the default policy factory
    /// ([`Protocol::build_policy`]), and the event queue holding its
    /// first events.
    pub fn new(cfg: ExperimentConfig) -> (World, EventQueue<Ev>) {
        let mut queue = EventQueue::new();
        let world = World::new_prebuilt(cfg, &Protocol::build_policy, None, &mut queue, NullProbe);
        (world, queue)
    }
}

impl<P: Probe> World<P> {
    /// Builds the world for `cfg` with a policy factory, over an
    /// optional cached build block, pushing its first events onto
    /// `queue` (which must be empty) and recording the handles of the
    /// initial chain policy timers. The probe is installed before any
    /// event runs (and told about the scenario's scripted clock
    /// glitches, which are compiled ahead of time).
    pub(crate) fn new_prebuilt(
        cfg: ExperimentConfig,
        factory: &PolicyFactory<'_>,
        pre: Option<Arc<Prebuilt>>,
        queue: &mut EventQueue<Ev>,
        probe: P,
    ) -> World<P> {
        cfg.validate();
        let master = SimRng::seed_from_u64(cfg.seed);
        let mut phase_rng = master.derive(2);
        let channel_rng = master.derive(3);

        // The topology and pristine routing tree are pure functions of
        // (cfg shape, seed); take them from the cache when the executor
        // provides one, else build them here (the builder consumes the
        // same `master.derive(1)` stream either way, so cached and fresh
        // construction are indistinguishable).
        let pre = pre.unwrap_or_else(|| Arc::new(Prebuilt::build(&cfg)));
        let topo = Arc::clone(&pre.topo);
        let root = pre.root;
        let tree = pre.tree.clone();

        let mut channel = Channel::new(Arc::clone(&topo), channel_rng);
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
                let mut q = Query::periodic(id, period, phase, AggregateOp::Avg);
                if let Some(d) = cfg.workload.deadline {
                    q = q.with_deadline(d);
                }
                queries.push(q);
            }
        }

        let run_end = SimTime::ZERO + cfg.duration;
        let measure_from = SimTime::ZERO + SETUP_SLOT;

        // The policy factory sees the finished tree (SPAN derives its
        // backbone from it) and builds one policy per node.
        let env = PolicyEnv::new(&cfg, &tree, topo.node_count(), run_end);
        let hot = Hot::new(topo.node_count());
        let nodes = topo
            .nodes()
            .map(|id| NodeState {
                policy: factory(&cfg, id, &env),
                radio: Radio::new(cfg.radio),
                mac: Mac::new(
                    id,
                    MacParams::paper(),
                    master.derive2(4, id.as_u32() as u64),
                ),
                mac_ev: [None; MacTimer::COUNT],
                queries: queries.iter().map(|_| QueryState::default()).collect(),
                loss: essat_core::maintenance::LossDetector::new(),
                child_fail: essat_core::maintenance::FailureDetector::new(CHILD_FAIL_THRESHOLD),
                parent_fail: essat_core::maintenance::FailureDetector::new(PARENT_FAIL_THRESHOLD),
                revivals: 0,
                recheck_on_wake: false,
                snap: RadioSnapshot::default(),
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
                let start = q.phase.saturating_sub(SETUP_SLOT);
                forced_windows.push((start, start + SETUP_SLOT));
            }
        }

        let topo_nodes = topo.node_count();
        let repair = super::repair::RepairState::new(topo_nodes, &cfg, scenario.as_ref());
        let mut world = World {
            cfg,
            master,
            pre,
            topo,
            root,
            tree,
            channel,
            scenario,
            queries,
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
            sleep_hist: Histogram::new(SLEEP_HIST_BIN_S, SLEEP_HIST_BINS),
            act_pool: Vec::new(),
            mact_pool: Vec::new(),
            tx_frames: Vec::new(),
            now_busy: Vec::new(),
            tx_end_buf: TxEndBuf::default(),
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

        queue.push(world.measure_from, Ev::SetupEnd);

        match world.cfg.setup_mode {
            SetupMode::Idealized => {
                // Pre-register every query at every relevant node.
                for qi in 0..world.queries.len() {
                    for node in world.tree.members().to_vec() {
                        if let Some((round, at)) = world.register_query_at(node, qi, SimTime::ZERO)
                        {
                            queue.push(
                                world.to_wall(node, at),
                                Ev::RoundStart {
                                    node,
                                    query: qi,
                                    round,
                                },
                            );
                        }
                    }
                }
            }
            SetupMode::Flooded => {
                for (qi, q) in world.queries.iter().enumerate() {
                    let issue = q.phase.saturating_sub(SETUP_SLOT);
                    queue.push(issue, Ev::FloodIssue { query: qi });
                    for node in world.tree.members() {
                        queue.push(issue, Ev::ForceWake { node: *node });
                    }
                }
                for &(_, end) in &world.forced_windows {
                    queue.push(end, Ev::ForcedWindowEnd);
                }
            }
        }

        // Policy schedule chains (SYNC edges / PSM beacons, …): each
        // member's policy may arm its initial timers. Chain links are
        // tracked like every later one, or churn cancellation would
        // miss them.
        {
            let mut acts = Vec::new();
            for m in world.tree.members().to_vec() {
                world.nodes[m.index()].policy.initial_actions(&mut acts);
                for a in acts.drain(..) {
                    match a {
                        PolicyAction::SetTimer { timer, at } => {
                            let id = queue.push(
                                world.to_wall(m, at),
                                Ev::Policy {
                                    node: m,
                                    timer,
                                    local: at,
                                },
                            );
                            if timer.is_chain() {
                                world.chain_ev[m.index()].push(id);
                            }
                        }
                        other => panic!("initial_actions may only arm timers, got {other:?}"),
                    }
                }
            }
        }

        // Scripted failures.
        for &(at, node) in &world.cfg.node_failures {
            queue.push(
                at,
                Ev::NodeFail {
                    node: NodeId::new(node),
                },
            );
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
                queue.push(e.at, ev);
            }
            if let Some(b) = s.battery {
                queue.push(SimTime::ZERO + b.check_period, Ev::BatteryCheck);
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
    /// * `cache` shares the immutable topology / routing-tree block
    ///   across runs at the same sweep point, and `scratch` recycles a
    ///   worker's event queue across calls (see [`BuildCache`] and
    ///   [`WorldScratch`]). Neither changes the result, only the
    ///   allocator traffic (pinned by `tests/determinism.rs`).
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
        let mut queue = std::mem::take(&mut scratch.queue);
        assert!(queue.is_empty(), "recycled queue must be empty");
        let world = World::new_prebuilt(cfg.clone(), factory, pre, &mut queue, probe);
        let run_end = world.run_end;
        let mut engine = Engine::with_queue(world, queue);
        timings.build += t_build.elapsed();
        let t_run = std::time::Instant::now();
        let reached_end = engine.run_until_capped(run_end, budget.unwrap_or(u64::MAX));
        let events = engine.processed();
        let peak = engine.peak_pending() as u64;
        let (world, mut queue) = engine.into_parts();
        queue.clear();
        scratch.queue = queue;
        timings.run += t_run.elapsed();
        if !reached_end {
            // Budget exhausted: drop the world and report the
            // abandonment.
            return (None, world.probe);
        }
        let t_fin = std::time::Instant::now();
        let (result, probe) = world.finalize_into(run_end, events, peak);
        timings.finalize += t_fin.elapsed();
        (Some(result), probe)
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

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
            if !self.pre.tree.is_member(node) {
                if self.nodes[i].radio.is_active() && self.nodes[i].mac.can_suspend() {
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

    /// Collects the run's metrics. Returns the probe alongside the
    /// result so callers can drain what it recorded.
    pub(crate) fn finalize_into(
        mut self,
        end: SimTime,
        events_processed: u64,
        peak_queue_depth: u64,
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
                dead: &self.hot.dead,
                tree: &self.pre.tree,
            };
            self.probe.on_run_end(end, &view);
        }
        let mut node_metrics = Vec::new();
        // MACs replaced by churn revivals contributed traffic too.
        let mut mac = self.mac_lost;
        for i in 0..self.nodes.len() {
            let id = NodeId::new(i as u32);
            let dead = self.hot.dead[i];
            let n = &mut self.nodes[i];
            if !dead {
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
            if !self.pre.tree.is_member(id) {
                continue;
            }
            // Settled above, so the books read at `end` are the settled
            // ones.
            let (duty_cycle, energy_j) = n.measured(dead, end);
            node_metrics.push(NodeMetrics {
                node: id,
                rank: self.pre.tree.rank(id),
                level: self.pre.tree.level(id).unwrap_or(0),
                duty_cycle,
                energy_j,
            });
            mac.add(&n.mac.stats());
        }
        let ch = self.channel.stats();
        let result = RunResult {
            seed: self.cfg.seed,
            measured_from: self.measure_from,
            measured_until: end,
            nodes: node_metrics,
            queries: std::mem::take(&mut self.qmetrics),
            sleep_intervals: self.sleep_hist,
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
            dead: &self.hot.dead,
            tree: &self.pre.tree,
        };
        self.probe.on_event(now, kind, &view);
    }
}

/// The read-only per-node projection handed to probes: borrows only
/// the node stacks, the liveness flags and the pristine tree, so it can
/// coexist with a mutable borrow of the probe itself.
struct WorldView<'a> {
    nodes: &'a [NodeState],
    dead: &'a [bool],
    tree: &'a RoutingTree,
}

impl SampleView for WorldView<'_> {
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn is_alive(&self, node: usize) -> bool {
        !self.dead[node]
    }

    fn in_tree(&self, node: usize) -> bool {
        self.tree.is_member(NodeId::new(node as u32))
    }

    fn energy_j(&self, node: usize, now: SimTime) -> f64 {
        self.nodes[node].measured(self.dead[node], now).1
    }

    fn duty_cycle(&self, node: usize, now: SimTime) -> f64 {
        self.nodes[node].measured(self.dead[node], now).0
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
                // expiry that dispatches is the stored, armed one; it is
                // consumed here. The dead guard stays: death cancels the
                // MAC's timers, but a timer armed *while dead* (a dead
                // node's one-shot policy timer may still enqueue) must
                // no-op.
                let stored = self.nodes[node.index()].mac_ev[kind.idx()].take();
                #[cfg(feature = "sanitize")]
                assert!(
                    stored == Some(ctx.event_id()) && self.nodes[node.index()].mac.is_armed(kind),
                    "sanitizer: stale MAC timer dispatched at node {node}"
                );
                #[cfg(not(feature = "sanitize"))]
                let _ = stored;
                if !self.hot.dead[node.index()] {
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
            Ev::FloodIssue { query } => self.flood_setup(self.root, query, 0, ctx),
            Ev::ForceWake { node } => self.wake_radio(node, ctx),
        }
    }
}
