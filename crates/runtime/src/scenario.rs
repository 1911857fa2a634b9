//! The `Scenario` front door: one builder for every async run.
//!
//! Every run of the asynchronous ports goes through [`Scenario`], and
//! every axis composes with every other: a crash-recovery plan, a
//! Byzantine plan and a deterministic trace can all ride on one
//! execution.
//!
//! ```
//! use dynspread_graph::{generators::Topology, oblivious::PeriodicRewiring};
//! use dynspread_runtime::link::{DropLink, LinkModelExt};
//! use dynspread_runtime::scenario::Scenario;
//!
//! let out = Scenario::new(8, 4)
//!     .topology(PeriodicRewiring::new(Topology::RandomTree, 3, 7))
//!     .link(DropLink::new(0.2).with_jitter(2))
//!     .seed(41)
//!     .run_single_source();
//! assert!(out.completed, "{}", out.report);
//! ```
//!
//! Every optional axis is a builder call: [`Scenario::faults`] injects a
//! [`FaultPlan`], [`Scenario::byzantine`] a [`MisbehaviorPlan`] (both at
//! once compose), [`Scenario::trace`] attaches a deterministic JSONL
//! tracer, and [`Scenario::session`] queues dissemination sessions for
//! the multi-session service layer ([`Scenario::run_sessions`]).
//!
//! # Composition rules
//!
//! The execution core *always* arms every axis — absent plans are
//! replaced by their proven-identity neutral elements
//! ([`FaultPlan::none`], [`MisbehaviorPlan::honest`]) — so composed and
//! single-axis runs go through literally the same code path:
//!
//! * the link is wrapped in [`PartitionLink`] over the fault plan (an
//!   empty plan is byte-identical to the raw link);
//! * the nodes are wrapped in
//!   [`Misbehaving`](crate::byzantine::Misbehaving) (an honest plan is
//!   byte-identical to unwrapped nodes);
//! * transcripts are recorded, and evidence audited, only when a real
//!   Byzantine plan is present (recording is observation-only either
//!   way).
//!
//! Degradation is reported as **coverage**: the mean fraction of the
//! token universe known at the end of the run, over the nodes still up
//! (`live_coverage`: a crash-stopped node can never learn anything, so it
//! is excluded) or over the honest nodes (`honest_coverage`).

use crate::byzantine::{check_evidence, AuditMsg, AuditSetup, Evidence, MisbehaviorPlan, Tamper};
use crate::engine::{EventReport, EventSim, StopReason};
use crate::event::VirtualTime;
use crate::faults::{FaultPlan, PartitionLink};
use crate::link::{LinkModel, PerfectLink};
use crate::protocol::{
    AsyncConfig, AsyncMultiSource, AsyncOblivious, AsyncObliviousConfig, AsyncSingleSource,
};
use crate::session::{SessionBoard, SessionMux, SessionSpec, SessionWorkload};
use crate::trace::{JsonlTracer, TraceRecord};
use bincodec::{Decode, Encode};
use dynspread_core::multi_source::SourceMap;
use dynspread_core::oblivious::{center_count, degree_threshold, source_threshold};
use dynspread_core::walk::elect_centers;
use dynspread_graph::adversary::Adversary;
use dynspread_graph::dynamic::GraphUpdate;
use dynspread_graph::{Graph, NodeId, Round};
use dynspread_sim::token::{TokenAssignment, TokenId, TokenSet};
use dynspread_sim::RunReport;
use std::collections::BTreeSet;
use std::sync::Arc;

use crate::engine::EventProtocol;

/// The default topology of a [`Scenario`]: the static complete graph over
/// the run's nodes.
///
/// It holds no graph: the complete graph is built when a run asks for
/// round 1, so a scenario whose topology is replaced through
/// [`Scenario::topology`] never builds one. Reports name it `"static"`,
/// exactly like the
/// [`StaticAdversary`](dynspread_graph::oblivious::StaticAdversary) over
/// the same graph, whose rounds it reproduces.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompleteTopology;

impl Adversary for CompleteTopology {
    fn graph_for_round(&mut self, _round: Round, prev: &Graph) -> Graph {
        Graph::complete(prev.node_count())
    }

    fn evolve(&mut self, round: Round, prev: &Graph) -> GraphUpdate {
        if round == 1 {
            GraphUpdate::Full(Graph::complete(prev.node_count()))
        } else {
            GraphUpdate::Unchanged
        }
    }

    fn name(&self) -> &str {
        "static"
    }
}

/// Builder for one fully-configured asynchronous execution.
///
/// See the [module docs](self) for the composition rules. The adversary
/// and link default to a static complete graph ([`CompleteTopology`])
/// over perfect links.
#[derive(Clone, Debug)]
pub struct Scenario<A = CompleteTopology, L = PerfectLink> {
    assignment: TokenAssignment,
    adversary: A,
    link: L,
    ticks_per_round: VirtualTime,
    seed: u64,
    retransmit: AsyncConfig,
    max_time: VirtualTime,
    faults: Option<FaultPlan>,
    byzantine: Option<MisbehaviorPlan>,
    tracer: Option<JsonlTracer>,
    name: Option<String>,
    sessions: Vec<SessionSpec>,
}

impl Scenario {
    /// A single-source scenario: `k` tokens at node 0, `n` nodes, static
    /// complete graph, perfect links. Override any part with the builder
    /// methods.
    pub fn new(n: usize, k: usize) -> Self {
        Scenario::from_assignment(TokenAssignment::single_source(n, k, NodeId::new(0)))
    }

    /// A scenario over an explicit token placement.
    pub fn from_assignment(assignment: TokenAssignment) -> Self {
        Scenario {
            assignment,
            adversary: CompleteTopology,
            link: PerfectLink,
            ticks_per_round: 2,
            seed: 0,
            retransmit: AsyncConfig::default(),
            max_time: 2_000_000,
            faults: None,
            byzantine: None,
            tracer: None,
            name: None,
            sessions: Vec::new(),
        }
    }
}

impl<A, L> Scenario<A, L> {
    /// Replaces the dynamic-topology adversary.
    pub fn topology<A2: Adversary>(self, adversary: A2) -> Scenario<A2, L> {
        Scenario {
            assignment: self.assignment,
            adversary,
            link: self.link,
            ticks_per_round: self.ticks_per_round,
            seed: self.seed,
            retransmit: self.retransmit,
            max_time: self.max_time,
            faults: self.faults,
            byzantine: self.byzantine,
            tracer: self.tracer,
            name: self.name,
            sessions: self.sessions,
        }
    }

    /// Replaces the link model.
    pub fn link<L2: LinkModel>(self, link: L2) -> Scenario<A, L2> {
        Scenario {
            assignment: self.assignment,
            adversary: self.adversary,
            link,
            ticks_per_round: self.ticks_per_round,
            seed: self.seed,
            retransmit: self.retransmit,
            max_time: self.max_time,
            faults: self.faults,
            byzantine: self.byzantine,
            tracer: self.tracer,
            name: self.name,
            sessions: self.sessions,
        }
    }

    /// Replaces the token placement.
    ///
    /// # Panics
    ///
    /// Panics if session specs over a different node count were already
    /// queued.
    pub fn assignment(mut self, assignment: TokenAssignment) -> Self {
        if let Some(spec) = self.sessions.first() {
            assert_eq!(
                spec.assignment.node_count(),
                assignment.node_count(),
                "session assignment node count"
            );
        }
        self.assignment = assignment;
        self
    }

    /// Virtual ticks per topology epoch (default 2).
    pub fn ticks_per_round(mut self, ticks: VirtualTime) -> Self {
        self.ticks_per_round = ticks;
        self
    }

    /// Seed of the run (default 0): the engine's links and scheduling
    /// and, in [`Scenario::run_oblivious`], center election and the walk.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Retransmission tuning for the async ports (default
    /// [`AsyncConfig::default`]).
    pub fn retransmit(mut self, cfg: AsyncConfig) -> Self {
        self.retransmit = cfg;
        self
    }

    /// Hard cap on virtual time (default 2 000 000); in
    /// [`Scenario::run_oblivious`] it caps phase 2.
    pub fn max_time(mut self, max_time: VirtualTime) -> Self {
        self.max_time = max_time;
        self
    }

    /// Names the [`RunReport`] (defaults to a `scenario-*` name per
    /// entry point).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Injects a crash/recovery/partition plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Injects a Byzantine misbehavior plan; transcripts are recorded
    /// and audited, and the report's Byzantine counters stamped.
    pub fn byzantine(mut self, plan: MisbehaviorPlan) -> Self {
        self.byzantine = Some(plan);
        self
    }

    /// Attaches a deterministic JSONL tracer; the caller keeps a clone
    /// and reads the trace after the run.
    pub fn trace(mut self, tracer: JsonlTracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Queues one dissemination session for [`Scenario::run_sessions`].
    ///
    /// # Panics
    ///
    /// Panics if the spec's node count differs from the scenario's.
    pub fn session(mut self, spec: SessionSpec) -> Self {
        assert_eq!(
            spec.assignment.node_count(),
            self.assignment.node_count(),
            "session assignment node count"
        );
        self.sessions.push(spec);
        self
    }

    /// Queues a whole arrival trace of sessions.
    ///
    /// # Panics
    ///
    /// Panics if the workload's node count differs from the scenario's.
    pub fn workload(mut self, workload: &SessionWorkload) -> Self {
        assert_eq!(
            workload.node_count(),
            self.assignment.node_count(),
            "session assignment node count"
        );
        for spec in workload.specs() {
            self.sessions.push(spec.clone());
        }
        self
    }
}

/// Outcome of a single-phase [`Scenario`] run.
///
/// Every field is always computed, with the unused axes' fields at their
/// neutral values (empty evidence, coverage 1.0, zero injections).
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The engine-level report.
    pub event: EventReport,
    /// The workspace-level report, with fault and Byzantine counters
    /// filled.
    pub report: RunReport,
    /// Every proven violation (empty without a Byzantine plan).
    pub evidence: Vec<Evidence>,
    /// Final per-node token knowledge.
    pub final_knowledge: Vec<TokenSet>,
    /// Mean coverage over the nodes up at the end of the run.
    pub live_coverage: f64,
    /// Mean coverage over the honest nodes.
    pub honest_coverage: f64,
    /// Misbehaving actions actually injected by the wrappers.
    pub injected: u64,
    /// Whether the run reached full dissemination.
    pub completed: bool,
}

/// Outcome of a two-phase oblivious [`Scenario`] run.
#[derive(Clone, Debug)]
pub struct ScenarioObliviousOutcome {
    /// Phase-1 report (absent on the few-sources fast path).
    pub phase1: Option<EventReport>,
    /// Phase-2 report.
    pub phase2: EventReport,
    /// The workspace-level report (phase-2 engine), fault counters
    /// summed over both phases, Byzantine counters from both audits.
    pub report: RunReport,
    /// Violations proven across both phases (empty without a plan).
    pub evidence: Vec<Evidence>,
    /// The elected centers (or the original sources on the fast path).
    pub centers: Vec<NodeId>,
    /// The phase-2 sources: deduplicated token owners after phase 1.
    pub sources: Vec<NodeId>,
    /// Tokens re-homed because their resolved claimant was down at the
    /// hand-off.
    pub crash_reclaimed: usize,
    /// Tokens recovered from their original holder because every
    /// claimant was destroyed by forged acks.
    pub stolen_recovered: usize,
    /// Tokens resolved to a non-center owner at the hand-off.
    pub stranded_tokens: usize,
    /// Final per-node token knowledge after phase 2.
    pub final_knowledge: Vec<TokenSet>,
    /// Mean coverage over the nodes up at the end of phase 2.
    pub live_coverage: f64,
    /// Mean coverage over the honest nodes.
    pub honest_coverage: f64,
    /// Number of malicious nodes in the plan (0 without one).
    pub byzantine_nodes: usize,
    /// Misbehaving actions injected across both phases.
    pub injected: u64,
    /// Whether phase 2 reached full dissemination.
    pub completed: bool,
}

impl ScenarioObliviousOutcome {
    /// Total link-layer transmissions across both phases.
    pub fn total_transmissions(&self) -> u64 {
        self.phase2.transmissions + self.phase1.as_ref().map_or(0, |r| r.transmissions)
    }

    /// Total engine events across both phases.
    pub fn total_events(&self) -> u64 {
        self.phase2.events + self.phase1.as_ref().map_or(0, |r| r.events)
    }

    /// Total topology epochs across both phases.
    pub fn total_epochs(&self) -> u64 {
        self.phase2.epochs + self.phase1.as_ref().map_or(0, |r| r.epochs)
    }
}

/// Per-session result of a [`Scenario::run_sessions`] execution.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// The spec's label.
    pub label: String,
    /// When the session joined the shared network.
    pub arrival: VirtualTime,
    /// When its last node reached a full token set (None = never).
    pub completed_at: Option<VirtualTime>,
    /// `completed_at − arrival` on the shared virtual clock.
    pub latency: Option<VirtualTime>,
    /// Envelopes this session staged on the shared links.
    pub messages: u64,
    /// Envelopes delivered to this session's instances.
    pub delivered: u64,
    /// Order-sensitive chain hash over the session's envelope headers —
    /// equal across byte-identical replays.
    pub digest: u64,
    /// A session-scoped [`RunReport`]: message and completion fields are
    /// this session's own, engine-wide context (topology, faults) is
    /// carried from the aggregate run.
    pub report: RunReport,
}

/// Outcome of a multi-session service run.
#[derive(Clone, Debug)]
pub struct ServiceOutcome {
    /// The engine-level report of the shared execution.
    pub event: EventReport,
    /// The aggregate workspace-level report.
    pub report: RunReport,
    /// One report per session, in workload order.
    pub sessions: Vec<SessionReport>,
    /// Envelopes whose payload failed to decode.
    pub decode_errors: u64,
    /// Envelopes addressed to sessions not live at the receiver.
    pub foreign_drops: u64,
}

impl ServiceOutcome {
    /// Number of sessions that reached full dissemination.
    pub fn completed_sessions(&self) -> usize {
        self.sessions
            .iter()
            .filter(|s| s.completed_at.is_some())
            .count()
    }

    /// Sorted latencies of the completed sessions.
    pub fn latencies(&self) -> Vec<VirtualTime> {
        let mut out: Vec<VirtualTime> = self.sessions.iter().filter_map(|s| s.latency).collect();
        out.sort_unstable();
        out
    }

    /// Nearest-rank latency percentile over completed sessions
    /// (`q` in `[0, 1]`); `None` when none completed.
    pub fn latency_percentile(&self, q: f64) -> Option<VirtualTime> {
        let lats = self.latencies();
        if lats.is_empty() {
            return None;
        }
        let rank = ((q * lats.len() as f64).ceil() as usize).clamp(1, lats.len());
        Some(lats[rank - 1])
    }

    /// Total envelopes staged across all sessions.
    pub fn total_session_messages(&self) -> u64 {
        self.sessions.iter().map(|s| s.messages).sum()
    }
}

impl<A: Adversary, L: LinkModel> Scenario<A, L> {
    /// Runs [`AsyncSingleSource`] under every configured axis.
    ///
    /// # Panics
    ///
    /// Panics if a plan's node count differs from the assignment's, or
    /// sessions were queued (use [`Scenario::run_sessions`]).
    pub fn run_single_source(self) -> ScenarioOutcome {
        let nodes = AsyncSingleSource::nodes(&self.assignment, self.retransmit);
        let setup = AuditSetup::single_source(&self.assignment);
        self.execute(nodes, setup, "scenario-async-single-source")
    }

    /// Runs [`AsyncMultiSource`] under every configured axis.
    ///
    /// # Panics
    ///
    /// Panics if a plan's node count differs from the assignment's, or
    /// sessions were queued (use [`Scenario::run_sessions`]).
    pub fn run_multi_source(self) -> ScenarioOutcome {
        let (nodes, map) = AsyncMultiSource::nodes(&self.assignment, self.retransmit);
        let setup = AuditSetup::multi_source(&self.assignment, &map);
        self.execute(nodes, setup, "scenario-async-multi-source")
    }

    /// The one execution core behind the single-phase entry points: arm
    /// every axis (neutral elements when absent), run, audit, measure.
    fn execute<P>(self, nodes: Vec<P>, setup: AuditSetup, fallback: &str) -> ScenarioOutcome
    where
        P: Tamper,
        P::Msg: AuditMsg,
    {
        let Scenario {
            assignment,
            adversary,
            link,
            ticks_per_round,
            seed,
            retransmit: _,
            max_time,
            faults,
            byzantine,
            tracer,
            name,
            sessions,
        } = self;
        assert!(
            sessions.is_empty(),
            "queued sessions run through run_sessions, not the protocol drivers"
        );
        let n = assignment.node_count();
        let k = assignment.token_count();
        if let Some(plan) = &faults {
            assert_eq!(plan.node_count(), n, "plan size");
        }
        if let Some(plan) = &byzantine {
            assert_eq!(plan.node_count(), n, "plan size");
        }
        let fplan = faults.unwrap_or_else(|| FaultPlan::none(n));
        let bplan = byzantine
            .clone()
            .unwrap_or_else(|| MisbehaviorPlan::honest(n));
        let nodes = bplan.wrap(nodes);
        let mut sim = EventSim::with_tracking(
            nodes,
            adversary,
            PartitionLink::new(link, Arc::new(fplan.clone())),
            ticks_per_round,
            seed,
            &assignment,
        );
        sim.set_fault_plan(fplan);
        if byzantine.is_some() {
            sim.record_transcripts();
        }
        if let Some(tr) = &tracer {
            sim.set_tracer(tr.clone());
        }
        let event = sim.run(max_time);
        let evidence = if byzantine.is_some() {
            check_evidence(&setup, sim.transcripts())
        } else {
            Vec::new()
        };
        let name = name.unwrap_or_else(|| fallback.to_string());
        let mut report = sim.run_report(name.as_str());
        if let Some(plan) = &byzantine {
            stamp_report(&mut report, plan, &evidence);
        }
        let tracker = sim.tracker().expect("tracking enabled");
        let final_knowledge: Vec<TokenSet> = NodeId::all(n)
            .map(|v| tracker.knowledge(v).clone())
            .collect();
        let live_coverage = coverage_over(k, final_knowledge.iter(), |v| !sim.is_down(v));
        let honest_coverage = coverage_over(k, final_knowledge.iter(), |v| !bplan.is_malicious(v));
        let injected: u64 = NodeId::all(n).map(|v| sim.node(v).injected()).sum();
        let completed = event.stopped == StopReason::Complete;
        ScenarioOutcome {
            event,
            report,
            evidence,
            final_knowledge,
            live_coverage,
            honest_coverage,
            injected,
            completed,
        }
    }

    /// Runs the full two-phase oblivious pipeline under every configured
    /// axis. The scenario's adversary/link/faults drive phase 1;
    /// `adversary2`/`link2`/`faults2` drive phase 2; `cfg` supplies the
    /// knobs only Algorithm 2 has. The scenario's seed drives center
    /// election, the walk and (xored with fixed per-phase salts) both
    /// engines; its ticks per round and retransmission tuning apply to
    /// both phases, and its `max_time` caps phase 2. A Byzantine plan
    /// applies to both phases, with both transcripts audited; a tracer
    /// receives both phases' records, stitched by `phase` boundary
    /// records (`p:1` for the walk, `p:2` for the spread; the few-sources
    /// fast path emits only `p:2`).
    ///
    /// The hand-off resolves each token's claimants by preferring live
    /// over down, then center over walker, then the lowest ID; a token
    /// whose every claimant was destroyed by forged acks is recovered
    /// from its original holder (`stolen_recovered`), and one whose
    /// resolved claimant is down at the hand-off is re-homed to a live
    /// knower, preferring a center (`crash_reclaimed`).
    ///
    /// # Examples
    ///
    /// ```
    /// use dynspread_graph::{generators::Topology, oblivious::PeriodicRewiring};
    /// use dynspread_runtime::link::{DropLink, LinkModelExt};
    /// use dynspread_runtime::protocol::AsyncObliviousConfig;
    /// use dynspread_runtime::scenario::Scenario;
    /// use dynspread_sim::token::TokenAssignment;
    ///
    /// // Every node a source, over links the round-based pipeline cannot
    /// // run on at all: 30% drop plus jitter.
    /// let cfg = AsyncObliviousConfig {
    ///     source_threshold: Some(1.0), // force the two-phase path at this scale
    ///     center_probability: Some(0.25),
    ///     ..AsyncObliviousConfig::default()
    /// };
    /// let out = Scenario::from_assignment(TokenAssignment::n_gossip(12))
    ///     .topology(PeriodicRewiring::new(Topology::Gnp(0.3), 3, 1))
    ///     .link(DropLink::new(0.3).with_jitter(2))
    ///     .seed(7)
    ///     .run_oblivious(
    ///         PeriodicRewiring::new(Topology::RandomTree, 3, 2),
    ///         DropLink::new(0.3).with_jitter(2),
    ///         &cfg,
    ///         None,
    ///     );
    /// assert!(out.completed);
    /// assert!(!out.centers.is_empty());
    /// assert!(out.final_knowledge.iter().all(|k| k.is_full()));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if a plan's node count differs from the assignment's, or
    /// sessions were queued.
    pub fn run_oblivious<A2, L2>(
        self,
        adversary2: A2,
        link2: L2,
        cfg: &AsyncObliviousConfig,
        faults2: Option<&FaultPlan>,
    ) -> ScenarioObliviousOutcome
    where
        A2: Adversary,
        L2: LinkModel,
    {
        let Scenario {
            assignment,
            adversary,
            link,
            ticks_per_round,
            seed,
            retransmit,
            max_time,
            faults,
            byzantine,
            tracer,
            name,
            sessions,
        } = self;
        assert!(
            sessions.is_empty(),
            "queued sessions run through run_sessions, not the protocol drivers"
        );
        let n = assignment.node_count();
        let k = assignment.token_count();
        if let Some(plan) = &faults {
            assert_eq!(plan.node_count(), n, "phase-1 plan size");
        }
        if let Some(plan) = faults2 {
            assert_eq!(plan.node_count(), n, "phase-2 plan size");
        }
        if let Some(plan) = &byzantine {
            assert_eq!(plan.node_count(), n, "plan size");
        }
        let name = name.unwrap_or_else(|| "scenario-async-oblivious".to_string());
        let s = assignment.sources().len();
        let threshold = cfg.source_threshold.unwrap_or_else(|| source_threshold(n));

        if (s as f64) <= threshold {
            // Few sources: the pipeline is a single multi-source run and
            // only the phase-2 axes apply. The report keeps the legacy
            // fast-path convention of a multi-source name.
            let fast_name = name
                .strip_suffix("oblivious")
                .map(|p| format!("{p}multi-source"))
                .unwrap_or_else(|| name.clone());
            if let Some(tr) = &tracer {
                tr.append(&TraceRecord::Phase { p: 2 });
            }
            let centers = assignment.sources();
            let sources = SourceMap::from_assignment(&assignment).sources().to_vec();
            let byzantine_nodes = byzantine.as_ref().map_or(0, |p| p.byzantine_nodes());
            let sub = Scenario {
                assignment,
                adversary: adversary2,
                link: link2,
                ticks_per_round,
                seed: seed ^ PHASE2_SALT,
                retransmit,
                max_time,
                faults: faults2.cloned(),
                byzantine,
                tracer,
                name: Some(fast_name),
                sessions: Vec::new(),
            };
            let out = sub.run_multi_source();
            return ScenarioObliviousOutcome {
                phase1: None,
                phase2: out.event,
                report: out.report,
                evidence: out.evidence,
                centers,
                sources,
                crash_reclaimed: 0,
                stolen_recovered: 0,
                stranded_tokens: 0,
                final_knowledge: out.final_knowledge,
                live_coverage: out.live_coverage,
                honest_coverage: out.honest_coverage,
                byzantine_nodes,
                injected: out.injected,
                completed: out.completed,
            };
        }

        // ---- Phase 1: the walk phase, under every configured axis. ----
        let f = center_count(n, k);
        let p_center = cfg
            .center_probability
            .unwrap_or_else(|| (f / n as f64).min(1.0));
        let gamma = cfg
            .degree_threshold
            .unwrap_or_else(|| degree_threshold(n, f));
        let fplan1 = faults.unwrap_or_else(|| FaultPlan::none(n));
        let bplan = byzantine
            .clone()
            .unwrap_or_else(|| MisbehaviorPlan::honest(n));
        // The same election the walk nodes run internally, so
        // `is_center[v]` matches `node(v).is_center()` exactly.
        let is_center = elect_centers(n, p_center, seed);
        let centers: Vec<NodeId> = NodeId::all(n).filter(|v| is_center[v.index()]).collect();
        let nodes = bplan.wrap(AsyncOblivious::nodes(
            &assignment,
            p_center,
            gamma,
            seed,
            retransmit,
            cfg.phase1_deadline,
        ));
        let mut sim1 = EventSim::new(
            nodes,
            adversary,
            PartitionLink::new(link, Arc::new(fplan1.clone())),
            ticks_per_round,
            seed ^ PHASE1_SALT,
        );
        sim1.set_fault_plan(fplan1);
        if byzantine.is_some() {
            sim1.record_transcripts();
        }
        if let Some(tr) = &tracer {
            tr.append(&TraceRecord::Phase { p: 1 });
            sim1.set_tracer(tr.clone());
        }
        let phase1 = sim1.run(cfg.phase1_max_time);
        let (c1, r1, p1) = sim1.fault_counters();

        // ---- Audit phase 1 against the *inner* (honest-state) claims. ----
        let mut evidence = Vec::new();
        if byzantine.is_some() {
            let final_claims: Vec<Vec<TokenId>> = NodeId::all(n)
                .map(|v| sim1.node(v).inner().responsible_tokens().collect())
                .collect();
            let setup1 = AuditSetup::oblivious(&assignment, is_center.clone(), final_claims);
            evidence = check_evidence(&setup1, sim1.transcripts());
        }

        // ---- Crash- and Byzantine-tolerant hand-off. ----
        // Claimant preference: up beats down, then center beats walker,
        // then (scanning ascending, replacing only on strict improvement)
        // the lowest ID.
        let rank =
            |v: NodeId| -> u8 { u8::from(!sim1.is_down(v)) * 2 + u8::from(is_center[v.index()]) };
        let mut owner_of: Vec<Option<NodeId>> = vec![None; k];
        for v in NodeId::all(n) {
            for t in sim1.node(v).inner().responsible_tokens() {
                let slot = &mut owner_of[t.index()];
                match *slot {
                    None => *slot = Some(v),
                    Some(prev) => {
                        if rank(v) > rank(prev) {
                            *slot = Some(v);
                        }
                    }
                }
            }
        }
        let mut ownership = TokenAssignment::empty(n, k);
        let mut knowledge = TokenAssignment::empty(n, k);
        let mut stranded = 0usize;
        let mut crash_reclaimed = 0usize;
        let mut stolen_recovered = 0usize;
        for (ti, owner) in owner_of.iter().enumerate() {
            let t = TokenId::new(ti as u32);
            let mut v = match *owner {
                Some(v) => v,
                None => {
                    // Every claimant was destroyed (forged-ack theft):
                    // recover from the token's original holder, which
                    // still knows it (knowledge is monotone).
                    stolen_recovered += 1;
                    assignment
                        .holders(t)
                        .next()
                        .expect("every token has an initial holder")
                }
            };
            if sim1.is_down(v) {
                // Every claimant crash-stopped mid-walk. Re-home the
                // token to a live node that knows it (knowledge is
                // durable, so the crashed owner's upstream senders still
                // do), preferring a center; the original assignment
                // holder is the last resort.
                crash_reclaimed += 1;
                let knows = |u: NodeId| {
                    !sim1.is_down(u) && sim1.node(u).known_tokens().is_some_and(|kn| kn.contains(t))
                };
                v = NodeId::all(n)
                    .find(|&u| knows(u) && is_center[u.index()])
                    .or_else(|| NodeId::all(n).find(|&u| knows(u)))
                    .unwrap_or_else(|| {
                        assignment
                            .holders(t)
                            .next()
                            .expect("every token has an initial holder")
                    });
            }
            ownership.add_holder(t, v);
            if !is_center[v.index()] {
                stranded += 1;
            }
        }
        for v in NodeId::all(n) {
            let know = sim1
                .node(v)
                .known_tokens()
                .expect("walk nodes expose knowledge");
            for t in know.iter() {
                knowledge.add_holder(t, v);
            }
        }
        let map = Arc::new(SourceMap::from_assignment(&ownership));
        let sources = map.sources().to_vec();

        // ---- Phase 2: multi-source from the resolved owners. ----
        let fplan2 = faults2.cloned().unwrap_or_else(|| FaultPlan::none(n));
        let nodes2 = bplan.wrap(
            NodeId::all(n)
                .map(|v| AsyncMultiSource::new(v, &knowledge, Arc::clone(&map), retransmit))
                .collect(),
        );
        let mut sim2 = EventSim::with_tracking(
            nodes2,
            adversary2,
            PartitionLink::new(link2, Arc::new(fplan2.clone())),
            ticks_per_round,
            seed ^ PHASE2_SALT,
            &knowledge,
        );
        sim2.set_fault_plan(fplan2);
        if byzantine.is_some() {
            sim2.record_transcripts();
        }
        if let Some(tr) = &tracer {
            tr.append(&TraceRecord::Phase { p: 2 });
            sim2.set_tracer(tr.clone());
        }
        let phase2 = sim2.run(max_time);

        if byzantine.is_some() {
            let setup2 = AuditSetup::multi_source(&knowledge, &map);
            evidence.extend(check_evidence(&setup2, sim2.transcripts()));
        }

        let mut report = sim2.run_report(name.as_str());
        report.crashes += c1;
        report.recoveries += r1;
        report.partition_episodes += p1;
        if let Some(plan) = &byzantine {
            stamp_report(&mut report, plan, &evidence);
        }
        let tracker = sim2.tracker().expect("tracking enabled");
        let final_knowledge: Vec<TokenSet> = NodeId::all(n)
            .map(|v| tracker.knowledge(v).clone())
            .collect();
        let live_coverage = coverage_over(k, final_knowledge.iter(), |v| !sim2.is_down(v));
        let honest_coverage = coverage_over(k, final_knowledge.iter(), |v| !bplan.is_malicious(v));
        let injected: u64 = NodeId::all(n)
            .map(|v| sim1.node(v).injected() + sim2.node(v).injected())
            .sum();
        let completed = phase2.stopped == StopReason::Complete;

        ScenarioObliviousOutcome {
            phase1: Some(phase1),
            phase2,
            report,
            evidence,
            centers,
            sources,
            crash_reclaimed,
            stolen_recovered,
            stranded_tokens: stranded,
            final_knowledge,
            live_coverage,
            honest_coverage,
            byzantine_nodes: byzantine.as_ref().map_or(0, |p| p.byzantine_nodes()),
            injected,
            completed,
        }
    }

    /// Runs the queued sessions as [`AsyncSingleSource`] instances
    /// multiplexed over one shared engine and evolving topology.
    ///
    /// # Panics
    ///
    /// Panics if no sessions were queued, a fault plan's node count
    /// differs from the scenario's, or a Byzantine plan is present
    /// (misbehavior does not yet compose with the session mux).
    pub fn run_sessions(self) -> ServiceOutcome {
        let retransmit = self.retransmit;
        self.run_sessions_with(move |v, _idx, spec| {
            AsyncSingleSource::new(v, &spec.assignment, retransmit)
        })
    }

    /// Like [`Scenario::run_sessions`] but with a caller-supplied
    /// per-session protocol factory (`(node, session index, spec) →
    /// instance`); any [`EventProtocol`] whose messages implement the
    /// wire codec traits can be multiplexed.
    ///
    /// # Panics
    ///
    /// See [`Scenario::run_sessions`].
    pub fn run_sessions_with<P, F>(self, factory: F) -> ServiceOutcome
    where
        P: EventProtocol,
        P::Msg: Encode + Decode,
        F: Fn(NodeId, usize, &SessionSpec) -> P,
    {
        let Scenario {
            assignment,
            adversary,
            link,
            ticks_per_round,
            seed,
            retransmit: _,
            max_time,
            faults,
            byzantine,
            tracer,
            name,
            sessions,
        } = self;
        let n = assignment.node_count();
        assert!(
            !sessions.is_empty(),
            "no sessions queued: add .session(spec) before run_sessions"
        );
        assert!(
            byzantine.is_none(),
            "Byzantine plans do not yet compose with sessions; run them through the protocol drivers"
        );
        if let Some(plan) = &faults {
            assert_eq!(plan.node_count(), n, "plan size");
        }
        let mut workload = SessionWorkload::new(n);
        for spec in sessions {
            workload.push(spec);
        }
        let (nodes, board) = SessionMux::nodes(&workload, factory);
        let fplan = faults.unwrap_or_else(|| FaultPlan::none(n));
        let mut sim = EventSim::new(
            nodes,
            adversary,
            PartitionLink::new(link, Arc::new(fplan.clone())),
            ticks_per_round,
            seed,
        );
        sim.set_fault_plan(fplan);
        if let Some(tr) = &tracer {
            sim.set_tracer(tr.clone());
        }
        let event = sim.run(max_time);
        let name = name.unwrap_or_else(|| "session-service".to_string());
        let report = sim.run_report(name.as_str());
        let (decode_errors, foreign_drops) = NodeId::all(n)
            .map(|v| (sim.node(v).decode_errors(), sim.node(v).foreign_drops()))
            .fold((0, 0), |(d, f), (dd, ff)| (d + dd, f + ff));
        let sessions = build_session_reports(&workload, &board, &report, &sim, ticks_per_round);
        ServiceOutcome {
            event,
            report,
            sessions,
            decode_errors,
            foreign_drops,
        }
    }
}

/// Salt xored into the scenario seed for the oblivious walk-phase engine.
const PHASE1_SALT: u64 = 0x5EED_0B71_0001;
/// Salt xored into the scenario seed for the oblivious spread-phase
/// engine.
const PHASE2_SALT: u64 = 0x5EED_0B71_0002;

/// Mean coverage of the `k`-token universe over the nodes selected by
/// `include` (their index order matching the knowledge iterator); `1.0`
/// when no node is selected.
fn coverage_over<'a>(
    k: usize,
    knowledge: impl Iterator<Item = &'a TokenSet>,
    mut include: impl FnMut(NodeId) -> bool,
) -> f64 {
    let mut sum = 0.0;
    let mut picked = 0usize;
    for (i, know) in knowledge.enumerate() {
        if include(NodeId::new(i as u32)) {
            sum += know.count() as f64 / k.max(1) as f64;
            picked += 1;
        }
    }
    if picked == 0 {
        1.0
    } else {
        sum / picked as f64
    }
}

/// Counts distinct indicted nodes.
fn verdict_count(evidence: &[Evidence]) -> u64 {
    evidence
        .iter()
        .map(|e| e.culprit)
        .collect::<BTreeSet<_>>()
        .len() as u64
}

/// Fills the Byzantine counters of a [`RunReport`].
fn stamp_report(report: &mut RunReport, plan: &MisbehaviorPlan, evidence: &[Evidence]) {
    report.byzantine_nodes = plan.byzantine_nodes();
    report.violations_detected = evidence.len() as u64;
    report.evidence_verdicts = verdict_count(evidence);
}

/// Synthesizes the per-session [`RunReport`] views from the shared
/// scoreboard: session-scoped message/completion/learning fields, with
/// the engine-wide context (topology meter, fault counters) carried from
/// the aggregate report.
fn build_session_reports<P, A, L>(
    workload: &SessionWorkload,
    board: &SessionBoard,
    aggregate: &RunReport,
    sim: &EventSim<SessionMux<P>, A, L>,
    ticks_per_round: VirtualTime,
) -> Vec<SessionReport>
where
    P: EventProtocol,
    P::Msg: Encode + Decode,
    A: Adversary,
    L: LinkModel,
{
    let n = workload.node_count();
    workload
        .specs()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let stats = board.stats(i);
            let learnings: u64 = NodeId::all(n).map(|v| sim.node(v).learned(i)).sum();
            let mut report = aggregate.clone();
            report.algorithm = format!("session:{}", spec.label).into();
            report.k = spec.assignment.token_count();
            report.completed = stats.completed_at.is_some();
            report.total_messages = stats.sent;
            report.unicast_messages = stats.sent;
            report.broadcast_messages = 0;
            report.learnings = learnings;
            for class in report.by_class.iter_mut() {
                *class = 0;
            }
            if let Some(done) = stats.completed_at {
                report.rounds = done / ticks_per_round.max(1) + 1;
            }
            SessionReport {
                label: spec.label.clone(),
                arrival: spec.arrival,
                completed_at: stats.completed_at,
                latency: stats.completed_at.map(|t| t.saturating_sub(spec.arrival)),
                messages: stats.sent,
                delivered: stats.delivered,
                digest: stats.digest,
                report,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::MisbehaviorKind;
    use crate::faults::{NodeFault, RecoveryMode};
    use crate::link::{DropLink, LinkModelExt};
    use dynspread_graph::generators::Topology;
    use dynspread_graph::oblivious::{PeriodicRewiring, StaticAdversary};

    #[test]
    fn coverage_over_excludes_and_degenerates() {
        let mut full = TokenSet::new(4);
        for i in 0..4 {
            full.insert(TokenId::new(i));
        }
        let empty = TokenSet::new(4);
        let sets = [full, empty];
        let all = coverage_over(4, sets.iter(), |_| true);
        assert!((all - 0.5).abs() < 1e-12);
        let first = coverage_over(4, sets.iter(), |v| v.index() == 0);
        assert!((first - 1.0).abs() < 1e-12);
        assert_eq!(coverage_over(4, sets.iter(), |_| false), 1.0);
    }

    #[test]
    fn default_topology_is_the_static_complete_graph() {
        let assignment = TokenAssignment::round_robin_sources(9, 6, 3);
        let lazy = Scenario::from_assignment(assignment.clone())
            .seed(3)
            .run_multi_source();
        let eager = Scenario::from_assignment(assignment)
            .topology(StaticAdversary::new(Graph::complete(9)))
            .seed(3)
            .run_multi_source();
        assert_eq!(format!("{lazy:?}"), format!("{eager:?}"));
    }

    #[test]
    fn builder_defaults_run_to_completion() {
        let out = Scenario::new(6, 3).run_single_source();
        assert!(out.completed, "{}", out.report);
        assert!(out.evidence.is_empty());
        assert_eq!(out.injected, 0);
        assert!((out.live_coverage - 1.0).abs() < 1e-12);
        assert!((out.honest_coverage - 1.0).abs() < 1e-12);
        assert_eq!(
            out.report.algorithm.as_ref(),
            "scenario-async-single-source"
        );
    }

    #[test]
    fn composed_fault_and_byzantine_axes_both_fire() {
        let n = 12;
        let fplan = FaultPlan::crash_recovery(n, 0.2, 150, 250, RecoveryMode::Amnesia, 9)
            .with_random_partition(100, 300);
        let bplan = MisbehaviorPlan::uniform(n, 0.15, MisbehaviorKind::FalseClaims, 21);
        let out = Scenario::new(n, 5)
            .topology(PeriodicRewiring::new(Topology::RandomTree, 3, 11))
            .link(DropLink::new(0.2).with_jitter(2))
            .seed(17)
            .faults(fplan)
            .byzantine(bplan.clone())
            .max_time(500_000)
            .run_single_source();
        assert!(out.report.crashes > 0, "{}", out.report);
        assert_eq!(out.report.byzantine_nodes, bplan.byzantine_nodes());
        // Evidence soundness survives composition: only malicious nodes
        // are ever indicted.
        for e in &out.evidence {
            assert!(bplan.is_malicious(e.culprit), "honest node indicted");
        }
    }

    #[test]
    fn scenario_runs_are_replay_identical() {
        let run = || {
            Scenario::new(10, 4)
                .topology(PeriodicRewiring::new(Topology::Gnp(0.4), 3, 5))
                .link(DropLink::new(0.25).with_jitter(2))
                .seed(23)
                .faults(FaultPlan::crash_recovery(
                    10,
                    0.2,
                    100,
                    200,
                    RecoveryMode::DurableSnapshot,
                    3,
                ))
                .byzantine(MisbehaviorPlan::uniform(
                    10,
                    0.2,
                    MisbehaviorKind::DropAcks,
                    4,
                ))
                .max_time(500_000)
                .run_multi_source()
        };
        let (a, b) = (run(), run());
        assert_eq!(format!("{:?}", a.event), format!("{:?}", b.event));
        assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
        assert_eq!(format!("{:?}", a.evidence), format!("{:?}", b.evidence));
    }

    #[test]
    #[should_panic(expected = "plan size")]
    fn mismatched_fault_plan_is_rejected() {
        let _ = Scenario::new(6, 3)
            .faults(FaultPlan::none(5))
            .run_single_source();
    }

    #[test]
    #[should_panic(expected = "run_sessions")]
    fn queued_sessions_cannot_run_through_protocol_drivers() {
        let _ = Scenario::new(6, 3)
            .session(SessionSpec::single_source("s0", 0, 6, 2, NodeId::new(1)))
            .run_single_source();
    }

    #[test]
    fn session_service_reports_per_session_latency() {
        let out = Scenario::new(8, 2)
            .topology(PeriodicRewiring::new(Topology::RandomTree, 3, 13))
            .link(DropLink::new(0.1).with_jitter(1))
            .seed(31)
            .session(SessionSpec::single_source("a", 0, 8, 2, NodeId::new(0)))
            .session(SessionSpec::single_source("b", 60, 8, 3, NodeId::new(5)))
            .max_time(200_000)
            .run_sessions();
        assert_eq!(out.sessions.len(), 2);
        assert_eq!(out.completed_sessions(), 2, "{}", out.report);
        let b = &out.sessions[1];
        assert_eq!(b.arrival, 60);
        assert!(b.completed_at.unwrap() > 60);
        assert_eq!(b.latency.unwrap(), b.completed_at.unwrap() - 60);
        assert_eq!(b.report.k, 3);
        assert!(b.report.completed);
        assert_eq!(b.report.total_messages, b.messages);
        assert!(out.latency_percentile(0.5).is_some());
        assert!(out.total_session_messages() > 0);
        assert_eq!(out.decode_errors, 0);
    }

    #[test]
    fn crash_recovery_plan_still_completes_and_counts() {
        let n = 10;
        let plan = FaultPlan::crash_recovery(n, 0.2, 200, 300, RecoveryMode::Amnesia, 5)
            .with_random_partition(100, 400);
        let out = Scenario::new(n, 6)
            .topology(PeriodicRewiring::new(Topology::RandomTree, 3, 9))
            .link(DropLink::new(0.2).with_jitter(2))
            .seed(43)
            .faults(plan)
            .max_time(500_000)
            .run_multi_source();
        assert!(out.completed, "{}", out.report);
        assert_eq!(out.report.crashes, 2);
        assert_eq!(out.report.recoveries, 2);
        assert_eq!(out.report.partition_episodes, 1);
        assert!((out.live_coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn crashed_owner_tokens_are_rehomed_at_the_handoff() {
        let n = 8;
        // Exactly one center (probability 0 still forces one), everyone
        // high-degree on the complete graph: every walker hands its token
        // to the center on the first heartbeat (t=2, confirmed same tick
        // under PerfectLink). Crashing the center at t=10 therefore
        // leaves every token with a down sole claimant.
        let seed = 29;
        let is_center = elect_centers(n, 0.0, seed);
        let center = NodeId::new(
            is_center
                .iter()
                .position(|&c| c)
                .expect("one center forced") as u32,
        );
        let plan1 = FaultPlan::none(n).plant(
            center,
            NodeFault {
                crash_at: 10,
                recover_at: None,
                mode: RecoveryMode::Amnesia,
            },
        );
        let cfg = AsyncObliviousConfig {
            source_threshold: Some(1.0),
            center_probability: Some(0.0),
            degree_threshold: Some(1.0),
            phase1_deadline: 2_000,
            phase1_max_time: 4_000,
        };
        let out = Scenario::from_assignment(TokenAssignment::n_gossip(n))
            .seed(seed)
            .faults(plan1)
            .run_oblivious(CompleteTopology, PerfectLink, &cfg, None);
        assert_eq!(
            out.crash_reclaimed, n,
            "every token was claimed by the crashed center"
        );
        // The walkers' own tokens re-home to their live original holders
        // (knowledge is durable); the center's own token falls back to
        // the center itself, which is back up in the fault-free phase 2.
        assert!(out.completed, "{}", out.report);
        assert_eq!(out.report.crashes, 1);
        assert_eq!(out.report.recoveries, 0);
    }

    #[test]
    fn faulty_oblivious_is_replay_identical() {
        let n = 12;
        let plan1 = FaultPlan::crash_recovery(n, 0.25, 100, 150, RecoveryMode::Amnesia, 3);
        let plan2 = FaultPlan::crash_recovery(n, 0.25, 200, 300, RecoveryMode::DurableSnapshot, 4)
            .with_random_partition(50, 250);
        let cfg = AsyncObliviousConfig {
            source_threshold: Some(1.0),
            center_probability: Some(0.3),
            phase1_deadline: 5_000,
            phase1_max_time: 12_000,
            ..AsyncObliviousConfig::default()
        };
        let run = || {
            Scenario::from_assignment(TokenAssignment::n_gossip(n))
                .topology(PeriodicRewiring::new(Topology::Gnp(0.3), 3, 61))
                .link(DropLink::new(0.3).with_jitter(2))
                .seed(31)
                .faults(plan1.clone())
                .run_oblivious(
                    PeriodicRewiring::new(Topology::RandomTree, 3, 62),
                    DropLink::new(0.3).with_jitter(2),
                    &cfg,
                    Some(&plan2),
                )
        };
        let (a, b) = (run(), run());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.completed, "{}", a.report);
    }

    /// The scenario's own cap reaches phase 2 of the oblivious pipeline.
    #[test]
    fn max_time_caps_the_oblivious_spread_phase() {
        let cfg = AsyncObliviousConfig {
            source_threshold: Some(1.0),
            center_probability: Some(0.3),
            ..AsyncObliviousConfig::default()
        };
        let out = Scenario::from_assignment(TokenAssignment::n_gossip(12))
            .link(DropLink::new(0.2).with_jitter(2))
            .seed(5)
            .max_time(3)
            .run_oblivious(
                CompleteTopology,
                DropLink::new(0.2).with_jitter(2),
                &cfg,
                None,
            );
        assert!(out.phase1.is_some(), "two-phase path must run phase 1");
        assert!(!out.completed);
        assert_eq!(out.phase2.stopped, StopReason::TimeLimit);
        assert!(out.phase2.final_time <= 3, "{}", out.phase2);
    }
}
