//! The five workloads: what each builds, how it runs to full
//! dissemination, which seed-pure counts it reports and which output
//! checks it applies.
//!
//! Every workload is built from `--seed` and its own parameter values
//! only (see [`derive_seed`]); the program receives the generated inputs.

use crate::checks::{self, Check};
use crate::measure::derive_seed;
use crate::spans::Spans;
use dynspread_core::flooding::PhasedFlooding;
use dynspread_core::multi_source::MultiSourceNode;
use dynspread_core::single_source::SingleSourceNode;
use dynspread_graph::adversary::Adversary;
use dynspread_graph::connectivity::bridges;
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::{ChurnAdversary, PeriodicRewiring};
use dynspread_graph::{DynamicGraph, NodeId};
use dynspread_runtime::engine::{EventCtx, EventProtocol, EventReport};
use dynspread_runtime::faults::RecoveryMode;
use dynspread_runtime::link::{DropLink, JitterLatency, LinkModelExt};
use dynspread_runtime::protocol::{AsyncConfig, AsyncSingleSource, AsyncSsMsg};
use dynspread_runtime::{Scenario, SessionWorkload};
use dynspread_sim::adversary::{BroadcastAdversary, UnicastAdversary};
use dynspread_sim::protocol::{BroadcastProtocol, UnicastProtocol};
use dynspread_sim::sim::{BroadcastSim, SimConfig, UnicastSim};
use dynspread_sim::token::{TokenAssignment, TokenSet};
use dynspread_sim::{MessageClass, RunReport};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Drop probability of the lossy workloads' links.
pub const DROP_P: f64 = 0.1;

/// Standard errors the observed drop share may stray from [`DROP_P`].
const DROP_Z: f64 = 5.0;

/// Snapshots of the graph replay that `connectivity::bridges` is timed on.
const BRIDGE_CALLS: u64 = 512;

/// Seed-pure outcome of one execution: every field is a function of the
/// seed alone, so two executions of one seed must agree on all of them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Messages by Definition 1.1 (envelopes on the sessions workload).
    pub messages: u64,
    /// Tokens disseminated (summed over sessions).
    pub tokens: u64,
    /// Rounds (sync) or topology epochs (async) until full dissemination.
    pub epochs: u64,
    /// Token learnings the engines observed.
    pub learnings: u64,
    /// The engine's topology meter, `TC(E)`.
    pub tc: u64,
    /// Token-, request- and completeness-class messages (delivered ones on
    /// the sessions workload).
    pub token_msgs: u64,
    pub request_msgs: u64,
    pub completeness_msgs: u64,
    /// Event-runtime counters.
    pub events: u64,
    pub transmissions: u64,
    pub scheduled: u64,
    pub delivered: u64,
    pub retransmissions: u64,
    pub unroutable: u64,
    /// Session completion latency percentiles, in virtual ticks, and the
    /// number of completed sessions they are taken over.
    pub latency_p50: u64,
    pub latency_samples: u64,
    pub latency_p95: u64,
    /// Delivered session messages by `AsyncSsMsg` variant (probe,
    /// completeness, ack, request, token).
    pub wire_mix: [u64; 5],
}

/// One timed execution with its checked outcome.
pub struct Execution {
    /// Seconds from the first engine call to the full-dissemination report.
    pub wall_s: f64,
    /// The seed-pure outcome.
    pub counts: Counts,
    /// Reasons of the output checks that failed (empty when all passed).
    pub failures: Vec<String>,
}

/// Runs `f`, inside a span named `name` when a recorder is given.
fn timed<R>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match spans.as_deref_mut() {
        Some(s) => s.time(name, f),
        None => f(),
    }
}

fn failures(results: impl IntoIterator<Item = Check>) -> Vec<String> {
    results.into_iter().filter_map(Result::err).collect()
}

/// One workload of the benchmark.
pub trait Workload {
    /// Instances (each from its own sub-seed) that one round of a run
    /// executes: enough that the panel's totals vary little from one
    /// `--seed` to the next, although one instance's rounds and messages
    /// do.
    const PANEL: usize;
    /// Everything a user builds before the first round or event.
    type Built;
    /// Builds it (timed as `setup_s`).
    fn build(&self) -> Self::Built;
    /// Runs a built instance to full dissemination and checks the output.
    /// With a recorder, each engine call is wrapped in a span.
    fn execute(&self, built: Self::Built, spans: Option<&mut Spans>) -> Execution;
    /// A fresh copy of the oblivious adversary an execution faces, rebuilt
    /// from its seed for the benchmark's own graph replay.
    fn adversary_replica(&self) -> Box<dyn Adversary>;
    /// Node count.
    fn n(&self) -> usize;
    /// The seed-pure work an execution's time is divided by to pool the
    /// run's executions into one sample set for `wall_s`: rounds on the
    /// sync engines, events on the event runtime.
    fn work(counts: &Counts) -> u64 {
        counts.epochs
    }
    /// Checks beyond `TC` equality that need the benchmark's own adversary
    /// replay (`replay_tc` is the replay's `TC`).
    fn replay_checks(&self, counts: &Counts, replay_tc: u64) -> Vec<String> {
        let _ = (counts, replay_tc);
        Vec::new()
    }
    /// The standalone replays of the layers the engine calls internally
    /// (link planning, event queue, wire codec), recorded as spans.
    fn replay_layers(&self, counts: &Counts, spans: &mut Spans) {
        let _ = (counts, spans);
    }
}

/// Replays `adversary` through `Adversary::evolve` and
/// `DynamicGraph::apply` for `rounds` rounds, returning `TC(E)`. With a
/// recorder, evolve, apply and `connectivity::bridges` (on the first
/// [`BRIDGE_CALLS`] snapshots) are timed.
pub fn replay_graph(
    mut adversary: Box<dyn Adversary>,
    n: usize,
    rounds: u64,
    mut spans: Option<&mut Spans>,
) -> u64 {
    let mut dg = DynamicGraph::new(n);
    for r in 1..=rounds {
        let update = timed(&mut spans, "graph.evolve", || {
            Adversary::evolve(&mut adversary, r, dg.current())
        });
        timed(&mut spans, "graph.apply", || {
            dg.apply(update);
        });
        if r <= BRIDGE_CALLS {
            if let Some(s) = spans.as_deref_mut() {
                s.time("graph.bridges", || black_box(bridges(dg.current())));
            }
        }
    }
    dg.meter().insertions
}

// ---------------------------------------------------------------------
// Synchronous engines.
// ---------------------------------------------------------------------

/// The seed-pure counts of a sync engine's report.
fn sync_counts(report: &RunReport, tokens: u64) -> Counts {
    Counts {
        messages: report.total_messages,
        tokens,
        epochs: report.rounds,
        learnings: report.learnings,
        tc: report.tc(),
        token_msgs: report.class(MessageClass::Token),
        request_msgs: report.class(MessageClass::Request),
        completeness_msgs: report.class(MessageClass::Completeness),
        ..Counts::default()
    }
}

/// The calls a sync workload makes on `UnicastSim` or `BroadcastSim`.
trait SyncEngine {
    fn step(&mut self);
    fn round(&self) -> u64;
    fn all_complete(&self) -> bool;
    fn report(&self) -> RunReport;
    fn known_tokens(&self) -> Vec<&TokenSet>;
}

impl<P: UnicastProtocol, A: UnicastAdversary<P::Msg>> SyncEngine for UnicastSim<P, A> {
    fn step(&mut self) {
        UnicastSim::step(self);
    }
    fn round(&self) -> u64 {
        self.dynamic_graph().round()
    }
    fn all_complete(&self) -> bool {
        self.tracker().all_complete()
    }
    fn report(&self) -> RunReport {
        UnicastSim::report(self)
    }
    fn known_tokens(&self) -> Vec<&TokenSet> {
        self.nodes().iter().map(|p| p.known_tokens()).collect()
    }
}

impl<P: BroadcastProtocol, A: BroadcastAdversary<P::Msg>> SyncEngine for BroadcastSim<P, A> {
    fn step(&mut self) {
        BroadcastSim::step(self);
    }
    fn round(&self) -> u64 {
        self.dynamic_graph().round()
    }
    fn all_complete(&self) -> bool {
        self.tracker().all_complete()
    }
    fn report(&self) -> RunReport {
        BroadcastSim::report(self)
    }
    fn known_tokens(&self) -> Vec<&TokenSet> {
        self.nodes().iter().map(|p| p.known_tokens()).collect()
    }
}

/// A sync workload's assignment and what the checks derive from it.
struct Params {
    assignment: TokenAssignment,
    universe: TokenSet,
    missing: u64,
    sources: u64,
}

impl Params {
    fn new(assignment: TokenAssignment) -> Self {
        Params {
            universe: checks::universe(&assignment),
            missing: checks::missing_pairs(&assignment),
            sources: assignment.sources().len() as u64,
            assignment,
        }
    }

    fn n(&self) -> usize {
        self.assignment.node_count()
    }

    fn k(&self) -> usize {
        self.assignment.token_count()
    }

    /// Steps a sync engine to full dissemination (or `max_rounds`), one
    /// span per `step()`, and applies the checks every sync workload
    /// shares. The engine stays with the caller for its own checks.
    fn run_sync(
        &self,
        sim: &mut impl SyncEngine,
        mut spans: Option<&mut Spans>,
        max_rounds: u64,
    ) -> Execution {
        let start = Instant::now();
        while !sim.all_complete() && sim.round() < max_rounds {
            timed(&mut spans, "sim.step", || sim.step());
        }
        let report = sim.report();
        let wall_s = start.elapsed().as_secs_f64();
        let failures = failures([
            checks::full_knowledge(&self.universe, sim.known_tokens()),
            checks::learnings(report.learnings, self.missing),
        ]);
        Execution {
            wall_s,
            counts: sync_counts(&report, self.k() as u64),
            failures,
        }
    }

    /// [`Params::run_sync`] plus the check only unicast engines meter.
    fn run_unicast(
        &self,
        sim: &mut impl SyncEngine,
        spans: Option<&mut Spans>,
        max_rounds: u64,
    ) -> Execution {
        let mut ex = self.run_sync(sim, spans, max_rounds);
        let covered =
            checks::token_messages_cover_learnings(ex.counts.token_msgs, ex.counts.learnings);
        ex.failures.extend(covered.err());
        ex
    }

    fn replay_checks(&self, counts: &Counts, replay_tc: u64) -> Vec<String> {
        failures([checks::message_bound(
            counts.messages,
            replay_tc,
            self.n() as u64,
            self.sources,
            self.k() as u64,
        )])
    }
}

/// Algorithm 1 (single-source unicast) under periodic random-tree rewiring.
pub struct RewireUnicast {
    p: Params,
    sigma: u64,
    adversary_seed: u64,
}

impl RewireUnicast {
    /// n = 2048, k = 4 at node 0, a fresh random tree every σ = 3 rounds.
    pub fn new(seed: u64) -> Self {
        let (n, k, sigma) = (2048, 4, 3);
        RewireUnicast {
            p: Params::new(TokenAssignment::single_source(n, k, NodeId::new(0))),
            sigma,
            adversary_seed: derive_seed(seed, "rewire-tree", &[n as u64, sigma]),
        }
    }

    fn adversary(&self) -> PeriodicRewiring {
        PeriodicRewiring::new(Topology::RandomTree, self.sigma, self.adversary_seed)
    }

    fn max_rounds(&self) -> u64 {
        // Theorem 3.4's bound; the round check fails a run that reaches it.
        8 * self.p.n() as u64 * self.p.k() as u64 + 1
    }
}

impl Workload for RewireUnicast {
    const PANEL: usize = 24;
    type Built = UnicastSim<SingleSourceNode, PeriodicRewiring>;

    fn build(&self) -> Self::Built {
        let (n, k) = (self.p.n(), self.p.k());
        let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
        let nodes = SingleSourceNode::nodes(&assignment);
        UnicastSim::new(
            "single-source-unicast",
            nodes,
            self.adversary(),
            &assignment,
            SimConfig::with_max_rounds(self.max_rounds()),
        )
    }

    fn execute(&self, mut sim: Self::Built, spans: Option<&mut Spans>) -> Execution {
        let mut ex = self.p.run_unicast(&mut sim, spans, self.max_rounds());
        let (n, k) = (self.p.n() as u64, self.p.k() as u64);
        ex.failures
            .extend(checks::round_bound(ex.counts.epochs, n, k).err());
        ex
    }

    fn adversary_replica(&self) -> Box<dyn Adversary> {
        Box::new(self.adversary())
    }

    fn n(&self) -> usize {
        self.p.n()
    }

    fn replay_checks(&self, counts: &Counts, replay_tc: u64) -> Vec<String> {
        self.p.replay_checks(counts, replay_tc)
    }
}

/// Multi-source unicast (§3.2.1) under bounded churn.
pub struct ChurnMultisource {
    p: Params,
    density: f64,
    churn: usize,
    sigma: u64,
    adversary_seed: u64,
}

impl ChurnMultisource {
    /// n = 2048, k = 64 over 8 sources, a sparse connected graph (about
    /// 2n edges) losing and gaining 32 edges a round, σ = 3.
    pub fn new(seed: u64) -> Self {
        let (n, k, s, churn, sigma, density) = (2048, 64, 8, 32, 3, 2.0);
        ChurnMultisource {
            p: Params::new(TokenAssignment::round_robin_sources(n, k, s)),
            density,
            churn,
            sigma,
            adversary_seed: derive_seed(
                seed,
                "churn-sparse",
                &[n as u64, f64::to_bits(density), churn as u64, sigma],
            ),
        }
    }

    fn adversary(&self) -> ChurnAdversary {
        ChurnAdversary::new(
            Topology::SparseConnected(self.density),
            self.churn,
            self.sigma,
            self.adversary_seed,
        )
    }

    fn max_rounds(&self) -> u64 {
        // Generous cap (far above the observed ~140 rounds); the full
        // knowledge check fails a run that reaches it.
        100_000
    }
}

impl Workload for ChurnMultisource {
    const PANEL: usize = 4;
    type Built = UnicastSim<MultiSourceNode, ChurnAdversary>;

    fn build(&self) -> Self::Built {
        let (n, k) = (self.p.n(), self.p.k());
        let assignment = TokenAssignment::round_robin_sources(n, k, self.p.sources as usize);
        let (nodes, _map) = MultiSourceNode::nodes(&assignment);
        UnicastSim::new(
            "multi-source-unicast",
            nodes,
            self.adversary(),
            &assignment,
            SimConfig::with_max_rounds(self.max_rounds()),
        )
    }

    fn execute(&self, mut sim: Self::Built, spans: Option<&mut Spans>) -> Execution {
        self.p.run_unicast(&mut sim, spans, self.max_rounds())
    }

    fn adversary_replica(&self) -> Box<dyn Adversary> {
        Box::new(self.adversary())
    }

    fn n(&self) -> usize {
        self.p.n()
    }

    fn replay_checks(&self, counts: &Counts, replay_tc: u64) -> Vec<String> {
        self.p.replay_checks(counts, replay_tc)
    }
}

/// Phased flooding (local broadcast) under periodic random-tree rewiring.
pub struct FloodBroadcast {
    p: Params,
    sigma: u64,
    adversary_seed: u64,
}

impl FloodBroadcast {
    /// n = 2048, k = 4 at node 0, exact metering, σ = 3 rewiring.
    pub fn new(seed: u64) -> Self {
        let (n, k, sigma) = (2048, 4, 3);
        FloodBroadcast {
            p: Params::new(TokenAssignment::single_source(n, k, NodeId::new(0))),
            sigma,
            adversary_seed: derive_seed(seed, "rewire-tree", &[n as u64, sigma]),
        }
    }

    fn adversary(&self) -> PeriodicRewiring {
        PeriodicRewiring::new(Topology::RandomTree, self.sigma, self.adversary_seed)
    }

    fn max_rounds(&self) -> u64 {
        // One sweep of k phases of n rounds always completes.
        (self.p.n() * self.p.k()) as u64
    }
}

impl Workload for FloodBroadcast {
    const PANEL: usize = 2;
    type Built = BroadcastSim<PhasedFlooding, PeriodicRewiring>;

    fn build(&self) -> Self::Built {
        let assignment = TokenAssignment::single_source(self.p.n(), self.p.k(), NodeId::new(0));
        let nodes = PhasedFlooding::nodes(&assignment);
        BroadcastSim::new(
            "phased-flooding",
            nodes,
            self.adversary(),
            &assignment,
            SimConfig::with_max_rounds(self.max_rounds()),
        )
    }

    fn execute(&self, mut sim: Self::Built, spans: Option<&mut Spans>) -> Execution {
        let mut ex = self.p.run_sync(&mut sim, spans, self.max_rounds());
        let per_round = sim.meter().round_series().iter().map(|r| r.broadcast);
        let bounded = checks::broadcasts_per_round(per_round, self.p.n() as u64);
        ex.failures.extend(bounded.err());
        ex
    }

    fn adversary_replica(&self) -> Box<dyn Adversary> {
        Box::new(self.adversary())
    }

    fn n(&self) -> usize {
        self.p.n()
    }
}

// ---------------------------------------------------------------------
// The event runtime, through `Scenario`.
// ---------------------------------------------------------------------

type LossyLink = JitterLatency<DropLink>;

fn lossy_link(jitter: u64) -> LossyLink {
    DropLink::new(DROP_P).with_jitter(jitter)
}

/// Adds one event report's runtime counters into `c`.
fn add_event_counts(c: &mut Counts, e: &EventReport) {
    c.events += e.events;
    c.transmissions += e.transmissions;
    c.scheduled += e.copies_scheduled;
    c.delivered += e.copies_delivered;
    c.retransmissions += e.retransmissions;
    c.unroutable += e.unroutable;
}

/// The drop-share check over a run's link counters: every routable
/// transmission reached the link, and the copies it did not schedule were
/// dropped (the lossy workloads' links never duplicate).
fn drop_check(c: &Counts) -> Check {
    let planned = c.transmissions - c.unroutable;
    checks::drop_share(planned - c.scheduled, planned, DROP_P, DROP_Z)
}

/// Replays `LinkModel::plan` once per routable transmission of the run.
fn replay_link(link: &LossyLink, counts: &Counts, seed: u64, spans: &mut Spans) {
    use dynspread_runtime::link::LinkModel;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut fates = Vec::with_capacity(4);
    let planned = counts.transmissions - counts.unroutable;
    let (a, b) = (NodeId::new(0), NodeId::new(1));
    spans.time("link.plan", || {
        for t in 0..planned {
            fates.clear();
            link.plan(a, b, t, &mut rng, &mut fates);
            black_box(&fates);
        }
    });
}

/// Replays `EventQueue::schedule`/`pop` for the run's event count: one
/// event per node at time 0, then each popped event schedules the next,
/// with delivery delays (`0..=jitter`, in the run's share of deliveries
/// among events) and heartbeat delays (`base_interval`) for the rest.
fn replay_queue(counts: &Counts, n: usize, jitter: u64, spans: &mut Spans) {
    use dynspread_runtime::event::EventQueue;
    let events = counts.events;
    let deliveries = counts.delivered.min(events);
    let base = AsyncConfig::default().base_interval;
    let mut q: EventQueue<u64> = EventQueue::new();
    spans.time("queue.replay", || {
        for i in 0..n.min(events as usize) as u64 {
            q.schedule(0, i);
        }
        let mut scheduled = q.len() as u64;
        let mut acc = 0u64;
        while let Some((t, i)) = q.pop() {
            if scheduled < events {
                // Bresenham-style interleave: `deliveries` of every
                // `events` scheduled entries are deliveries.
                acc += deliveries;
                let delay = if acc >= events {
                    acc -= events;
                    i % (jitter + 1)
                } else {
                    base
                };
                q.schedule(t + delay, i.wrapping_add(1));
                scheduled += 1;
            }
        }
    });
}

/// Per-session observer wrapped around each `AsyncSingleSource`
/// instance: forwards every call unchanged, counts delivered messages by
/// variant, and on drop (when the engine is torn down at the end of the
/// run) files its final token set and counts with the shared sink.
struct Observed {
    inner: AsyncSingleSource,
    slot: usize,
    mix: [u64; 5],
    sink: Rc<RefCell<SessionSink>>,
}

struct SessionSink {
    finals: Vec<Option<TokenSet>>,
    mix: [u64; 5],
}

fn variant(m: &AsyncSsMsg) -> usize {
    match m {
        AsyncSsMsg::Probe => 0,
        AsyncSsMsg::Completeness => 1,
        AsyncSsMsg::Ack => 2,
        AsyncSsMsg::Request(_) => 3,
        AsyncSsMsg::Token(_) => 4,
    }
}

impl Drop for Observed {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.try_borrow_mut() {
            sink.finals[self.slot] = self.inner.known_tokens().cloned();
            for (a, b) in sink.mix.iter_mut().zip(self.mix) {
                *a += b;
            }
        }
    }
}

impl EventProtocol for Observed {
    type Msg = AsyncSsMsg;

    fn on_start(&mut self, ctx: &mut EventCtx<'_, AsyncSsMsg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: &AsyncSsMsg, ctx: &mut EventCtx<'_, AsyncSsMsg>) {
        self.mix[variant(msg)] += 1;
        self.inner.on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, id: u64, ctx: &mut EventCtx<'_, AsyncSsMsg>) {
        self.inner.on_timer(id, ctx);
    }

    fn on_recover(&mut self, mode: RecoveryMode, ctx: &mut EventCtx<'_, AsyncSsMsg>) {
        self.inner.on_recover(mode, ctx);
    }

    fn on_heal(&mut self, ctx: &mut EventCtx<'_, AsyncSsMsg>) {
        self.inner.on_heal(ctx);
    }

    fn known_tokens(&self) -> Option<&TokenSet> {
        self.inner.known_tokens()
    }
}

/// Many overlapping single-source sessions through the session mux.
pub struct SessionsLossy {
    n: usize,
    k: usize,
    workload: SessionWorkload,
    universes: Vec<TokenSet>,
    jitter: u64,
    sigma: u64,
    adversary_seed: u64,
    engine_seed: u64,
}

impl SessionsLossy {
    /// n = 128, 120 single-source sessions of k = 8 tokens arriving
    /// 1..=16 ticks apart, random trees every σ = 3 epochs,
    /// `DropLink(0.1)` with jitter 1.
    pub fn new(seed: u64) -> Self {
        let (n, sessions, k, spacing, jitter, sigma) =
            (128usize, 120usize, 8usize, 16u64, 1u64, 3u64);
        let trace_seed = derive_seed(
            seed,
            "session-trace",
            &[n as u64, sessions as u64, k as u64, spacing],
        );
        let workload = SessionWorkload::uniform(n, sessions, k, spacing, trace_seed);
        SessionsLossy {
            universes: workload
                .specs()
                .iter()
                .map(|s| checks::universe(&s.assignment))
                .collect(),
            n,
            k,
            workload,
            jitter,
            sigma,
            adversary_seed: derive_seed(seed, "rewire-tree", &[n as u64, sigma]),
            engine_seed: derive_seed(seed, "session-engine", &[n as u64, jitter]),
        }
    }

    fn adversary(&self) -> PeriodicRewiring {
        PeriodicRewiring::new(Topology::RandomTree, self.sigma, self.adversary_seed)
    }
}

impl Workload for SessionsLossy {
    const PANEL: usize = 5;
    type Built = Scenario<PeriodicRewiring, LossyLink>;

    fn build(&self) -> Self::Built {
        Scenario::new(self.n, self.k)
            .topology(self.adversary())
            .link(lossy_link(self.jitter))
            .seed(self.engine_seed)
            .workload(&self.workload)
    }

    fn execute(&self, scenario: Self::Built, mut spans: Option<&mut Spans>) -> Execution {
        let n = self.n;
        let sessions = self.workload.len();
        let sink = Rc::new(RefCell::new(SessionSink {
            finals: vec![None; n * sessions],
            mix: [0; 5],
        }));
        let retransmit = AsyncConfig::default();
        let start = Instant::now();
        let out = timed(&mut spans, "scenario.run_sessions", || {
            let sink = Rc::clone(&sink);
            scenario.run_sessions_with(move |v, i, spec| Observed {
                inner: AsyncSingleSource::new(v, &spec.assignment, retransmit),
                slot: i * n + v.index(),
                mix: [0; 5],
                sink: Rc::clone(&sink),
            })
        });
        let wall_s = start.elapsed().as_secs_f64();
        let sink = sink.borrow();
        let mut c = Counts {
            tokens: (sessions * self.k) as u64,
            epochs: out.event.epochs,
            learnings: out.sessions.iter().map(|s| s.report.learnings).sum(),
            tc: out.report.tc(),
            latency_p50: out.latency_percentile(0.5).unwrap_or(u64::MAX),
            latency_p95: out.latency_percentile(0.95).unwrap_or(u64::MAX),
            latency_samples: out.completed_sessions() as u64,
            // Per-class counts of delivered messages, from the observer.
            completeness_msgs: sink.mix[1],
            request_msgs: sink.mix[3],
            token_msgs: sink.mix[4],
            wire_mix: sink.mix,
            ..Counts::default()
        };
        add_event_counts(&mut c, &out.event);
        c.messages = c.transmissions;
        let mut results = vec![
            checks::wire_clean(out.decode_errors, out.foreign_drops),
            drop_check(&c),
        ];
        for (i, (report, universe)) in out.sessions.iter().zip(&self.universes).enumerate() {
            let finals: Option<Vec<&TokenSet>> = sink.finals[i * n..(i + 1) * n]
                .iter()
                .map(Option::as_ref)
                .collect();
            results.push(match finals {
                Some(f) => {
                    checks::full_knowledge(universe, f).map_err(|e| format!("session {i}: {e}"))
                }
                None => Err(format!("session {i}: a node left no final token set")),
            });
            let missing = checks::missing_pairs(&self.workload.specs()[i].assignment);
            results.push(
                checks::learnings(report.report.learnings, missing)
                    .map_err(|e| format!("session {i}: {e}")),
            );
        }
        Execution {
            wall_s,
            counts: c,
            failures: failures(results),
        }
    }

    fn adversary_replica(&self) -> Box<dyn Adversary> {
        Box::new(self.adversary())
    }

    fn n(&self) -> usize {
        self.n
    }

    fn work(counts: &Counts) -> u64 {
        counts.events
    }

    fn replay_layers(&self, counts: &Counts, spans: &mut Spans) {
        replay_link(
            &lossy_link(self.jitter),
            counts,
            derive_seed(self.engine_seed, "link-replay", &[]),
            spans,
        );
        replay_queue(counts, self.n, self.jitter, spans);
        replay_wire(counts, spans);
    }
}

/// Encodes and decodes one `WireEnvelope` per envelope of the run, with
/// the `AsyncSsMsg` variants in the run's delivered mix.
fn replay_wire(counts: &Counts, spans: &mut Spans) {
    use dynspread_runtime::{SessionId, WireEnvelope};
    use dynspread_sim::token::TokenId;
    let total: u64 = counts.wire_mix.iter().sum();
    if total == 0 {
        return;
    }
    // A 1000-message pattern in the run's proportions, cycled.
    let mut pattern = Vec::with_capacity(1000);
    for (v, &cnt) in counts.wire_mix.iter().enumerate() {
        let reps = (cnt * 1000).div_ceil(total);
        for j in 0..reps {
            let t = TokenId::new((j % 8) as u32);
            pattern.push(match v {
                0 => AsyncSsMsg::Probe,
                1 => AsyncSsMsg::Completeness,
                2 => AsyncSsMsg::Ack,
                3 => AsyncSsMsg::Request(t),
                _ => AsyncSsMsg::Token(t),
            });
        }
    }
    let count = counts.transmissions as usize;
    let mut envelopes = Vec::with_capacity(count);
    spans.time("wire.encode", || {
        for i in 0..count {
            let session = SessionId::new((i % 200) as u32);
            envelopes.push(WireEnvelope::encode_msg(
                session,
                &pattern[i % pattern.len()],
            ));
        }
    });
    let mut mismatches = 0u64;
    spans.time("wire.decode", || {
        for (i, env) in envelopes.iter().enumerate() {
            match env.decode_msg::<AsyncSsMsg>() {
                Ok(m) if m == pattern[i % pattern.len()] => {}
                _ => mismatches += 1,
            }
        }
    });
    assert_eq!(mismatches, 0, "wire codec round trip failed");
}
