//! Benign-fault injection: crash-stop, crash-recovery, and network
//! partitions — the runtime's third fault axis, next to lossy links and
//! Byzantine misbehavior.
//!
//! Three layers, mirroring the [`byzantine`](crate::byzantine) module:
//!
//! 1. **The plan** ([`plan`]): a seeded, pure-data [`FaultPlan`] deciding
//!    — entirely at construction — which nodes crash and when, whether
//!    they recover and with what surviving state ([`RecoveryMode`]), and
//!    which [`PartitionEpisode`]s cut the network. Plus
//!    [`PartitionLink`], the [`LinkModel`](crate::link::LinkModel)
//!    combinator that enforces the cut without consuming engine
//!    randomness.
//! 2. **Engine semantics** ([`engine`](crate::engine)): a crashed node
//!    consumes no deliveries, fires no timers, and sends nothing; its
//!    pre-crash timers are invalidated by an incarnation counter, so a
//!    recovered node only ever hears from its own new timers. Recovery
//!    dispatches [`EventProtocol::on_recover`](crate::engine::EventProtocol::on_recover)
//!    and a heal dispatches
//!    [`EventProtocol::on_heal`](crate::engine::EventProtocol::on_heal)
//!    to every live node. All of it is replay-identical from the seeds,
//!    and an empty plan is *byte-identical* to running with no plan.
//! 3. **Runs** ([`Scenario::faults`](crate::scenario::Scenario::faults)):
//!    the builder injects a plan into any async port, reports degradation
//!    as live-node coverage, and stamps crash/recovery/partition counters
//!    into the [`RunReport`](dynspread_sim::RunReport).

pub mod plan;

pub use plan::{FaultPlan, NodeFault, PartitionEpisode, PartitionLink, RecoveryMode};
