//! Golden digests pinning `Scenario` runs to the historical driver
//! outputs.
//!
//! Before the `Scenario` builder, every axis had its own driver
//! function (faulty, Byzantine, and the honest oblivious pipeline).
//! Each constant below is the 64-bit FNV-1a of the `Debug` text of a
//! `Scenario` outcome — reports, evidence, coverage floats, hand-off
//! counters and final knowledge — recorded while the old drivers still
//! existed and were asserted byte-identical to it. The constants are
//! never re-recorded: a mismatch means the execution changed.
//!
//! The oblivious replay-identity and structural-soundness checks that
//! accompanied those drivers are kept as plain `Scenario` tests.

use dynspread::graph::generators::Topology;
use dynspread::graph::oblivious::PeriodicRewiring;
use dynspread::runtime::byzantine::transcript::fnv1a;
use dynspread::runtime::byzantine::{MisbehaviorKind, MisbehaviorPlan};
use dynspread::runtime::faults::{FaultPlan, RecoveryMode};
use dynspread::runtime::link::{DropLink, LinkModelExt};
use dynspread::runtime::protocol::AsyncObliviousConfig;
use dynspread::runtime::trace::JsonlTracer;
use dynspread::runtime::{Scenario, ScenarioObliviousOutcome};
use dynspread::sim::token::TokenAssignment;

fn adversary(epoch: u64, seed: u64) -> PeriodicRewiring {
    PeriodicRewiring::new(Topology::RandomTree, epoch, seed)
}

/// FNV-1a of a value's `Debug` text.
fn digest(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

#[test]
fn bare_default_scenario_matches_its_golden_digest() {
    let out = Scenario::new(8, 4).run_single_source();
    assert_eq!(out.report.adversary.as_ref(), "static");
    assert_eq!(digest(&out), 0x1888_e3fa_4223_9dde);
}

#[test]
fn faulty_single_source_wrapper_matches_the_old_driver_byte_for_byte() {
    let n = 14;
    let out = Scenario::new(n, 8)
        .topology(adversary(3, 7))
        .link(DropLink::new(0.3).with_jitter(2))
        .seed(11)
        .faults(
            FaultPlan::crash_recovery(n, 0.2, 30, 120, RecoveryMode::Amnesia, 5)
                .with_random_partition(40, 300),
        )
        .name("faulty-async-single-source")
        .run_single_source();
    assert_eq!(digest(&out), 0x3019_c12a_5ba8_a9f6);
}

#[test]
fn faulty_multi_source_wrapper_matches_the_old_driver_byte_for_byte() {
    let n = 12;
    let out = Scenario::from_assignment(TokenAssignment::round_robin_sources(n, 9, 3))
        .topology(adversary(3, 9))
        .link(DropLink::new(0.2))
        .seed(21)
        .faults(FaultPlan::crash_stop(n, 0.2, 40, 17))
        .max_time(500_000)
        .name("faulty-async-multi-source")
        .run_multi_source();
    assert_eq!(digest(&out), 0x4667_cf91_3572_b702);
}

#[test]
fn byzantine_single_source_wrapper_matches_the_old_driver_byte_for_byte() {
    let n = 12;
    let out = Scenario::new(n, 6)
        .topology(adversary(3, 5))
        .link(DropLink::new(0.2).with_jitter(1))
        .seed(13)
        .byzantine(MisbehaviorPlan::uniform(
            n,
            0.25,
            MisbehaviorKind::FalseClaims,
            3,
        ))
        .max_time(1_000_000)
        .name("byz-async-single-source")
        .run_single_source();
    assert_eq!(digest(&out), 0x6a84_0c43_8e4c_8551);
}

#[test]
fn byzantine_multi_source_wrapper_matches_the_old_driver_byte_for_byte() {
    let n = 12;
    let out = Scenario::from_assignment(TokenAssignment::round_robin_sources(n, 8, 2))
        .topology(adversary(3, 6))
        .link(DropLink::new(0.2))
        .seed(19)
        .byzantine(MisbehaviorPlan::uniform(
            n,
            0.25,
            MisbehaviorKind::DropAcks,
            8,
        ))
        .max_time(1_000_000)
        .name("byz-async-multi-source")
        .run_multi_source();
    assert_eq!(digest(&out), 0x95d3_a32e_1117_2398);
}

/// The two-phase Byzantine pipeline: pinned, replay-identical, and
/// structurally sound; its few-sources fast path is pinned too and
/// reduces to a multi-source run under the phase-2 seed salt.
#[test]
fn byzantine_oblivious_wrapper_is_replay_identical_and_structurally_sound() {
    let n = 14;
    let plan = MisbehaviorPlan::uniform(n, 0.2, MisbehaviorKind::ForgeTransfers, 4);
    let cfg = AsyncObliviousConfig {
        source_threshold: Some(1.0), // force the two-phase path
        center_probability: Some(0.3),
        ..AsyncObliviousConfig::default()
    };
    let run = || {
        Scenario::from_assignment(TokenAssignment::n_gossip(n))
            .topology(adversary(3, 2))
            .link(DropLink::new(0.2).with_jitter(1))
            .seed(9)
            .byzantine(plan.clone())
            .name("byz-async-oblivious")
            .run_oblivious(
                adversary(3, 4),
                DropLink::new(0.2).with_jitter(1),
                &cfg,
                None,
            )
    };
    let a = run();
    assert_eq!(digest(&a), 0x6530_261e_340d_ec6c);
    assert_eq!(format!("{a:?}"), format!("{:?}", run()));
    assert!(a.phase1.is_some(), "two-phase path must run phase 1");
    assert_eq!(a.report.algorithm.as_ref(), "byz-async-oblivious");
    assert_eq!(a.byzantine_nodes, plan.byzantine_nodes());
    assert_eq!(a.report.violations_detected, a.evidence.len() as u64);
    // Soundness: only malicious nodes are ever indicted.
    assert!(a.evidence.iter().all(|e| plan.is_malicious(e.culprit)));

    // Fast path (the paper's source threshold exceeds one source).
    let single = || Scenario::new(n, 6).byzantine(plan.clone());
    let fast = single()
        .topology(adversary(3, 2))
        .link(DropLink::new(0.2))
        .seed(9)
        .name("byz-async-oblivious")
        .run_oblivious(
            adversary(3, 4),
            DropLink::new(0.2),
            &AsyncObliviousConfig::default(),
            None,
        );
    assert_eq!(digest(&fast), 0x5056_c647_94a3_af4e);
    let direct = single()
        .topology(adversary(3, 4))
        .link(DropLink::new(0.2))
        .seed(9 ^ 0x5EED_0B71_0002)
        .run_multi_source();
    assert!(fast.phase1.is_none());
    assert_eq!(fast.report.algorithm.as_ref(), "byz-async-multi-source");
    assert_eq!(format!("{:?}", fast.phase2), format!("{:?}", direct.event));
    assert_eq!(
        format!("{:?}", fast.evidence),
        format!("{:?}", direct.evidence)
    );
    assert_eq!(
        fast.honest_coverage.to_bits(),
        direct.honest_coverage.to_bits()
    );
}

/// The honest two-phase pipeline with its stitched JSONL trace.
fn honest_oblivious() -> (ScenarioObliviousOutcome, String) {
    let cfg = AsyncObliviousConfig {
        source_threshold: Some(1.0), // n sources ⇒ two-phase path
        center_probability: Some(0.25),
        ..AsyncObliviousConfig::default()
    };
    let tracer = JsonlTracer::new();
    let out = Scenario::from_assignment(TokenAssignment::n_gossip(12))
        .topology(PeriodicRewiring::new(Topology::Gnp(0.3), 3, 1))
        .link(DropLink::new(0.3).with_jitter(2))
        .seed(7)
        .trace(tracer.clone())
        .run_oblivious(
            adversary(3, 2),
            DropLink::new(0.3).with_jitter(2),
            &cfg,
            None,
        );
    (out, tracer.take_jsonl())
}

#[test]
fn honest_oblivious_wrapper_matches_the_old_driver_byte_for_byte() {
    let (out, trace) = honest_oblivious();
    assert_eq!(digest(&out), 0xfe00_ed0a_c80c_cbf6);
    assert_eq!(fnv1a(trace.as_bytes()), 0x49b1_37f3_4e98_fb30);
}

#[test]
fn honest_oblivious_trace_is_replay_identical_through_the_wrapper() {
    let (out_a, trace_a) = honest_oblivious();
    let (out_b, trace_b) = honest_oblivious();
    assert_eq!(format!("{out_a:?}"), format!("{out_b:?}"));
    assert_eq!(trace_a, trace_b);
    assert!(trace_a.contains("\"phase\""), "phase boundary records");
}
