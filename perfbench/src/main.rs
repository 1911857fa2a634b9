//! `dynspread-perfbench` — one workload per process, on one thread.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rewire-unicast [--seed 1] [--seconds 30] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the run builds and executes the workload repeatedly
//! for `--seconds` seconds and prints the end-to-end metrics; with
//! `--trace 1` it prints the per-layer metrics of a separate traced run.
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! See README.md for the workloads, metrics and checks.

mod checks;
mod measure;
mod spans;
mod workloads;

use measure::{median, peak_rss_mb, quantile, reference_loop_s};
use spans::Spans;
use std::hint::black_box;
use std::time::Instant;
use workloads::{
    replay_graph, ChurnMultisource, Counts, FloodBroadcast, RewireUnicast, SessionsLossy, Workload,
    DEFAULT_SEED,
};

const WORKLOADS: [&str; 4] = [
    "rewire-unicast",
    "churn-multisource",
    "flood-broadcast",
    "sessions-lossy",
];

/// Constructions timed before every execution (the last one is
/// executed): `setup_s` is the median of all of them. A construction
/// takes 0.1–3 ms, and the host runs it at one of two speeds in spells of
/// milliseconds, so samples spread over the whole run, not taken in one
/// burst, give a median that does not depend on the spell a burst hit.
const SETUPS_PER_EXECUTION: usize = 16;

/// Untraced/traced execution pairs of a traced run (at least).
const MIN_TRACE_PAIRS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: dynspread-perfbench --workload <{}> [--seed N (default {DEFAULT_SEED})] \
         [--seconds S (default 30)] [--trace 0|1 (default 0)]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(format!("--seconds {value}: not a duration"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run prints as its last line.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Tallies a run's executions and reports each failed one on stderr.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

/// What a run remembers of one panel member: the seed-pure counts of its
/// first execution and the `TC` of the benchmark's adversary replay.
#[derive(Default)]
struct Member {
    first: Option<Counts>,
    replay_tc: Option<u64>,
}

impl Tally {
    /// Applies the run-level checks (replay identity against the member's
    /// first execution, the adversary replay's `TC`) and counts the
    /// execution.
    fn record<W: Workload>(
        &mut self,
        w: &W,
        m: &mut Member,
        mut failures: Vec<String>,
        counts: &Counts,
    ) {
        self.attempted += 1;
        match &m.first {
            None => m.first = Some(counts.clone()),
            Some(first) => failures.extend(checks::replay_identity(first, counts).err()),
        }
        let replay_tc = *m
            .replay_tc
            .get_or_insert_with(|| replay_graph(w.adversary_replica(), w.n(), counts.epochs, None));
        failures.extend(checks::tc_matches_replay(counts.tc, replay_tc).err());
        failures.extend(w.replay_checks(counts, replay_tc));
        if !failures.is_empty() {
            self.failed += 1;
            eprintln!(
                "execution {} failed: {}",
                self.attempted,
                failures.join("; ")
            );
        }
    }
}

/// Builds [`SETUPS_PER_EXECUTION`] instances, timing each, and returns
/// the last.
fn timed_builds<W: Workload>(w: &W, setup: &mut Vec<f64>) -> W::Built {
    let mut built = None;
    for _ in 0..SETUPS_PER_EXECUTION {
        drop(built.take());
        let start = Instant::now();
        built = Some(black_box(w.build()));
        setup.push(start.elapsed().as_secs_f64());
    }
    built.expect("at least one construction")
}

fn print_samples(name: &str, unit: &str, xs: &[f64]) {
    println!(
        "{name}: n={} p50={:.6} p90={:.6} min={:.6} max={:.6} {unit}",
        xs.len(),
        median(xs),
        quantile(xs, 0.9),
        quantile(xs, 0.0),
        quantile(xs, 1.0)
    );
}

/// The untraced run: the end-to-end metrics.
///
/// A round builds and executes every panel member once, then member 0
/// again (two executions of one seed must agree on every seed-pure
/// count). Rounds repeat until `seconds` have passed. `wall_s` is the
/// median over all the run's executions of the time per unit of work
/// ([`Workload::work`]) times the panel's mean work per execution: the
/// panel's mean execution time, taken from every execution rather than
/// from a few round totals. The seed-pure metrics are panel totals per
/// execution.
fn end_to_end<W: Workload>(panel: &[W], seconds: f64) -> Outcome {
    let start = Instant::now();
    let mut setup = Vec::new();
    let mut members: Vec<Member> = panel.iter().map(|_| Member::default()).collect();
    let mut tally = Tally::default();
    let mut per_work = Vec::new();
    while per_work.is_empty() || start.elapsed().as_secs_f64() < seconds {
        for j in (0..panel.len()).chain([0]) {
            let w = &panel[j];
            let ex = w.execute(timed_builds(w, &mut setup), None);
            per_work.push(ex.wall_s / W::work(&ex.counts).max(1) as f64);
            tally.record(w, &mut members[j], ex.failures, &ex.counts);
        }
    }
    let firsts: Vec<&Counts> = members
        .iter()
        .map(|m| m.first.as_ref().expect("executed"))
        .collect();
    let total = |f: fn(&Counts) -> u64| firsts.iter().map(|c| f(c)).sum::<u64>() as f64;
    let mean_work = total(W::work) / panel.len() as f64;
    print_samples("setup_s", "s", &setup);
    print_samples("wall_s per unit of work", "s", &per_work);
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            metric("setup_s", median(&setup), "s"),
            metric("wall_s", median(&per_work) * mean_work, "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
            metric(
                "msgs_per_token",
                total(|c| c.messages) / total(|c| c.tokens),
                "msgs/token",
            ),
            metric("epochs", total(|c| c.epochs) / panel.len() as f64, "count"),
        ],
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The traced run: the per-layer metrics. Untraced and traced executions
/// alternate (their median walls give `trace.overhead`); then the layers
/// the engines call internally are replayed standalone on the workload's
/// inputs. Spans are written to `out/trace-<workload>-<seed>.jsonl` in the
/// benchmark's directory.
fn per_layer<W: Workload>(w: &W, args: &Args) -> Outcome {
    let start = Instant::now();
    let mut spans = Spans::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let mut member = Member::default();
    while traced.len() < MIN_TRACE_PAIRS || start.elapsed().as_secs_f64() < args.seconds {
        let ex = w.execute(w.build(), None);
        untraced.push(ex.wall_s);
        tally.record(w, &mut member, ex.failures, &ex.counts);
        spans.next_exec();
        spans.open("execution");
        let ex = w.execute(w.build(), Some(&mut spans));
        spans.close();
        traced.push(ex.wall_s);
        tally.record(w, &mut member, ex.failures, &ex.counts);
    }
    let c = member.first.clone().expect("at least one execution");

    // Standalone replays of the graph layer and of the runtime's layers.
    spans.next_exec();
    let rounds = c.epochs;
    spans.open("replay.graph");
    black_box(replay_graph(
        w.adversary_replica(),
        w.n(),
        rounds,
        Some(&mut spans),
    ));
    spans.close();
    w.replay_layers(&c, &mut spans);
    let mut complete = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        black_box(dynspread_graph::Graph::complete(w.n()));
        complete.push(t.elapsed().as_secs_f64());
    }

    let us = |ns: f64| ns / 1e3;
    let per = |total_ns: f64, count: u64| {
        if count == 0 {
            0.0
        } else {
            total_ns / count as f64
        }
    };
    let steps: Vec<f64> = spans.durations("sim.step").into_iter().map(us).collect();
    let graph_ns = spans.total_ns("graph.evolve") + spans.total_ns("graph.apply");
    let step_metrics = if steps.is_empty() {
        [0.0; 3]
    } else {
        print_samples("sim.step_us", "us", &steps);
        let mean_step = steps.iter().sum::<f64>() / steps.len() as f64;
        [
            median(&steps),
            quantile(&steps, 0.9),
            mean_step - us(per(graph_ns, rounds)),
        ]
    };
    let bridges = spans.durations("graph.bridges");
    print_samples("graph.bridges_ns", "ns", &bridges);
    if c.latency_samples > 0 {
        println!(
            "session latency: n={} p50={} p95={} ticks",
            c.latency_samples, c.latency_p50, c.latency_p95
        );
    }
    let run_span = spans.total_ns("scenario.run_sessions");
    let overhead = median(&traced) / median(&untraced);
    print_samples("untraced wall_s", "s", &untraced);
    print_samples("traced wall_s", "s", &traced);
    let planned = c.transmissions - c.unroutable;
    let metrics = vec![
        metric(
            "graph.evolve_us_per_round",
            us(per(spans.total_ns("graph.evolve"), rounds)),
            "us",
        ),
        metric(
            "graph.apply_us_per_round",
            us(per(spans.total_ns("graph.apply"), rounds)),
            "us",
        ),
        metric("graph.bridges_us", us(median(&bridges)), "us"),
        metric("graph.complete_build_s", median(&complete), "s"),
        metric("sim.step_us_p50", step_metrics[0], "us"),
        metric("sim.step_us_p90", step_metrics[1], "us"),
        metric("sim.self_us_per_round", step_metrics[2], "us"),
        metric("core.msgs.token", c.token_msgs as f64, "count"),
        metric("core.msgs.request", c.request_msgs as f64, "count"),
        metric(
            "core.msgs.completeness",
            c.completeness_msgs as f64,
            "count",
        ),
        metric(
            "core.learnings_per_msg",
            ratio(c.learnings, c.messages),
            "ratio",
        ),
        metric("runtime.events", c.events as f64, "count"),
        metric(
            "runtime.ns_per_event",
            per(run_span, c.events * traced.len() as u64),
            "ns",
        ),
        metric(
            "runtime.delivered_per_send",
            ratio(c.delivered, c.transmissions),
            "ratio",
        ),
        metric(
            "runtime.retransmits_per_send",
            ratio(c.retransmissions, c.transmissions),
            "ratio",
        ),
        metric("runtime.unroutable", c.unroutable as f64, "count"),
        metric(
            "link.plan_ns",
            per(spans.total_ns("link.plan"), planned),
            "ns",
        ),
        metric(
            "queue.ns_per_event",
            per(spans.total_ns("queue.replay"), c.events),
            "ns",
        ),
        metric(
            "wire.envelopes",
            if c.wire_mix.iter().any(|&x| x > 0) {
                c.transmissions as f64
            } else {
                0.0
            },
            "count",
        ),
        metric(
            "wire.encode_ns",
            per(spans.total_ns("wire.encode"), c.transmissions),
            "ns",
        ),
        metric(
            "wire.decode_ns",
            per(spans.total_ns("wire.decode"), c.transmissions),
            "ns",
        ),
        metric("session.latency_p50_ticks", c.latency_p50 as f64, "ticks"),
        metric("session.latency_p95_ticks", c.latency_p95 as f64, "ticks"),
        metric("trace.overhead", overhead, "ratio"),
    ];
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match spans.write_jsonl(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

/// Runs a workload's panel: member `j` is built from a sub-seed derived
/// from `--seed` and `j`. The traced run uses member 0 only.
fn run<W: Workload>(new: fn(u64) -> W, args: &Args) -> Outcome {
    let panel: Vec<W> = (0..W::PANEL as u64)
        .map(|j| new(measure::derive_seed(args.seed, "panel", &[j])))
        .collect();
    if args.trace {
        per_layer(&panel[0], args)
    } else {
        end_to_end(&panel, args.seconds)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let before = reference_loop_s();
    let outcome = match args.workload.as_str() {
        "rewire-unicast" => run(RewireUnicast::new, &args),
        "churn-multisource" => run(ChurnMultisource::new, &args),
        "flood-broadcast" => run(FloodBroadcast::new, &args),
        "sessions-lossy" => run(SessionsLossy::new, &args),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    };
    let after = reference_loop_s();
    println!("reference_loop_s: before={before:.4} after={after:.4} (not a metric)");
    println!(
        "executions: attempted={} failed={}",
        outcome.attempted, outcome.failed
    );
    for m in &outcome.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json());
}
