//! The experiment suite: one function per paper artifact (the
//! experiment list in the `harness` crate docs is the index).

use crate::pstack::{build_ps_env, run_ps_env};
use crate::report::Table;
use asn1::parallel::{encode_sequence_of, encode_sequence_of_parallel};
use asn1::Value;
use directory::MovieEntry;
use estelle::sched::{FirePolicy, SeqOptions};
use estelle::{Ctx, Dispatch, GroupingPolicy, StateId, StateMachine, Transition};
use ksim::{Machine, Overheads};
use mcam::{McamOp, McamPdu, StackKind, World};
use netsim::{LinkConfig, SimDuration, SimTime};
use std::time::{Duration, Instant};

/// E1 — §5.1 sequential vs. parallel speedup.
///
/// Reproduces the headline measurement: presentation+session kernels
/// over a simulated transport pipe, `connections` connections with a
/// *varying number of very small P-DATA units*; sequential baseline
/// vs. parallel execution on the full simulated multiprocessor with
/// the generator's default mapping (one thread per Estelle module —
/// "the maximum degree of parallelism allowed by Estelle semantics").
/// OSF/1-era thread-handoff costs keep the speedup in the paper's
/// 1.4–2.0 band.
pub fn speedup_experiment(
    connections: usize,
    data_requests: &[u32],
    overheads: Overheads,
) -> (Table, Vec<f64>) {
    let mut table = Table::new(
        format!("E1 speedup: {connections} connections, module-per-thread on 32 CPUs"),
        &[
            "data requests",
            "seq makespan",
            "par makespan",
            "speedup",
            "utilization",
        ],
    );
    let mut speedups = Vec::new();
    for &dr in data_requests {
        let env = build_ps_env(connections, dr, 42);
        let trace = run_ps_env(&env, dr);
        let baseline = ksim::simulate_sequential(&trace, overheads);
        let par = ksim::simulate(
            &trace,
            GroupingPolicy::PerModule,
            &Machine {
                processors: 32,
                overheads,
            },
        );
        let s = ksim::speedup(&baseline, &par);
        speedups.push(s);
        table.row([
            dr.to_string(),
            baseline.makespan.to_string(),
            par.makespan.to_string(),
            format!("{s:.2}"),
            format!("{:.0}%", par.utilization() * 100.0),
        ]);
    }
    (table, speedups)
}

/// E2 — §5.2 grouping: module-per-thread vs. units = processors.
pub fn grouping_experiment(
    connections: usize,
    data_requests: u32,
    processors: &[usize],
) -> (Table, Vec<(f64, f64)>) {
    let env = build_ps_env(connections, data_requests, 7);
    let trace = run_ps_env(&env, data_requests);
    let overheads = Overheads::ksr1_like();
    let baseline = ksim::simulate_sequential(&trace, overheads);
    let mut table = Table::new(
        format!(
            "E2 grouping: {connections} connections, {} modules",
            trace.modules.len()
        ),
        &[
            "processors",
            "module-per-thread",
            "grouped (units=P)",
            "speedup/ungrouped",
            "speedup/grouped",
        ],
    );
    let mut pairs = Vec::new();
    for &p in processors {
        let per_module = ksim::simulate(
            &trace,
            GroupingPolicy::PerModule,
            &Machine {
                processors: p,
                overheads,
            },
        );
        let grouped = ksim::simulate(
            &trace,
            GroupingPolicy::ByConnection { units: p as u32 },
            &Machine {
                processors: p,
                overheads,
            },
        );
        let s_un = ksim::speedup(&baseline, &per_module);
        let s_gr = ksim::speedup(&baseline, &grouped);
        pairs.push((s_un, s_gr));
        table.row([
            p.to_string(),
            per_module.makespan.to_string(),
            grouped.makespan.to_string(),
            format!("{s_un:.2}"),
            format!("{s_gr:.2}"),
        ]);
    }
    (table, pairs)
}

// --- E3: transition dispatch --------------------------------------------

macro_rules! wide_fsm {
    ($name:ident, $n:expr) => {
        /// Cyclic FSM with $n transitions for the dispatch experiment.
        #[derive(Debug, Default)]
        pub struct $name {
            /// Transition firings so far.
            pub fires: u64,
        }
        impl StateMachine for $name {
            fn num_ips(&self) -> usize {
                0
            }
            fn initial_state(&self) -> StateId {
                StateId(0)
            }
            fn transitions() -> Vec<Transition<Self>> {
                (0..$n as u16)
                    .map(|s| {
                        Transition::spontaneous("step", StateId(s), |m: &mut Self, _c, _i| {
                            m.fires += 1;
                        })
                        .to(StateId((s + 1) % $n as u16))
                    })
                    .collect()
            }
            fn on_init(&mut self, _ctx: &mut Ctx<'_>) {}
        }
    };
}

wide_fsm!(WideFsm2, 2);
wide_fsm!(WideFsm4, 4);
wide_fsm!(WideFsm8, 8);
wide_fsm!(WideFsm16, 16);
wide_fsm!(WideFsm32, 32);
wide_fsm!(WideFsm64, 64);

fn run_dispatch<M: StateMachine + Default>(dispatch: Dispatch, firings: u64) -> Duration {
    // Measure transition selection + firing in isolation (the §5.2
    // concern is the selection function, not the whole runtime).
    let mut fsm = estelle::Fsm::new(M::default());
    let ips: Vec<estelle::IpState> = Vec::new();
    let t0 = Instant::now();
    for _ in 0..firings {
        let fired = fsm.bench_step(&ips, SimTime::ZERO, SimTime::ZERO, dispatch);
        assert!(fired);
    }
    t0.elapsed()
}

/// E3 — §5.2 transition mapping: wall time of `firings` transitions
/// under hard-coded vs. table-driven dispatch for machines of 2–64
/// transitions. Returns rows of (n, hard_ns_per_firing,
/// table_ns_per_firing).
pub fn dispatch_experiment(firings: u64) -> (Table, Vec<(usize, f64, f64)>) {
    let mut table = Table::new(
        format!("E3 transition dispatch, {firings} firings per cell"),
        &[
            "transitions",
            "hard-coded ns/firing",
            "table-driven ns/firing",
            "table wins",
        ],
    );
    let mut rows = Vec::new();
    macro_rules! cell {
        ($t:ty, $n:expr) => {{
            let hard = run_dispatch::<$t>(Dispatch::HardCoded, firings);
            let tab = run_dispatch::<$t>(Dispatch::TableDriven, firings);
            let h = hard.as_nanos() as f64 / firings as f64;
            let t = tab.as_nanos() as f64 / firings as f64;
            rows.push(($n, h, t));
            table.row([
                $n.to_string(),
                format!("{h:.0}"),
                format!("{t:.0}"),
                if t < h { "yes" } else { "no" }.to_string(),
            ]);
        }};
    }
    cell!(WideFsm2, 2usize);
    cell!(WideFsm4, 4usize);
    cell!(WideFsm8, 8usize);
    cell!(WideFsm16, 16usize);
    cell!(WideFsm32, 32usize);
    cell!(WideFsm64, 64usize);
    (table, rows)
}

/// E4 — §5.2 scheduler overhead: centralized vs. decentralized.
///
/// Two views: (a) the ksim model (dispatch serialized through a
/// coordinator vs. charged locally) on the §5.1 trace; (b) the real
/// instrumented share of selection time under the `OnePerScan`
/// (centralized rescan) vs. `Pass` firing policies.
pub fn scheduler_experiment(connections: usize, data_requests: u32) -> (Table, f64, f64) {
    let env = build_ps_env(connections, data_requests, 13);
    let trace = run_ps_env(&env, data_requests);
    // Small transitions: shrink every cost to stress the scheduler, as
    // in "protocols with only small processing times".
    let mut small = trace.clone();
    for r in &mut small.records {
        r.cost = SimDuration::from_micros(5);
    }
    let overheads = Overheads {
        dispatch: SimDuration::from_micros(20),
        ..Overheads::default()
    };
    let central = ksim::simulate(
        &small,
        GroupingPolicy::ByConnection {
            units: connections as u32,
        },
        &Machine {
            processors: connections,
            overheads: Overheads {
                centralized: true,
                ..overheads
            },
        },
    );
    let decentral = ksim::simulate(
        &small,
        GroupingPolicy::ByConnection {
            units: connections as u32,
        },
        &Machine {
            processors: connections,
            overheads,
        },
    );

    // Real instrumentation.
    let env_a = build_ps_env(connections, data_requests, 13);
    env_a.rt.start().expect("valid");
    let opts = SeqOptions {
        fire_policy: FirePolicy::OnePerScan,
        advance_time: false,
        ..Default::default()
    };
    estelle::driver::run_sim(&env_a.rt, &env_a.net, &opts, SimTime::from_secs(600));
    let central_counters = env_a.rt.counters();
    let central_share_real = central_counters.scheduler_share();
    let central_selects_per_firing =
        central_counters.selects as f64 / central_counters.firings.max(1) as f64;

    let env_b = build_ps_env(connections, data_requests, 13);
    env_b.rt.start().expect("valid");
    let opts = SeqOptions {
        fire_policy: FirePolicy::Pass,
        advance_time: false,
        ..Default::default()
    };
    estelle::driver::run_sim(&env_b.rt, &env_b.net, &opts, SimTime::from_secs(600));
    let pass_counters = env_b.rt.counters();
    let pass_share_real = pass_counters.scheduler_share();
    let pass_selects_per_firing =
        pass_counters.selects as f64 / pass_counters.firings.max(1) as f64;

    // Scheduler share: for the centralized scheduler all dispatch
    // serializes through one coordinator, so its share of the critical
    // path is dispatch_time/makespan; decentralized dispatch spreads
    // over all processors.
    let central_share =
        (central.dispatch_time.as_secs_f64() / central.makespan.as_secs_f64()).min(1.0);
    let decentral_share = (decentral.dispatch_time.as_secs_f64()
        / (decentral.makespan.as_secs_f64() * connections as f64))
        .min(1.0);
    // Sanity: the two real firing policies complete the same protocol
    // work (their wall-clock scheduler share on this one-CPU container
    // is not meaningful for the claim, so only the model is reported).
    assert_eq!(central_counters.firings, pass_counters.firings);
    let _ = (central_share_real, pass_share_real);
    let _ = (central_selects_per_firing, pass_selects_per_firing);
    let mut table = Table::new(
        "E4 scheduler overhead (small transitions)",
        &["scheduler", "makespan", "scheduler share of critical path"],
    );
    table.row([
        "centralized".to_string(),
        central.makespan.to_string(),
        format!("{:.0}%", central_share * 100.0),
    ]);
    table.row([
        "decentralized".to_string(),
        decentral.makespan.to_string(),
        format!("{:.0}% (per CPU)", decentral_share * 100.0),
    ]);
    (table, central_share, decentral_share)
}

/// E5 — generated vs. hand-coded lower layers: the same MCAM workload
/// over the Estelle P+S stack and over the ISODE stack. Returns the
/// table plus (wall, firings) per stack.
pub fn generated_vs_handcoded(ops_per_client: usize) -> (Table, (Duration, u64), (Duration, u64)) {
    let run = |stack: StackKind| {
        let mut world = World::builder(99).build();
        let server = world.add_server("cmp", stack);
        let client = world.add_client(&server, stack, vec![]);
        world.start();
        let t0 = Instant::now();
        let rsp = world.client_op(
            &client,
            McamOp::Associate {
                user: "bench".into(),
            },
        );
        assert_eq!(rsp, Some(McamPdu::AssociateRsp { accepted: true }));
        for i in 0..ops_per_client {
            let rsp = world.client_op(
                &client,
                McamOp::CreateMovie {
                    title: format!("m{i}"),
                    format: "XMovie-24".into(),
                    frame_rate: 25,
                    frame_count: 10,
                },
            );
            assert_eq!(rsp, Some(McamPdu::CreateMovieRsp { ok: true }));
            let rsp = world.client_op(
                &client,
                McamOp::Query {
                    title: format!("m{i}"),
                    attrs: vec![],
                },
            );
            assert!(matches!(
                rsp,
                Some(McamPdu::QueryAttrsRsp { attrs: Some(_) })
            ));
        }
        let wall = t0.elapsed();
        (wall, world.rt.counters().firings)
    };
    let (wall_est, firings_est) = run(StackKind::EstellePS);
    let (wall_iso, firings_iso) = run(StackKind::Isode);
    let mut table = Table::new(
        format!("E5 generated vs hand-coded, {ops_per_client} create+query pairs"),
        &["stack", "wall time", "transition firings"],
    );
    table.row([
        "Estelle P+S (generated)".to_string(),
        format!("{wall_est:?}"),
        firings_est.to_string(),
    ]);
    table.row([
        "ISODE (hand-coded)".to_string(),
        format!("{wall_iso:?}"),
        firings_iso.to_string(),
    ]);
    (table, (wall_est, firings_est), (wall_iso, firings_iso))
}

/// Timing rounds per E6 row. Each round times one batch of every
/// variant back to back, so load from concurrent work lands on all
/// variants alike instead of on whichever single batch it overlapped.
const E6_ROUNDS: u32 = 5;

/// E6 — footnote 3: parallel ASN.1 encoding does not pay off.
///
/// Each reported time is the fastest per-encoding batch mean over five
/// interleaved rounds (sequential, then every worker count, per
/// round).
pub fn parallel_asn1_experiment(sizes: &[usize], workers: &[usize]) -> (Table, Vec<Vec<Duration>>) {
    let mut table = Table::new(
        "E6 parallel ASN.1 encoding (sequence-of movie attribute sets)",
        &["elements", "sequential", "2 workers", "4 workers"],
    );
    let mut all = Vec::new();
    for &n in sizes {
        let items: Vec<Value> = (0..n)
            .map(|i| {
                Value::Seq(vec![
                    Value::Str(format!("movie-{i}")),
                    Value::Int(25),
                    Value::Int(i as i64),
                    Value::Bool(i % 2 == 0),
                ])
            })
            .collect();
        let reps = ((200_000 / n.max(1)) as u32 / E6_ROUNDS).clamp(3, 400);
        let time = |f: &dyn Fn() -> Vec<u8>| {
            let t0 = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(f());
            }
            t0.elapsed() / reps
        };
        // Variant 0 is sequential, variant i + 1 runs on workers[i].
        let mut durs = vec![Duration::MAX; workers.len() + 1];
        for _ in 0..E6_ROUNDS {
            for (variant, best) in durs.iter_mut().enumerate() {
                let batch = match variant {
                    0 => time(&|| encode_sequence_of(&items)),
                    v => time(&|| encode_sequence_of_parallel(&items, workers[v - 1])),
                };
                *best = (*best).min(batch);
            }
        }
        let mut row = vec![n.to_string()];
        row.extend(durs.iter().map(|d| format!("{d:?}")));
        table.rows.push(row);
        all.push(durs);
    }
    (table, all)
}

/// E7 — §3: connection-per-processor vs. layer-per-processor.
pub fn conn_vs_layer_experiment(connections: usize, data_requests: u32) -> (Table, f64, f64) {
    let env = build_ps_env(connections, data_requests, 5);
    let trace = run_ps_env(&env, data_requests);
    let overheads = Overheads::ksr1_like();
    let baseline = ksim::simulate_sequential(&trace, overheads);
    let p = connections;
    let by_conn = ksim::simulate(
        &trace,
        GroupingPolicy::ByConnection { units: p as u32 },
        &Machine {
            processors: p,
            overheads,
        },
    );
    let by_layer = ksim::simulate(
        &trace,
        GroupingPolicy::ByLayer { units: p as u32 },
        &Machine {
            processors: p,
            overheads,
        },
    );
    let s_conn = ksim::speedup(&baseline, &by_conn);
    let s_layer = ksim::speedup(&baseline, &by_layer);
    let mut table = Table::new(
        format!("E7 mapping: {connections} connections on {p} processors"),
        &["mapping", "makespan", "speedup", "cross-unit sync time"],
    );
    table.row([
        "connection-per-processor".to_string(),
        by_conn.makespan.to_string(),
        format!("{s_conn:.2}"),
        by_conn.sync_time.to_string(),
    ]);
    table.row([
        "layer-per-processor".to_string(),
        by_layer.makespan.to_string(),
        format!("{s_layer:.2}"),
        by_layer.sync_time.to_string(),
    ]);
    (table, s_conn, s_layer)
}

/// Measured characterization of one protocol class for T1.
#[derive(Debug, Clone)]
pub struct ProtocolProfile {
    /// Mean data rate in kbit/s.
    pub rate_kbps: f64,
    /// Delivered fraction.
    pub reliability: f64,
    /// Mean jitter in microseconds (smoothed interarrival).
    pub jitter_us: f64,
}

/// T1 — Table 1: measured requirements dichotomy between the control
/// protocol (reliable stack) and the CM-stream protocol (lossy
/// isochronous stack).
pub fn table1_experiment(
    stream_loss: f64,
    seconds: u64,
) -> (Table, ProtocolProfile, ProtocolProfile) {
    let mut world = World::builder(2026)
        .stream_link(LinkConfig::lossy(
            SimDuration::from_millis(3),
            SimDuration::from_millis(1),
            stream_loss,
        ))
        .build();
    let server = world.add_server("t1", StackKind::EstellePS);
    let client = world.add_client(&server, StackKind::EstellePS, vec![]);
    world.start();
    let start = world.net.now();
    assert_eq!(
        world.client_op(&client, McamOp::Associate { user: "t1".into() }),
        Some(McamPdu::AssociateRsp { accepted: true })
    );
    let mut entry = MovieEntry::new("T1", "node-x");
    entry.frame_count = seconds * 25;
    world.seed_movie(&server, &entry);
    // Issue a series of control operations (all must succeed -> 100 %
    // reliability on the control path).
    let mut control_ops = 2u64; // associate + select
    let params = match world.client_op(&client, McamOp::SelectMovie { title: "T1".into() }) {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
        other => panic!("{other:?}"),
    };
    let mut receiver = world.receiver_for(&client, &params, SimDuration::from_millis(80));
    assert_eq!(
        world.client_op(&client, McamOp::Play { speed_pct: 100 }),
        Some(McamPdu::PlayRsp { ok: true })
    );
    control_ops += 1;
    // While streaming, keep querying attributes over the control path.
    for _ in 0..10 {
        world.run_for(SimDuration::from_millis(400));
        let rsp = world.client_op(
            &client,
            McamOp::Query {
                title: "T1".into(),
                attrs: vec![],
            },
        );
        assert!(matches!(
            rsp,
            Some(McamPdu::QueryAttrsRsp { attrs: Some(_) })
        ));
        control_ops += 1;
        receiver.poll(world.net.now());
    }
    world.run_for(SimDuration::from_secs(seconds + 1));
    receiver.poll(world.net.now());
    let elapsed = world.net.now().saturating_since(start).as_secs_f64();

    // Control profile from the pipe's endpoint stats.
    let (c_cli, c_srv) = client.ctrl_endpoints;
    let ctrl_bytes =
        world.net.stats(c_cli).bytes_delivered + world.net.stats(c_srv).bytes_delivered;
    let ctrl_delivery =
        (world.net.stats(c_cli).delivery_ratio() + world.net.stats(c_srv).delivery_ratio()) / 2.0;
    let control = ProtocolProfile {
        rate_kbps: ctrl_bytes as f64 * 8.0 / 1000.0 / elapsed,
        reliability: ctrl_delivery,
        jitter_us: 0.0, // constant-delay reliable pipe
    };
    let stream = ProtocolProfile {
        rate_kbps: receiver.stats.bytes as f64 * 8.0 / 1000.0 / elapsed,
        reliability: receiver.stats.delivery_ratio(),
        jitter_us: receiver.stats.jitter_us,
    };
    let mut table = Table::new(
        format!("T1 protocol requirements, measured ({control_ops} control ops, {seconds}s movie)"),
        &["property", "control protocol", "CM stream protocol"],
    );
    table.row([
        "data rate".to_string(),
        format!("{:.1} kbit/s (low)", control.rate_kbps),
        format!("{:.0} kbit/s (high)", stream.rate_kbps),
    ]);
    table.row([
        "reliability".to_string(),
        format!("{:.1}% (100%)", control.reliability * 100.0),
        format!("{:.1}% (<=100%)", stream.reliability * 100.0),
    ]);
    table.row([
        "jitter".to_string(),
        format!("{:.0} us (n/a, async)", control.jitter_us),
        format!("{:.0} us (controlled)", stream.jitter_us),
    ]);
    table.row([
        "timing".to_string(),
        "asynchronous".to_string(),
        "isochronous (playout buffered)".to_string(),
    ]);
    (table, control, stream)
}

/// Result of [`mapping_experiment`]: makespans (µs) per policy plus
/// optimizer statistics.
#[derive(Debug, Clone)]
pub struct MappingOutcome {
    /// Module-per-thread (the generator default).
    pub per_module_us: u64,
    /// Connection-per-processor (the paper's preferred rule).
    pub by_connection_us: u64,
    /// Layer-per-processor (the losing rule of §3).
    pub by_layer_us: u64,
    /// The automatic optimizer of ref \[7\] (`ksim::optimize`).
    pub optimized_us: u64,
    /// Full-trace replays the optimizer spent.
    pub evaluations: usize,
    /// Local-search rounds until the fixed point.
    pub rounds: usize,
}

/// Ablation — the automatic mapping algorithm (paper ref \[7\],
/// "currently under development") against the static policies of §3
/// and §5.2, on a *skewed* per-connection workload where structural
/// policies misplace the load.
pub fn mapping_experiment(requests: &[u32], processors: usize) -> (Table, MappingOutcome) {
    let env = crate::pstack::build_ps_env_mixed(requests, 42);
    let trace = crate::pstack::run_ps_env_mixed(&env, requests);
    let overheads = Overheads::ksr1_like();
    let machine = Machine {
        processors,
        overheads,
    };
    let baseline = ksim::simulate_sequential(&trace, overheads);

    let per_module = ksim::simulate(&trace, GroupingPolicy::PerModule, &machine);
    let by_conn = ksim::simulate(
        &trace,
        GroupingPolicy::ByConnection {
            units: processors as u32,
        },
        &machine,
    );
    let by_layer = ksim::simulate(
        &trace,
        GroupingPolicy::ByLayer {
            units: processors as u32,
        },
        &machine,
    );
    let optimized = ksim::optimize(
        &trace,
        &machine,
        ksim::OptimizeOptions {
            units: processors,
            max_rounds: 6,
        },
    );

    let mut table = Table::new(
        format!(
            "Ablation: automatic mapping (ref [7]) — requests {requests:?} on {processors} CPUs"
        ),
        &["mapping", "makespan", "speedup", "imbalance"],
    );
    for (name, report) in [
        ("module-per-thread", &per_module),
        ("connection-per-processor", &by_conn),
        ("layer-per-processor", &by_layer),
        ("optimizer (ref [7])", &optimized.report),
    ] {
        table.row([
            name.to_string(),
            report.makespan.to_string(),
            format!("{:.2}", ksim::speedup(&baseline, report)),
            format!("{:.2}", report.imbalance()),
        ]);
    }
    table.row([
        "optimizer cost".to_string(),
        format!("{} replays", optimized.evaluations),
        format!("{} rounds", optimized.rounds),
        String::new(),
    ]);

    let outcome = MappingOutcome {
        per_module_us: per_module.makespan.as_micros(),
        by_connection_us: by_conn.makespan.as_micros(),
        by_layer_us: by_layer.makespan.as_micros(),
        optimized_us: optimized.report.makespan.as_micros(),
        evaluations: optimized.evaluations,
        rounds: optimized.rounds,
    };
    (table, outcome)
}

/// Ablation — sensitivity of the E1 speedup to the overhead model:
/// sweeps the cross-thread synchronization cost and reports the
/// module-per-thread speedup on the full machine. Shows *why* the
/// paper's numbers sit at 1.4–2.0: cheap synchronization would have
/// made layer pipelining dominate (speedups well above 2), expensive
/// synchronization erases parallel gains entirely.
pub fn overhead_sensitivity(
    connections: usize,
    data_requests: u32,
    sync_costs_us: &[u64],
) -> (Table, Vec<f64>) {
    let env = build_ps_env(connections, data_requests, 42);
    let trace = run_ps_env(&env, data_requests);
    let mut table = Table::new(
        format!("Ablation: sync-cost sensitivity ({connections} connections, {data_requests} data requests)"),
        &["sync cost", "speedup (module-per-thread, 32 CPUs)"],
    );
    let mut speedups = Vec::new();
    for &sync in sync_costs_us {
        let ov = Overheads {
            sync: SimDuration::from_micros(sync),
            ..Overheads::osf1_threads()
        };
        let base = ksim::simulate_sequential(&trace, ov);
        let par = ksim::simulate(
            &trace,
            GroupingPolicy::PerModule,
            &Machine {
                processors: 32,
                overheads: ov,
            },
        );
        let s = ksim::speedup(&base, &par);
        speedups.push(s);
        table.row([format!("{}us", sync), format!("{s:.2}")]);
    }
    (table, speedups)
}
