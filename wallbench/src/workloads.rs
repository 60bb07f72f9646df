//! The four workloads. Each runs as a sequence of episodes: a fresh
//! world is built (the set-up, timed), driven through its script (the
//! measured part), then checked. Every input is derived from the
//! episode's seed.

use crate::measure::{Recorder, Viewer};
use directory::MovieEntry;
use mcam::{
    ClientHandle, ClusterSpec, McamOp, McamPdu, Placement, ServerHandle, StackKind, World,
    WorldBuilder,
};
use netsim::{SimDuration, SimTime};
use std::time::Instant;
use store::{CachePolicy, DiskParams, DiskSched, StoreConfig};
use workload::{Arrival, Behaviour, CompiledWorkload, Phase, Popularity, TitleSpec, WorkloadSpec};

/// Sizes of every workload. `full` is what the benchmark measures;
/// `tiny` keeps the self-test quick.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Simulated clients of the control workloads.
    pub control_clients: usize,
    /// Sessions each control client runs per episode.
    pub control_sessions: usize,
    /// Viewers of the VoD cluster.
    pub vod_viewers: usize,
    /// Simulated length of one VoD episode.
    pub vod_span: SimDuration,
    /// Viewers playing beside the recorders.
    pub record_viewers: usize,
    /// Concurrent recordings.
    pub recorders: usize,
    /// Frames each recorder captures.
    pub record_frames: u64,
    /// Simulated length of one record episode.
    pub record_span: SimDuration,
}

impl Scale {
    pub const FULL: Scale = Scale {
        control_clients: 24,
        control_sessions: 4,
        vod_viewers: 24,
        vod_span: SimDuration::from_secs(20),
        record_viewers: 8,
        recorders: 4,
        record_frames: 300,
        record_span: SimDuration::from_secs(20),
    };
    pub const TINY: Scale = Scale {
        control_clients: 24,
        control_sessions: 1,
        vod_viewers: 4,
        vod_span: SimDuration::from_secs(3),
        record_viewers: 2,
        recorders: 1,
        record_frames: 50,
        record_span: SimDuration::from_secs(8),
    };
}

/// The workloads, by the name `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ControlEstelle,
    ControlIsode,
    VodCluster,
    RecordRebuild,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ControlEstelle,
        Workload::ControlIsode,
        Workload::VodCluster,
        Workload::RecordRebuild,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ControlEstelle => "control_estelle",
            Workload::ControlIsode => "control_isode",
            Workload::VodCluster => "vod_cluster",
            Workload::RecordRebuild => "record_rebuild",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Builds the episode's world without driving it.
    pub fn setup(self, rec: &mut Recorder, seed: u64, scale: &Scale) -> Episode {
        match self {
            Workload::ControlEstelle => control_setup(rec, StackKind::EstellePS, seed, scale),
            Workload::ControlIsode => control_setup(rec, StackKind::Isode, seed, scale),
            Workload::VodCluster => vod_setup(rec, seed, scale),
            Workload::RecordRebuild => record_setup(rec, seed, scale),
        }
    }

    /// Builds, drives and checks one episode.
    pub fn episode(self, rec: &mut Recorder, seed: u64, scale: &Scale) {
        let episode = self.setup(rec, seed, scale);
        let start = rec.mark();
        let sim0 = episode.world.net.now();
        let t0 = Instant::now();
        match self {
            Workload::ControlEstelle | Workload::ControlIsode => {
                control_drive(rec, &episode, scale)
            }
            Workload::VodCluster => vod_drive(rec, &episode, scale),
            Workload::RecordRebuild => record_drive(rec, &episode, scale),
        }
        let measured_ns = t0.elapsed().as_nanos() as u64;
        let sim_us = (episode.world.net.now() - sim0).as_micros();
        rec.close_episode(start, measured_ns, sim_us);
        for server in &episode.servers {
            rec.read_server(server);
        }
        rec.read_firings(&episode.world);
        rec.end_episode(&episode.world, &episode.clients);
    }
}

/// A built world, ready to drive.
pub struct Episode {
    pub world: World,
    pub servers: Vec<ServerHandle>,
    pub clients: Vec<ClientHandle>,
    pub compiled: CompiledWorkload,
}

/// The servers an episode's clients connect to.
enum Topology {
    /// One server speaking `stack`; titles are seeded into its directory.
    Server(StackKind),
    /// An EstellePS cluster of `servers` members; titles are published
    /// on K=2 of them and clients spread over the members round robin.
    Cluster { name: &'static str, servers: usize },
}

/// The timed set-up shared by every workload: compile the spec, build
/// the world (servers and clients), start it, seed the catalogue.
fn build(
    rec: &mut Recorder,
    spec: WorkloadSpec,
    world: WorldBuilder,
    topology: Topology,
    clients: usize,
) -> Episode {
    rec.time_setup(|rec| {
        let compiled = rec.phase(
            "workload.compile",
            |l| &mut l.compile_ns,
            || {
                spec.compile()
                    .expect("the benchmark's specs are well-formed")
            },
        );
        let (world, servers, cluster, clients) = rec.phase(
            "core.setup.build",
            |l| &mut l.setup_build_ns,
            || {
                let mut world = world.build();
                let (stack, servers, cluster) = match topology {
                    Topology::Server(stack) => (stack, vec![world.add_server("mcam", stack)], None),
                    Topology::Cluster { name, servers } => {
                        let cluster = world.add_cluster(ClusterSpec::new(
                            name,
                            servers,
                            StackKind::EstellePS,
                            Placement::round_robin(2),
                        ));
                        (StackKind::EstellePS, cluster.servers.clone(), Some(cluster))
                    }
                };
                let clients = (0..clients)
                    .map(|i| world.add_client(&servers[i % servers.len()], stack, vec![]))
                    .collect();
                (world, servers, cluster, clients)
            },
        );
        let tracing = rec.tracing();
        rec.phase(
            "core.setup.start",
            |l| &mut l.setup_start_ns,
            || {
                if tracing {
                    world.rt.enable_trace();
                }
                world.start();
            },
        );
        rec.phase(
            "core.setup.seed",
            |l| &mut l.setup_seed_ns,
            || {
                for title in &compiled.titles {
                    match &cluster {
                        Some(cluster) => {
                            let entry = entry(&title.name, "pending", title.frames);
                            world.publish_replicated(cluster, &entry);
                        }
                        None => {
                            let location = servers[0].services.sps.location();
                            let entry = entry(&title.name, &location, title.frames);
                            world.seed_movie(&servers[0], &entry);
                        }
                    }
                }
            },
        );
        Episode {
            world,
            servers,
            clients,
            compiled,
        }
    })
}

fn entry(name: &str, location: &str, frames: u64) -> MovieEntry {
    let mut entry = MovieEntry::new(name, location);
    entry.frame_count = frames;
    entry
}

/// Playout delay of every receiver: above the link's delay plus jitter.
const PLAYOUT: SimDuration = SimDuration::from_millis(50);
/// How often the open-loop workloads poll their receivers.
const POLL: SimDuration = SimDuration::from_millis(100);

// --- control_estelle / control_isode ---------------------------------

fn control_setup(rec: &mut Recorder, stack: StackKind, seed: u64, scale: &Scale) -> Episode {
    let n = scale.control_clients;
    // An 8-title catalogue of short titles; the compiled Zipf draw gives
    // each client the title its first session selects.
    let mut spec = WorkloadSpec::new("control", seed);
    for i in 0..8 {
        spec = spec.title(TitleSpec::new(format!("Short-{i}"), 4, seed + i));
    }
    spec = spec.phase(Phase::new(
        "sessions",
        SimDuration::ZERO,
        Arrival::Flash {
            viewers: n,
            spacing: SimDuration::from_millis(1),
        },
        Popularity::Zipf { exponent: 1.0 },
        Behaviour::Watch,
    ));
    build(rec, spec, World::builder(seed), Topology::Server(stack), n)
}

/// The session every client runs: Associate → List → SelectMovie →
/// Play → Query → Stop → Deselect → Release.
fn session_op(step: usize, user: &str, title: &str) -> McamOp {
    match step {
        0 => McamOp::Associate { user: user.into() },
        1 => McamOp::List {
            contains: String::new(),
        },
        2 => McamOp::SelectMovie {
            title: title.into(),
        },
        3 => McamOp::Play { speed_pct: 100 },
        4 => McamOp::Query {
            title: title.into(),
            attrs: vec![],
        },
        5 => McamOp::Stop,
        6 => McamOp::Deselect,
        _ => McamOp::Release,
    }
}

const SESSION_OPS: usize = 8;

/// `List` with an empty filter must return the whole catalogue.
fn check_list(rec: &mut Recorder, listed: usize, catalogue: usize) {
    if listed != catalogue {
        rec.violations
            .push(format!("List returned {listed} of {catalogue} titles"));
    }
}

/// A closed loop with one op outstanding at a time, round-robin over the
/// clients: every client takes its next session step in turn.
fn control_drive(rec: &mut Recorder, ep: &Episode, scale: &Scale) {
    let world = &ep.world;
    let titles: Vec<&str> = ep.compiled.titles.iter().map(|t| t.name.as_str()).collect();
    let first: Vec<usize> = ep
        .compiled
        .agents
        .iter()
        .map(|a| {
            titles
                .iter()
                .position(|t| *t == a.title)
                .expect("catalogue title")
        })
        .collect();
    let users: Vec<String> = (0..ep.clients.len()).map(|c| format!("user-{c}")).collect();
    let mut viewers: Vec<Option<Viewer>> = (0..ep.clients.len()).map(|_| None).collect();
    let mut failed_before = vec![0; ep.clients.len()];
    for session in 0..scale.control_sessions {
        for step in 0..SESSION_OPS {
            for (c, client) in ep.clients.iter().enumerate() {
                let title = titles[(first[c] + session) % titles.len()];
                if step == 0 {
                    failed_before[c] = rec.failed;
                }
                let rsp = rec.op(world, client, session_op(step, &users[c], title));
                match (step, rsp) {
                    (1, Some(McamPdu::ListMoviesRsp { titles: listed })) => {
                        check_list(rec, listed.len(), titles.len());
                    }
                    (2, Some(McamPdu::SelectMovieRsp { params: Some(p) })) => {
                        viewers[c] = Some(Viewer::new(world.receiver_for(client, &p, PLAYOUT)));
                    }
                    (3..=6, _) => {
                        if let Some(v) = viewers[c].as_mut() {
                            rec.poll(v, world.net.now());
                        }
                        if step == 6 {
                            if let Some(v) = viewers[c].take() {
                                rec.retire(v);
                            }
                        }
                    }
                    (7, _) if rec.failed == failed_before[c] => rec.sessions += 1,
                    _ => {}
                }
            }
        }
    }
}

// --- vod_cluster -------------------------------------------------------

fn vod_setup(rec: &mut Recorder, seed: u64, scale: &Scale) -> Episode {
    let n = scale.vod_viewers;
    let mut spec = WorkloadSpec::new("vod", seed);
    for i in 0..8 {
        spec = spec.title(TitleSpec::new(format!("Feature-{i}"), 120, seed + i));
    }
    spec = spec.phase(Phase::new(
        "viewers",
        SimDuration::from_millis(100),
        Arrival::Ramp {
            viewers: n,
            duration: SimDuration::from_secs(8).min(scale.vod_span / 2),
        },
        Popularity::Zipf { exponent: 1.0 },
        Behaviour::Watch,
    ));
    build(
        rec,
        spec,
        World::builder(seed).share(share::ShareConfig::default()),
        Topology::Cluster {
            name: "vod",
            servers: 4,
        },
        n,
    )
}

/// One viewer's session around a long watch: Associate → List →
/// SelectMovie → Play at its arrival instant, then Query → Stop →
/// Deselect → Release when the episode ends.
struct Watcher {
    client: usize,
    title: String,
    viewer: Option<Viewer>,
    failed_before: u64,
}

fn arrive(rec: &mut Recorder, ep: &Episode, client: usize, title: &str) -> Watcher {
    let world = &ep.world;
    let handle = &ep.clients[client];
    let failed_before = rec.failed;
    let user = format!("viewer-{client}");
    let mut viewer = None;
    for step in 0..4 {
        match rec.op(world, handle, session_op(step, &user, title)) {
            Some(McamPdu::ListMoviesRsp { titles }) => {
                check_list(rec, titles.len(), ep.compiled.titles.len());
            }
            Some(McamPdu::SelectMovieRsp { params: Some(p) }) => {
                viewer = Some(Viewer::new(world.receiver_for(handle, &p, PLAYOUT)));
            }
            _ => {}
        }
    }
    Watcher {
        client,
        title: title.to_string(),
        viewer,
        failed_before,
    }
}

fn leave(rec: &mut Recorder, ep: &Episode, mut w: Watcher) {
    let world = &ep.world;
    let handle = &ep.clients[w.client];
    let user = format!("viewer-{}", w.client);
    for step in 4..SESSION_OPS {
        if step == 6 {
            if let Some(mut v) = w.viewer.take() {
                rec.poll(&mut v, world.net.now());
                rec.retire(v);
            }
        }
        rec.op(world, handle, session_op(step, &user, &w.title));
    }
    if rec.failed == w.failed_before {
        rec.sessions += 1;
    }
}

/// Advances the world to `until` in poll-sized steps, polling every
/// viewer at each step.
fn watch_until(rec: &mut Recorder, world: &World, watchers: &mut [Watcher], until: SimTime) {
    while world.net.now() < until {
        let step = (until - world.net.now()).min(POLL);
        rec.run_for(world, step);
        let now = world.net.now();
        for w in watchers.iter_mut() {
            if let Some(v) = w.viewer.as_mut() {
                rec.poll(v, now);
            }
        }
    }
}

/// An open loop on the virtual clock: each viewer arrives at its
/// compiled instant whatever the program's speed, so a slow program
/// shows as fewer simulated seconds per wall second.
fn vod_drive(rec: &mut Recorder, ep: &Episode, scale: &Scale) {
    let world = &ep.world;
    let origin = world.net.now();
    let mut watchers = Vec::new();
    for (slot, agent) in ep.compiled.agents.iter().enumerate() {
        watch_until(rec, world, &mut watchers, origin + agent.start);
        watchers.push(arrive(rec, ep, slot, &agent.title));
    }
    watch_until(rec, world, &mut watchers, origin + scale.vod_span);
    for w in watchers {
        leave(rec, ep, w);
    }
}

// --- record_rebuild ----------------------------------------------------

/// A small, slow store, so recordings, viewers and the rebuild contend
/// for disk bandwidth.
const RECORD_STORE: StoreConfig = StoreConfig {
    disks: 2,
    block_size: 64 * 1024,
    cache_blocks: 64,
    policy: CachePolicy::Interval,
    disk: DiskParams {
        seek_random: SimDuration::from_micros(5_000),
        seek_sequential: SimDuration::from_micros(500),
        transfer_bytes_per_sec: 4_000_000,
        sched: DiskSched::Scan,
    },
    prefetch_depth: 16,
    readahead_blocks: 32,
    admission_headroom_pct: 85,
    prefetch_hints: true,
};

fn record_setup(rec: &mut Recorder, seed: u64, scale: &Scale) -> Episode {
    let mut spec = WorkloadSpec::new("record", seed);
    for i in 0..4 {
        spec = spec.title(TitleSpec::new(format!("Archive-{i}"), 60, seed + i));
    }
    spec = spec
        .phase(Phase::new(
            "viewers",
            SimDuration::from_millis(100),
            Arrival::Flash {
                viewers: scale.record_viewers,
                spacing: SimDuration::from_millis(250),
            },
            Popularity::Zipf { exponent: 1.0 },
            Behaviour::Watch,
        ))
        .phase(Phase::new(
            "camera",
            SimDuration::from_millis(200),
            Arrival::Flash {
                viewers: scale.recorders,
                spacing: SimDuration::from_millis(400),
            },
            Popularity::Single("Archive-0".into()),
            Behaviour::Record {
                frames: scale.record_frames,
            },
        ));
    build(
        rec,
        spec,
        World::builder(seed).store(RECORD_STORE),
        Topology::Cluster {
            name: "arc",
            servers: 2,
        },
        scale.record_viewers + scale.recorders,
    )
}

/// When the spindle fails, relative to the episode's start.
const DISK_FAILS_AT: SimDuration = SimDuration::from_secs(3);

/// Viewers play beside recorders; one spindle of the first server dies
/// at a fixed instant and its paced rebuild competes with both. A
/// recorder's Associate → Record → Release is not a session: only the
/// viewers' 8-op sessions count.
fn record_drive(rec: &mut Recorder, ep: &Episode, scale: &Scale) {
    let world = &ep.world;
    let origin = world.net.now();
    let mut watchers = Vec::new();
    // (client, the Record op, replies before it)
    let mut recordings: Vec<(usize, McamOp, usize)> = Vec::new();
    let mut disk_failed = false;
    let mut agents = ep.compiled.agents.iter().enumerate().peekable();
    loop {
        let next_arrival = agents.peek().map(|(_, a)| origin + a.start);
        let fail_at = (!disk_failed).then_some(origin + DISK_FAILS_AT);
        let Some(next) = [next_arrival, fail_at].into_iter().flatten().min() else {
            break;
        };
        watch_until(rec, world, &mut watchers, next);
        if fail_at.is_some_and(|t| world.net.now() >= t) {
            let open = rec.tracer.enter("core.fail_disk");
            let (lost, reserve) = world.fail_disk(&ep.servers[0], 0);
            rec.tracer.exit(open);
            if lost == 0 || reserve == 0 {
                rec.violations.push(format!(
                    "disk failure lost {lost} blocks, rebuild reserve {reserve}"
                ));
            }
            disk_failed = true;
        }
        while let Some((slot, agent)) = agents.next_if(|(_, a)| origin + a.start <= world.net.now())
        {
            match &agent.ops[0].op {
                McamOp::Record { .. } => {
                    let handle = &ep.clients[slot];
                    let user = format!("camera-{slot}");
                    rec.op(world, handle, McamOp::Associate { user });
                    let before = world.replies(handle).len();
                    let op = agent.ops[0].op.clone();
                    let open = rec.tracer.enter("core.push_op");
                    world.push_op(handle, op.clone());
                    rec.tracer.exit(open);
                    recordings.push((slot, op, before));
                }
                _ => watchers.push(arrive(rec, ep, slot, &agent.title)),
            }
        }
    }
    watch_until(rec, world, &mut watchers, origin + scale.record_span);
    for (slot, op, before) in recordings {
        let handle = &ep.clients[slot];
        let rsp = world.replies(handle).get(before).cloned();
        rec.pushed_op_outcome(&op, &rsp);
        rec.op(world, handle, McamOp::Release);
    }
    for w in watchers {
        leave(rec, ep, w);
    }
    if world.journal().count(journal::kind::REBUILD_COMPLETED) == 0 {
        rec.violations
            .push("the rebuild did not complete within the episode".into());
    }
}
