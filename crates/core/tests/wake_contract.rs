//! The driver's skip rule, end to end. `World::drive` skips its
//! scheduler passes while nothing a transition guard reads has changed
//! and no `delay` has come due. Each test below lets frames flow with
//! no control traffic — the stretch in which passes are skipped — and
//! then changes exactly one wake source, asserting that the driver
//! still reacts:
//!
//! 1. a control PDU arrives through a pipe (both stacks);
//! 2. a recording's last block becomes durable;
//! 3. a `delay` transition comes due;
//! 4. a referral re-dial is handed over through `pending_media`.
//!
//! Debug builds also check every skipped pass directly (the driver
//! panics if a module was enabled). A same-seed journal digest of one
//! fault-heavy run pins the observable behaviour to what it was before
//! the skip rule existed.

use directory::MovieEntry;
use estelle::{ModuleKind, ModuleLabels, StateId, StateMachine, Transition};
use mcam::{ClientHandle, ClusterSpec, McamOp, McamPdu, Placement, ServerRoot, StackKind, World};
use netsim::{LinkConfig, SimDuration, SimTime};
use store::{CachePolicy, DiskParams, StoreConfig};

fn quiet_link() -> LinkConfig {
    LinkConfig::lossy(
        SimDuration::from_millis(2),
        SimDuration::from_micros(500),
        0.0,
    )
}

fn associate(world: &World, client: &ClientHandle, user: &str) {
    let rsp = world.client_op(client, McamOp::Associate { user: user.into() });
    assert_eq!(
        rsp,
        Some(McamPdu::AssociateRsp { accepted: true }),
        "{user}"
    );
}

/// Selects `title` and starts playing it; returns the stream's
/// receiver.
fn play(world: &World, client: &ClientHandle, title: &str) -> mtp::MtpReceiver {
    let params = match world.client_op(
        client,
        McamOp::SelectMovie {
            title: title.into(),
        },
    ) {
        Some(McamPdu::SelectMovieRsp { params: Some(p) }) => p,
        other => panic!("select {title} failed: {other:?}"),
    };
    let receiver = world.receiver_for(client, &params, SimDuration::from_millis(50));
    assert_eq!(
        world.client_op(client, McamOp::Play { speed_pct: 100 }),
        Some(McamPdu::PlayRsp { ok: true })
    );
    receiver
}

/// Runs the world for `d`; returns the transition selections the
/// scheduler made meanwhile.
fn selects_over(world: &World, d: SimDuration) -> u64 {
    let before = world.rt.counters().selects;
    world.run_for(d);
    world.rt.counters().selects - before
}

/// Asserts that the driver skipped its passes: the scheduler made no
/// more selections than a handful of full passes over the modules
/// would. A pass per driver iteration would make one per frame, disk
/// event and datagram.
fn assert_skipped(world: &World, selects: u64) {
    let modules = world.rt.alive_modules().len() as u64;
    assert!(
        selects <= 10 * modules,
        "{selects} selections over {modules} modules while only frames flowed"
    );
}

/// Runs the world for `d` while a stream plays and nothing else
/// happens: frames arrive, and the driver skips its passes.
fn stream_quietly(world: &World, receiver: &mut mtp::MtpReceiver, d: SimDuration) {
    let selects = selects_over(world, d);
    let frames = receiver.poll(world.net.now()).len();
    assert!(frames >= 10, "the stream kept flowing: {frames} frames");
    assert_skipped(world, selects);
}

/// (1) A control PDU arrives while a stream plays: the driver skips
/// its passes as frames flow, then reacts to the pipe delivery at the
/// server and again at the client, and the op confirms.
#[test]
fn control_pdu_wakes_the_driver_on_both_stacks() {
    for stack in [StackKind::EstellePS, StackKind::Isode] {
        let mut world = World::builder(41).stream_link(quiet_link()).build();
        let server = world.add_server("ksr1", stack);
        let client = world.add_client(&server, stack, vec![]);
        world.start();
        associate(&world, &client, "viewer");
        world.client_op(
            &client,
            McamOp::CreateMovie {
                title: "Feature".into(),
                format: "XMovie-24".into(),
                frame_rate: 25,
                frame_count: 600,
            },
        );
        let mut receiver = play(&world, &client, "Feature");
        stream_quietly(&world, &mut receiver, SimDuration::from_secs(1));

        let sent_at = world.net.now();
        let rsp = world.client_op(
            &client,
            McamOp::Query {
                title: "Feature".into(),
                attrs: vec![],
            },
        );
        assert!(
            matches!(rsp, Some(McamPdu::QueryAttrsRsp { .. })),
            "{stack:?}: {rsp:?}"
        );
        let took = world.net.now().saturating_since(sent_at);
        assert!(
            took < SimDuration::from_millis(100),
            "{stack:?}: the query took {took:?} of simulated time"
        );
        stream_quietly(&world, &mut receiver, SimDuration::from_secs(1));
    }
}

/// (2) A recording's last block becomes durable while another viewer's
/// frames flow: the stream provider counts the finished recording, the
/// server MCA's `record-done` guard fires, and the `RecordRsp` arrives.
#[test]
fn finished_recording_wakes_the_driver() {
    let store = StoreConfig {
        disks: 2,
        block_size: 128 * 1024,
        cache_blocks: 64,
        policy: CachePolicy::Interval,
        disk: DiskParams {
            transfer_bytes_per_sec: 400_000,
            ..DiskParams::default()
        },
        ..StoreConfig::default()
    };
    let mut world = World::builder(42)
        .stream_link(quiet_link())
        .store(store)
        .build();
    let server = world.add_server("ksr1", StackKind::EstellePS);
    let recorder = world.add_client(&server, StackKind::EstellePS, vec![]);
    let viewer = world.add_client(&server, StackKind::EstellePS, vec![]);
    world.start();
    associate(&world, &recorder, "rec");
    associate(&world, &viewer, "viewer");
    world.client_op(
        &viewer,
        McamOp::CreateMovie {
            title: "Feature".into(),
            format: "XMovie-24".into(),
            frame_rate: 25,
            frame_count: 1_000,
        },
    );
    let mut receiver = play(&world, &viewer, "Feature");

    // The request reaches the server and capture starts; from then on
    // only frames flow, out to the viewer and into the store, until
    // the last block is durable.
    world.push_op(
        &recorder,
        McamOp::Record {
            title: "Fresh".into(),
            frames: 2 * 25,
        },
    );
    world.run_for(SimDuration::from_millis(300));
    assert_eq!(server.services.sps.recording_count(), 1, "capturing");
    let mut quiet_slices = 0;
    let reply = loop {
        let selects = selects_over(&world, SimDuration::from_millis(200));
        let replies = world.replies(&recorder);
        if let Some(reply) = replies
            .iter()
            .find(|p| matches!(p, McamPdu::RecordRsp { .. } | McamPdu::ErrorRsp { .. }))
        {
            break reply.clone();
        }
        assert_skipped(&world, selects);
        quiet_slices += 1;
        assert!(quiet_slices < 100, "no record reply: {replies:?}");
    };
    assert!(quiet_slices >= 3, "only {quiet_slices} quiet slices");
    assert!(receiver.poll(world.net.now()).len() >= 50, "frames flowed");
    assert_eq!(reply, McamPdu::RecordRsp { ok: true });
    assert_eq!(server.services.sps.recordings_finished(), 1);
    assert_eq!(server.services.sps.recording_count(), 0, "closed");
}

const ALARM: SimDuration = SimDuration::from_millis(300);

/// A module whose one transition is a `delay`: it rings once, `ALARM`
/// after it was created, and notes when.
#[derive(Debug, Default)]
struct Alarm {
    rang_at: Option<SimTime>,
}

impl StateMachine for Alarm {
    fn num_ips(&self) -> usize {
        0
    }

    fn initial_state(&self) -> StateId {
        StateId(0)
    }

    fn transitions() -> Vec<Transition<Self>> {
        vec![
            Transition::spontaneous("ring", StateId(0), |m: &mut Self, ctx, _| {
                m.rang_at = Some(ctx.now());
            })
            .delay(ALARM)
            .to(StateId(1)),
        ]
    }
}

/// (3) A `delay` transition comes due while frames flow: it fires at
/// exactly its deadline, not at the next unrelated wake-up.
#[test]
fn delay_deadline_wakes_the_driver() {
    let mut world = World::builder(43).stream_link(quiet_link()).build();
    let server = world.add_server("ksr1", StackKind::EstellePS);
    let client = world.add_client(&server, StackKind::EstellePS, vec![]);
    world.start();
    associate(&world, &client, "viewer");
    world.client_op(
        &client,
        McamOp::CreateMovie {
            title: "Feature".into(),
            format: "XMovie-24".into(),
            frame_rate: 25,
            frame_count: 600,
        },
    );
    let mut receiver = play(&world, &client, "Feature");
    stream_quietly(&world, &mut receiver, SimDuration::from_millis(500));

    world.rt.enable_dynamic_systems();
    let armed_at = world.net.now();
    let alarm = world
        .rt
        .add_module(
            None,
            "alarm",
            ModuleKind::SystemProcess,
            ModuleLabels::default(),
            Alarm::default(),
        )
        .expect("dynamic system modules enabled");
    stream_quietly(&world, &mut receiver, SimDuration::from_secs(1));
    let rang_at = world
        .rt
        .with_machine::<Alarm, _>(alarm, |a| a.rang_at)
        .expect("alarm module");
    assert_eq!(rang_at, Some(armed_at + ALARM));
}

/// (4) A referral re-dial while another viewer's frames flow: the
/// dialer parks the server end, the driver hands it to the target's
/// root through `pending_media`, and the association completes there.
/// The referring server reaps its abandoned entity when the reap
/// transition's `delay` comes due.
#[test]
fn referral_redial_wakes_the_driver() {
    let mut world = World::builder(44).stream_link(quiet_link()).build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        2,
        StackKind::EstellePS,
        Placement::round_robin(2),
    ));
    let a = cluster.servers[0].services.sps.location();
    let b = cluster.servers[1].services.sps.location();
    let viewer = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    let late = world.add_client(&cluster.servers[0], StackKind::EstellePS, vec![]);
    world.start();
    associate(&world, &viewer, "viewer");
    let mut entry = MovieEntry::new("Feature", "pending");
    entry.frame_count = 1_000;
    world.publish_replicated(&cluster, &entry);
    let mut receiver = play(&world, &viewer, "Feature");
    stream_quietly(&world, &mut receiver, SimDuration::from_secs(1));

    cluster.control.pin(&a, &b);
    associate(&world, &late, "late");
    cluster.control.unpin(&a);
    assert_eq!(world.client_control_location(&late), b);
    assert_eq!(world.client_referrals(&late), (1, 0));

    stream_quietly(&world, &mut receiver, SimDuration::from_secs(1));
    let reaped = world
        .rt
        .with_machine::<ServerRoot, _>(cluster.servers[0].root, |r| r.reaped)
        .expect("server root");
    assert_eq!(reaped, 1, "the referred entity was reaped");
}

/// FNV-1a over the journal's JSONL: one number for every event, its
/// order, time stamp and hash chain.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A run with every kind of fault: a referral at association, a disk
/// death under load, a drain, and a server crash with failover.
/// Returns (journal events, journal digest, firings).
fn fault_heavy_run(seed: u64) -> (usize, u64, u64) {
    let mut world = World::builder(seed).stream_link(quiet_link()).build();
    let cluster = world.add_cluster(ClusterSpec::new(
        "vod",
        3,
        StackKind::EstellePS,
        Placement::round_robin(2),
    ));
    let a = cluster.servers[0].services.sps.location();
    let b = cluster.servers[1].services.sps.location();
    let c = cluster.servers[2].services.sps.location();
    let clients: Vec<_> = (0..4)
        .map(|i| world.add_client(&cluster.servers[i % 3], StackKind::EstellePS, vec![]))
        .collect();
    world.start();
    cluster.control.pin(&a, &b);
    associate(&world, &clients[0], "viewer-0");
    cluster.control.unpin(&a);
    for (i, client) in clients.iter().enumerate().skip(1) {
        associate(&world, client, &format!("viewer-{i}"));
    }
    for title in ["Feature", "Short"] {
        let mut entry = MovieEntry::new(title, "pending");
        entry.frame_count = 300;
        world.publish_replicated(&cluster, &entry);
    }
    let mut receivers: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(i, client)| play(&world, client, ["Feature", "Short"][i % 2]))
        .collect();
    world.run_for(SimDuration::from_secs(1));
    world.fail_disk(&cluster.servers[1], 0);
    world.run_for(SimDuration::from_secs(1));
    cluster.drain(&c).expect("drain accepted");
    world.run_for(SimDuration::from_secs(1));
    world.crash_server(&cluster.servers[1]);
    world.run_for(SimDuration::from_secs(8));
    let frames: usize = receivers
        .iter_mut()
        .map(|r| r.poll(world.net.now()).len())
        .sum();
    assert!(frames > 0, "streams played through the faults");
    let journal = world.journal();
    journal.verify().expect("hash chain intact");
    for tag in [
        journal::kind::REFERRAL_ISSUED,
        journal::kind::DISK_FAILED,
        journal::kind::SERVER_CRASHED,
    ] {
        assert!(journal.count(tag) > 0, "the run journaled {tag}");
    }
    (
        journal.len(),
        fnv1a(&journal.to_jsonl()),
        world.rt.counters().firings,
    )
}

/// The same seed reproduces the fault-heavy run's journal exactly, and
/// that journal is the one the driver produced before it skipped any
/// pass (captured then and pinned here).
#[test]
fn fault_heavy_journal_is_pinned() {
    let run = fault_heavy_run(2024);
    assert_eq!(run, fault_heavy_run(2024), "same seed, same run");
    assert_eq!(run, PINNED, "journal events, digest, firings");
}

/// Captured from the driver without the skip rule (the rebuild queue
/// already in movie-id order).
const PINNED: (usize, u64, u64) = (930, 13_027_305_289_358_654_715, 348);
