//! What one benchmark run records: op latencies, failures, sessions,
//! frames, simulated time, set-up times, the per-layer counters of the
//! traced run, and the correctness checks applied to every episode.

use crate::trace::Tracer;
use bench::CountingAllocator;
use journal::Event;
use mcam::{ClientHandle, McamOp, McamPdu, World};
use mtp::MtpReceiver;
use netsim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;

/// A deliberate corruption of one observed output, used by the
/// self-test to show that each correctness check fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corrupt {
    /// One confirmation is replaced by an `ErrorRsp`.
    Confirm,
    /// One played frame is delivered twice.
    Frames,
    /// One journal event's timestamp is altered before verification.
    Journal,
}

impl Corrupt {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "confirm" => Some(Corrupt::Confirm),
            "frames" => Some(Corrupt::Frames),
            "journal" => Some(Corrupt::Journal),
            _ => None,
        }
    }
}

/// The deterministic outputs of a run's first episode: equal seeds must
/// print equal digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    pub journal_len: usize,
    pub journal_hash: u64,
    pub admitted: u64,
    pub refused: u64,
    pub frames: u64,
    pub firings: u64,
}

impl Digest {
    pub fn line(&self) -> String {
        format!(
            "digest journal_len={} journal_hash={:016x} admitted={} refused={} frames={} firings={}",
            self.journal_len,
            self.journal_hash,
            self.admitted,
            self.refused,
            self.frames,
            self.firings
        )
    }
}

/// The span name of one op kind, and the key its latencies are kept under.
pub fn op_kind(op: &McamOp) -> &'static str {
    match op {
        McamOp::Associate { .. } => "Associate",
        McamOp::Release => "Release",
        McamOp::CreateMovie { .. } => "CreateMovie",
        McamOp::DeleteMovie { .. } => "DeleteMovie",
        McamOp::SelectMovie { .. } => "SelectMovie",
        McamOp::Deselect => "Deselect",
        McamOp::List { .. } => "List",
        McamOp::Query { .. } => "Query",
        McamOp::Modify { .. } => "Modify",
        McamOp::Play { .. } => "Play",
        McamOp::Pause => "Pause",
        McamOp::Stop => "Stop",
        McamOp::Seek { .. } => "Seek",
        McamOp::Record { .. } => "Record",
    }
}

fn op_span(kind: &str) -> &'static str {
    match kind {
        "Associate" => "core.client_op.Associate",
        "List" => "core.client_op.List",
        "SelectMovie" => "core.client_op.SelectMovie",
        "Play" => "core.client_op.Play",
        "Query" => "core.client_op.Query",
        "Stop" => "core.client_op.Stop",
        "Deselect" => "core.client_op.Deselect",
        "Release" => "core.client_op.Release",
        _ => "core.client_op.other",
    }
}

/// Whether `rsp` is the confirmation `op` expects.
pub fn confirms(op: &McamOp, rsp: &Option<McamPdu>) -> bool {
    use McamPdu as P;
    let Some(rsp) = rsp else { return false };
    match op {
        McamOp::Associate { .. } => *rsp == P::AssociateRsp { accepted: true },
        McamOp::Release => *rsp == P::ReleaseRsp,
        McamOp::SelectMovie { .. } => matches!(rsp, P::SelectMovieRsp { params: Some(_) }),
        McamOp::Deselect => *rsp == P::DeselectMovieRsp,
        McamOp::List { .. } => matches!(rsp, P::ListMoviesRsp { .. }),
        McamOp::Query { .. } => matches!(rsp, P::QueryAttrsRsp { attrs: Some(_) }),
        McamOp::Play { .. } => *rsp == P::PlayRsp { ok: true },
        McamOp::Stop => *rsp == P::StopRsp,
        McamOp::Record { .. } => *rsp == P::RecordRsp { ok: true },
        _ => !matches!(rsp, P::ErrorRsp { .. } | P::ReferralRsp { .. }),
    }
}

/// A client's MTP receiver plus the play-out order check.
pub struct Viewer {
    rx: MtpReceiver,
    last_seq: Option<u32>,
}

impl Viewer {
    pub fn new(rx: MtpReceiver) -> Self {
        Viewer { rx, last_seq: None }
    }
}

/// What one episode's measured part did: wall time, simulated time,
/// sessions, frames and ops.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpisodeStat {
    pub measured_ns: u64,
    pub sim_us: u64,
    pub sessions: u64,
    pub frames: u64,
    pub ops: usize,
}

/// Per-layer counters, read from each layer's public stats in the
/// traced run and summed over episodes.
#[derive(Debug, Default)]
pub struct Layers {
    pub firings: u64,
    pub selects: u64,
    pub scan_ns: u64,
    pub action_ns: u64,
    pub firings_by_type: BTreeMap<&'static str, u64>,
    pub ctrl_bytes: u64,
    pub ctrl_packets: u64,
    pub rx_received: u64,
    pub rx_lost: u64,
    pub rx_late: u64,
    pub cache_served: u64,
    pub cache_lookups: u64,
    pub blocks_delivered: u64,
    pub disk_queue_max: u32,
    pub blocks_recorded: u64,
    pub blocks_imported: u64,
    pub rebuild_sim_us: Vec<u64>,
    pub merges: u64,
    pub fast_feeds: u64,
    pub streams_admitted: u64,
    pub route_decisions: u64,
    pub referrals_followed: u64,
    pub copies_completed: u64,
    pub journal_events: u64,
    pub alloc_ops: u64,
    pub alloc_frames: u64,
    /// Wall nanoseconds inside `World::run_for`.
    pub run_for_ns: u64,
    /// Wall nanoseconds inside `World::client_op`.
    pub client_op_ns: u64,
    pub setup_build_ns: Vec<u64>,
    pub setup_start_ns: Vec<u64>,
    pub setup_seed_ns: Vec<u64>,
    pub compile_ns: Vec<u64>,
}

pub struct Recorder {
    pub tracer: Tracer,
    pub corrupt: Option<Corrupt>,
    /// Wall nanoseconds of every `World::client_op` call.
    pub op_ns: Vec<u64>,
    pub op_ns_by_kind: BTreeMap<&'static str, Vec<u64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-check violations (a run with any is not correct).
    pub violations: Vec<String>,
    pub sessions: u64,
    pub frames: u64,
    /// Frames played in the current episode.
    episode_frames: u64,
    /// Simulated microseconds the episodes advanced.
    pub sim_us: u64,
    /// Wall nanoseconds of the episodes' measured parts.
    pub measured_ns: u64,
    /// Wall nanoseconds of every set-up: build, compile, start, seed.
    pub setup_ns: Vec<u64>,
    pub digest: Option<Digest>,
    pub episodes: Vec<EpisodeStat>,
    pub layers: Layers,
}

impl Recorder {
    pub fn new(trace: bool, corrupt: Option<Corrupt>) -> Self {
        Recorder {
            tracer: Tracer::new(trace),
            corrupt,
            op_ns: Vec::new(),
            op_ns_by_kind: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            sessions: 0,
            frames: 0,
            episode_frames: 0,
            sim_us: 0,
            measured_ns: 0,
            setup_ns: Vec::new(),
            digest: None,
            episodes: Vec::new(),
            layers: Layers::default(),
        }
    }

    pub fn tracing(&self) -> bool {
        self.tracer.on()
    }

    /// One confirmed MCAM op through `World::client_op`, timed and
    /// checked against its expected confirmation.
    pub fn op(&mut self, world: &World, client: &ClientHandle, op: McamOp) -> Option<McamPdu> {
        let kind = op_kind(&op);
        let expected = op.clone();
        let open = self.tracer.enter(op_span(kind));
        let allocs = CountingAllocator::allocations();
        let t0 = Instant::now();
        let mut rsp = world.client_op(client, op);
        let ns = t0.elapsed().as_nanos() as u64;
        self.layers.alloc_ops += CountingAllocator::allocations() - allocs;
        self.tracer.exit(open);
        self.layers.client_op_ns += ns;
        self.op_ns.push(ns);
        self.op_ns_by_kind.entry(kind).or_default().push(ns);
        self.attempted += 1;
        if self.corrupt == Some(Corrupt::Confirm) && self.attempted == 5 {
            rsp = Some(McamPdu::ErrorRsp {
                code: 500,
                message: "corrupted by the self-test".into(),
            });
        }
        if !confirms(&expected, &rsp) {
            self.failed += 1;
            if self.failed <= 3 {
                eprintln!("op {kind} got {rsp:?}");
            }
        }
        rsp
    }

    /// Counts an op confirmed outside `client_op` (a pushed `Record`).
    pub fn pushed_op_outcome(&mut self, op: &McamOp, rsp: &Option<McamPdu>) {
        self.attempted += 1;
        if !confirms(op, rsp) {
            self.failed += 1;
            if self.failed <= 3 {
                eprintln!("op {} got {rsp:?}", op_kind(op));
            }
        }
    }

    /// Lets the world run for `d` of simulated time.
    pub fn run_for(&mut self, world: &World, d: SimDuration) {
        let open = self.tracer.enter("core.run_for");
        let allocs = CountingAllocator::allocations();
        let t0 = Instant::now();
        world.run_for(d);
        let ns = t0.elapsed().as_nanos() as u64;
        self.layers.alloc_frames += CountingAllocator::allocations() - allocs;
        self.tracer.exit(open);
        self.layers.run_for_ns += ns;
    }

    /// Plays out the frames due at `now` and checks that each arrives in
    /// sequence order and only once.
    pub fn poll(&mut self, viewer: &mut Viewer, now: SimTime) {
        let open = self.tracer.enter("mtp.poll");
        let allocs = CountingAllocator::allocations();
        let mut played = viewer.rx.poll(now);
        self.layers.alloc_frames += CountingAllocator::allocations() - allocs;
        self.tracer.exit(open);
        if self.corrupt == Some(Corrupt::Frames) && self.frames > 0 && !played.is_empty() {
            played.insert(0, played[0].clone());
            self.corrupt = None;
        }
        for frame in &played {
            if viewer.last_seq.is_some_and(|last| frame.seq <= last) {
                self.violations.push(format!(
                    "frame {} played after frame {:?}",
                    frame.seq, viewer.last_seq
                ));
            }
            viewer.last_seq = Some(frame.seq);
        }
        self.frames += played.len() as u64;
        self.episode_frames += played.len() as u64;
    }

    /// Folds a finished viewer's receiver statistics into the counters.
    pub fn retire(&mut self, viewer: Viewer) {
        let s = viewer.rx.stats;
        self.layers.rx_received += s.received;
        self.layers.rx_lost += s.lost;
        self.layers.rx_late += s.late;
    }

    /// Runs a whole set-up, timed into `setup_ns`.
    pub fn time_setup<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let t0 = Instant::now();
        let result = f(self);
        self.setup_ns.push(t0.elapsed().as_nanos() as u64);
        result
    }

    /// Runs one set-up phase, timed into `slot`.
    pub fn phase<R>(
        &mut self,
        name: &'static str,
        slot: fn(&mut Layers) -> &mut Vec<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.tracer.enter(name);
        let t0 = Instant::now();
        let result = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.tracer.exit(open);
        slot(&mut self.layers).push(ns);
        result
    }

    /// The running totals an episode's statistics are measured from.
    pub fn mark(&self) -> EpisodeStat {
        EpisodeStat {
            measured_ns: self.measured_ns,
            sim_us: self.sim_us,
            sessions: self.sessions,
            frames: self.frames,
            ops: self.op_ns.len(),
        }
    }

    /// Closes the measured part of an episode that began at `start`.
    pub fn close_episode(&mut self, start: EpisodeStat, measured_ns: u64, sim_us: u64) {
        self.measured_ns += measured_ns;
        self.sim_us += sim_us;
        let end = self.mark();
        self.episodes.push(EpisodeStat {
            measured_ns: end.measured_ns - start.measured_ns,
            sim_us: end.sim_us - start.sim_us,
            sessions: end.sessions - start.sessions,
            frames: end.frames - start.frames,
            ops: end.ops - start.ops,
        });
    }

    /// The end-of-episode checks and counter reads: the journal's hash
    /// chains verify, every control pipe's traffic is counted, and the
    /// first episode's deterministic outputs become the run's digest.
    pub fn end_episode(&mut self, world: &World, clients: &[ClientHandle]) {
        let open = self.tracer.enter("journal.events");
        let mut events: Vec<Event> = world.journal().events();
        self.tracer.exit(open);
        if self.corrupt == Some(Corrupt::Journal) && !events.is_empty() {
            let mid = events.len() / 2;
            events[mid].sim_time += SimDuration::from_micros(1);
        }
        let open = self.tracer.enter("journal.verify");
        let verdict = journal::verify_events(&events);
        self.tracer.exit(open);
        if let Err(e) = verdict {
            self.violations
                .push(format!("journal chain does not verify: {e:?}"));
        }
        let counters = world.rt.counters();
        let journal = world.journal();
        if self.digest.is_none() {
            self.digest = Some(Digest {
                journal_len: events.len(),
                journal_hash: events.last().map_or(0, |e| e.hash),
                admitted: journal.count(journal::kind::STREAM_ADMIT),
                refused: journal.count(journal::kind::STREAM_REJECT),
                frames: self.episode_frames,
                firings: counters.firings,
            });
        }
        self.episode_frames = 0;
        if !self.tracing() {
            return;
        }
        let l = &mut self.layers;
        l.firings += counters.firings;
        l.selects += counters.selects;
        l.scan_ns += counters.scan_ns;
        l.action_ns += counters.action_ns;
        for client in clients {
            for ep in [client.ctrl_endpoints.0, client.ctrl_endpoints.1] {
                let s = world.net.stats(ep);
                l.ctrl_bytes += s.bytes_sent;
                l.ctrl_packets += s.sent;
            }
        }
        l.journal_events += events.len() as u64;
        l.streams_admitted += journal.count(journal::kind::STREAM_ADMIT);
        l.route_decisions += journal.count(journal::kind::ROUTE_DECISION);
        l.referrals_followed += journal.count(journal::kind::REFERRAL_FOLLOWED);
        l.copies_completed += journal.count(journal::kind::COPY_COMPLETED);
        let mut rebuild_start = None;
        for e in &events {
            match &e.kind {
                journal::EventKind::DiskQueueSample { depth, .. } => {
                    l.disk_queue_max = l.disk_queue_max.max(*depth);
                }
                journal::EventKind::RebuildStarted { .. } => rebuild_start = Some(e.sim_time),
                journal::EventKind::RebuildCompleted { .. } => {
                    if let Some(start) = rebuild_start.take() {
                        l.rebuild_sim_us.push((e.sim_time - start).as_micros());
                    }
                }
                _ => {}
            }
        }
    }

    /// Reads one server's store and share counters (traced run only).
    pub fn read_server(&mut self, server: &mcam::ServerHandle) {
        if !self.tracing() {
            return;
        }
        let open = self.tracer.enter("store.stats");
        let s = server.services.store.stats();
        self.tracer.exit(open);
        let open = self.tracer.enter("share.stats");
        let share = server.services.share.stats();
        self.tracer.exit(open);
        let l = &mut self.layers;
        l.cache_served += s.cache.hits + s.coalesced_reads;
        l.cache_lookups += s.cache.hits + s.cache.misses;
        l.blocks_delivered += s.blocks_delivered;
        l.blocks_recorded += s.blocks_recorded;
        l.blocks_imported += s.blocks_imported;
        l.merges += share.merges;
        l.fast_feeds += share.fast_feeds;
    }

    /// Counts Estelle firings per module type from the runtime's trace
    /// (traced run only; the trace was enabled at set-up).
    pub fn read_firings(&mut self, world: &World) {
        if !self.tracing() {
            return;
        }
        let open = self.tracer.enter("estelle.take_trace");
        let trace = world.rt.take_trace();
        self.tracer.exit(open);
        for record in &trace.records {
            if record.transition != "initialize" {
                *self
                    .layers
                    .firings_by_type
                    .entry(record.module_type)
                    .or_insert(0) += 1;
            }
        }
    }
}
