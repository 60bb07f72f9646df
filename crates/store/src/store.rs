//! The block store: striped disks + buffer cache + per-stream
//! prefetchers + admission control, composed behind one handle —
//! and, since the write path landed, recording sessions that allocate
//! free blocks, stage dirty blocks through the cache, and queue
//! writes on the same elevator/SCAN disk queues as playback reads.

use crate::admission::{AdmissionController, AdmissionStats, Rejection};
use crate::alloc::BlockAllocator;
use crate::cache::{BlockKey, BufferCache, CachePolicy, CacheStats};
use crate::disk::{Disk, DiskParams, DiskStats, IoKind};
use crate::layout::{BlockAddr, BlockMap, MovieId, StripeLayout};
use journal::{kind, AdmissionClass, EventKind, Journal};
use mtp::MovieSource;
use netsim::{SimDuration, SimTime};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Configuration of a server's storage subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Number of disks in the stripe set.
    pub disks: usize,
    /// Block size in bytes.
    pub block_size: u32,
    /// Buffer-cache capacity in blocks.
    pub cache_blocks: usize,
    /// Buffer-cache replacement policy.
    pub policy: CachePolicy,
    /// Per-disk cost model.
    pub disk: DiskParams,
    /// Maximum outstanding block reads per stream. Sized so each disk
    /// of the stripe set holds a run of ~4 adjacent blocks per
    /// stream: the elevator sweep then serves mostly sequential
    /// continuations, which is what the admission model's
    /// 1-random-seek-per-4-blocks amortization assumes
    /// (`tests/scan_calibration.rs` measures it).
    pub prefetch_depth: u32,
    /// How many blocks past the playback position the prefetcher may
    /// run ahead (bounds cache pollution and wasted disk work for
    /// paused or slow streams).
    pub readahead_blocks: u32,
    /// Percentage of the raw disk bandwidth the admission controller
    /// may commit (guards against seek-heavy worst cases).
    pub admission_headroom_pct: u32,
    /// Whether the prefetcher honors [`PrefetchHint`]s from the
    /// session layer. Off, every hinted call degrades to the plain
    /// forward window — the knob the VCR-storm bench flips to measure
    /// what the hints buy.
    pub prefetch_hints: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            disks: 4,
            block_size: 256 * 1024,
            cache_blocks: 512,
            policy: CachePolicy::Interval,
            disk: DiskParams::default(),
            prefetch_depth: 16,
            readahead_blocks: 32,
            admission_headroom_pct: 85,
            prefetch_hints: true,
        }
    }
}

/// Predicted consumption direction of a [`PrefetchHint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefetchDirection {
    /// Playback advances; the prefetcher runs its usual dense window.
    #[default]
    Forward,
    /// The viewer is rewinding (backward-seek storm): blocks *behind*
    /// the playback base are worth caching.
    Backward,
}

/// A trick-mode prediction the session layer threads into the
/// prefetcher: which way the viewer's next repositioning will go and
/// how far (in blocks) each jump lands.
///
/// The default (`Forward`, stride 1) reproduces the unhinted
/// prefetcher exactly. A forward hint with stride *s* widens the
/// read-ahead horizon *s*-fold so repeated forward jumps land inside
/// prefetched ground; a backward hint arms a bounded strided sweep
/// behind the playback base that fills the cache for the next rewind
/// without ever touching the forward pipeline's delivery accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchHint {
    /// Predicted direction of the next repositioning.
    pub direction: PrefetchDirection,
    /// Predicted jump width in blocks (clamped to at least 1).
    pub stride: u32,
}

impl Default for PrefetchHint {
    fn default() -> Self {
        PrefetchHint::forward(1)
    }
}

impl PrefetchHint {
    /// A forward hint: stride 1 is the plain dense window, larger
    /// strides widen the horizon for repeated forward jumps.
    pub fn forward(stride: u32) -> Self {
        PrefetchHint {
            direction: PrefetchDirection::Forward,
            stride: stride.max(1),
        }
    }

    /// A backward hint for rewind storms jumping `stride` blocks back.
    pub fn backward(stride: u32) -> Self {
        PrefetchHint {
            direction: PrefetchDirection::Backward,
            stride: stride.max(1),
        }
    }

    /// True for the hint that reproduces unhinted behavior.
    pub fn is_default(&self) -> bool {
        *self == PrefetchHint::default()
    }
}

impl StoreConfig {
    /// Deliverable bandwidth of one disk in bits/second, accounting
    /// for a worst-case seek per block.
    pub fn effective_disk_bps(&self) -> u64 {
        let service = self.disk.service_time(u64::from(self.block_size));
        if service.is_zero() {
            return u64::MAX;
        }
        let bits = u64::from(self.block_size) * 8;
        (bits as f64 / service.as_secs_f64()) as u64
    }

    /// Admissible aggregate bandwidth across all disks (a zero disk
    /// count is clamped to one, matching the stripe set the store
    /// actually builds).
    pub fn capacity_bps(&self) -> u64 {
        let raw = self
            .effective_disk_bps()
            .saturating_mul(self.disks.max(1) as u64);
        raw / 100 * u64::from(self.admission_headroom_pct.min(100))
    }
}

/// Errors surfaced by the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Admission control refused the stream's bandwidth demand.
    AdmissionRejected {
        /// Bandwidth the stream would need, in bits/second.
        demanded_bps: u64,
        /// Bandwidth still uncommitted, in bits/second.
        available_bps: u64,
    },
    /// Unknown movie id.
    UnknownMovie(MovieId),
    /// Unknown stream, recording or copy id.
    UnknownStream(u32),
    /// The recording is still capturing frames or still has queued
    /// writes; it cannot be finalized yet.
    RecordingIncomplete(u32),
    /// The migration copy still has blocks to issue or persist; it
    /// cannot be finalized yet.
    ImportIncomplete(u32),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::AdmissionRejected {
                demanded_bps,
                available_bps,
            } => write!(
                f,
                "admission rejected: stream needs {demanded_bps} bps, {available_bps} bps available"
            ),
            StoreError::UnknownMovie(id) => write!(f, "unknown {id}"),
            StoreError::UnknownStream(id) => write!(f, "unknown stream {id}"),
            StoreError::RecordingIncomplete(id) => {
                write!(f, "recording {id} still capturing or persisting")
            }
            StoreError::ImportIncomplete(id) => {
                write!(f, "import {id} still copying or persisting")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Aggregate counters of the store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreStats {
    /// Cache counters.
    pub cache: CacheStats,
    /// Admission counters: `admitted` and `rejected` count the
    /// `stream_admit` / `stream_reject` events journaled under the
    /// store's actor; `released` is the controller's own tally.
    pub admission: AdmissionStats,
    /// Per-disk counters.
    pub disks: Vec<DiskStats>,
    /// Blocks delivered to streams (from cache or disk).
    pub blocks_delivered: u64,
    /// Block requests served by piggybacking on another stream's
    /// in-flight disk read (no extra disk work).
    pub coalesced_reads: u64,
    /// Streams currently open.
    pub open_streams: usize,
    /// Recordings currently in progress.
    pub recordings_active: usize,
    /// Paced migration copies currently in progress.
    pub imports_active: usize,
    /// Blocks allocated and queued for write by recordings.
    pub blocks_recorded: u64,
    /// Blocks allocated and queued for write by paced migration
    /// copies.
    pub blocks_imported: u64,
    /// Frames appended by recordings.
    pub frames_recorded: u64,
    /// Bandwidth committed, bits/second.
    pub committed_bps: u64,
    /// Bandwidth capacity, bits/second.
    pub capacity_bps: u64,
}

impl StoreStats {
    /// Fraction of block requests that needed no dedicated disk read:
    /// buffer-cache hits plus coalesced in-flight reads.
    pub fn service_hit_ratio(&self) -> f64 {
        let lookups = self.cache.hits + self.cache.misses;
        if lookups == 0 {
            0.0
        } else {
            (self.cache.hits + self.coalesced_reads) as f64 / lookups as f64
        }
    }
}

/// Physical layout of one movie: analytic stripe for published
/// titles, append-built block map for recorded ones.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Layout {
    Striped(StripeLayout),
    Mapped(BlockMap),
}

impl Layout {
    fn locate(&self, index: u64) -> BlockAddr {
        match self {
            Layout::Striped(l) => l.locate(index),
            Layout::Mapped(m) => m.locate(index),
        }
    }

    fn invert(&self, addr: BlockAddr) -> Option<u64> {
        match self {
            Layout::Striped(l) => l.invert(addr),
            Layout::Mapped(m) => m.invert(addr),
        }
    }

    fn block_count(&self) -> u64 {
        match self {
            Layout::Striped(l) => l.block_count(),
            Layout::Mapped(m) => m.block_count(),
        }
    }
}

/// Everything the store knows of a movie but its layout.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    frames_per_block: u64,
    frame_count: u64,
    frame_rate: u32,
    bitrate_bps: u64,
    seed: u64,
}

impl Geometry {
    /// The geometry `source` takes on blocks of `block_size` bytes.
    fn of(source: &MovieSource, block_size: u32) -> Self {
        let bitrate_bps = source.mean_bitrate_bps().max(1);
        let block_bits = u64::from(block_size) * 8;
        Geometry {
            frames_per_block: (block_bits * u64::from(source.frame_rate.max(1)) / bitrate_bps)
                .max(1),
            frame_count: source.frame_count,
            frame_rate: source.frame_rate,
            bitrate_bps,
            seed: source.seed,
        }
    }

    /// Blocks the movie occupies.
    fn blocks(&self) -> u64 {
        self.frame_count.div_ceil(self.frames_per_block).max(1)
    }
}

#[derive(Debug, Clone)]
struct MovieRec {
    layout: Arc<Layout>,
    geo: Geometry,
}

impl MovieRec {
    fn new(layout: Layout, geo: Geometry) -> Self {
        MovieRec {
            layout: Arc::new(layout),
            geo,
        }
    }

    /// Whether this is the movie `source` describes.
    fn matches(&self, source: &MovieSource) -> bool {
        self.geo.seed == source.seed
            && self.geo.frame_count == source.frame_count
            && self.geo.frame_rate == source.frame_rate
    }
}

/// Block-issue window of a paced reservation: enough to keep a short
/// sequential run on the disks without flooding the queues ahead of
/// stream reads.
const PACE_WINDOW: u64 = 8;

/// Migration and rebuild ids live in their own range of the 32-bit
/// stream-id space so they never collide with provider-allocated
/// stream ids (high 16 bits = provider address) in the shared
/// admission table.
const IMPORT_ID_BASE: u32 = 0x4000_0000;

/// Paces a reservation's block writes at its reserved bandwidth: by
/// `now` it may have issued `elapsed · reserve / block_bits + 1`
/// blocks (the first goes out at once), with at most [`PACE_WINDOW`]
/// of them not yet on a platter, so the writes share the elevator
/// queues with stream reads instead of flooding them.
#[derive(Debug)]
struct Pacer {
    reserve_bps: u64,
    block_bits: u64,
    started: SimTime,
}

impl Pacer {
    fn new(reserve_bps: u64, block_size: u32, now: SimTime) -> Self {
        Pacer {
            reserve_bps,
            block_bits: u64::from(block_size) * 8,
            started: now,
        }
    }

    /// Whether block number `issued` may go out at `now`, `durable` of
    /// the earlier ones having landed.
    fn allows(&self, now: SimTime, issued: u64, durable: u64) -> bool {
        let elapsed_us = u128::from(now.saturating_since(self.started).as_micros());
        let allowed_bits = elapsed_us * u128::from(self.reserve_bps) / 1_000_000;
        let allowed = allowed_bits / u128::from(self.block_bits) + 1;
        issued - durable < PACE_WINDOW && u128::from(issued) < allowed
    }

    /// Earliest instant block number `issued` may go out: the inverse
    /// of the gate in integer microseconds, rounded up so the wake-up
    /// never precedes it. `None` while the window is full — in-flight
    /// writes wake the store through the disks' completion times.
    fn next_issue(&self, issued: u64, durable: u64) -> Option<SimTime> {
        if issued - durable >= PACE_WINDOW {
            return None;
        }
        let next_bits = u128::from(issued) * u128::from(self.block_bits);
        let us = (next_bits * 1_000_000).div_ceil(u128::from(self.reserve_bps.max(1)));
        Some(self.started + SimDuration::from_micros(us as u64))
    }
}

/// A new movie being written into a block map. A recording and a
/// migration copy differ only in who paces the writes: the capture
/// clock or a [`Pacer`]. Finished, the map becomes the movie's layout;
/// closed early, its blocks return to the allocators.
#[derive(Debug)]
struct NewMovie {
    movie: MovieId,
    /// A copy's pace; `None` for a recording.
    pacer: Option<Pacer>,
    map: BlockMap,
    /// Writes that reached a platter, or died with one: the owner must
    /// not wedge waiting for a completion that never comes.
    durable: u64,
    /// Blocks the movie will hold: known up front for a copy (0 when
    /// the movie already lived here), fixed by sealing a recording.
    total: Option<u64>,
    /// A copy's geometry is its source's; a recording counts captured
    /// frames in `frame_count` and settles the rest when it finishes.
    geo: Geometry,
    /// Captured bytes not yet in a block, and in all.
    partial_bytes: u64,
    total_bytes: u64,
}

impl NewMovie {
    fn new(movie: MovieId, pacer: Option<Pacer>, total: Option<u64>, geo: Geometry) -> Self {
        NewMovie {
            movie,
            pacer,
            map: BlockMap::new(),
            durable: 0,
            total,
            geo,
            partial_bytes: 0,
            total_bytes: 0,
        }
    }

    /// Every block issued and on a platter.
    fn is_durable(&self) -> bool {
        self.total
            .is_some_and(|t| self.map.block_count() >= t && self.durable >= t)
    }

    /// The finished movie's geometry: a recording's block fill and
    /// bitrate follow from what it actually captured.
    fn geometry(&self) -> Geometry {
        if self.pacer.is_some() {
            return self.geo;
        }
        let (frames, blocks) = (self.geo.frame_count, self.map.block_count());
        Geometry {
            frames_per_block: if blocks == 0 {
                1
            } else {
                frames.div_ceil(blocks).max(1)
            },
            bitrate_bps: (self.total_bytes * 8 * u64::from(self.geo.frame_rate))
                .checked_div(frames)
                .unwrap_or(1)
                .max(1),
            ..self.geo
        }
    }
}

/// The spindle rebuild: blocks lost with dead disks are reconstructed
/// onto the survivors at its reservation's pace (the data conceptually
/// streams in from replica servers), so the rebuild competes honestly
/// with foreground viewers. A disk dying mid-rebuild adds its blocks
/// to the same queue.
#[derive(Debug)]
struct Rebuild {
    /// The dead disk the rebuild started around.
    disk: usize,
    pacer: Pacer,
    issued: u64,
    durable: u64,
    /// Round-robin cursor over the surviving disks.
    next_disk: usize,
}

/// One user of the stripe set's bandwidth and the work it paces. Its
/// commitment sits in the shared [`AdmissionController`] under the
/// same id (a merged follower or a copy of a resident movie holds
/// none).
#[derive(Debug)]
enum Reservation {
    /// A playback stream and its prefetch cursor.
    Stream(StreamRec),
    /// A recording or a migration copy.
    Write(NewMovie),
    /// The lost-block reconstruction.
    Rebuild(Rebuild),
}

impl Reservation {
    fn as_stream(&self) -> Option<&StreamRec> {
        match self {
            Reservation::Stream(s) => Some(s),
            _ => None,
        }
    }

    fn as_stream_mut(&mut self) -> Option<&mut StreamRec> {
        match self {
            Reservation::Stream(s) => Some(s),
            _ => None,
        }
    }

    fn is_copy(&self) -> bool {
        matches!(self, Reservation::Write(w) if w.pacer.is_some())
    }
}

/// What a finished recording or copy produced, as reported by
/// [`BlockStore::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordingSummary {
    /// The new movie's id (now a registered, streamable movie).
    pub movie: MovieId,
    /// Frames captured.
    pub frame_count: u64,
    /// Capture frame rate.
    pub frame_rate: u32,
    /// Mean bitrate of the captured frames, bits/second.
    pub bitrate_bps: u64,
    /// Blocks the movie occupies on disk.
    pub blocks: u64,
}

#[derive(Debug)]
struct StreamRec {
    movie: MovieId,
    /// Next block the prefetcher will request.
    next_fetch: u64,
    /// First block of the current playback run (reset by seek).
    base_block: u64,
    /// Contiguous blocks delivered starting at `base_block`.
    contiguous: u64,
    /// Blocks delivered out of order, ahead of the contiguous run.
    early: BTreeSet<u64>,
    /// Outstanding disk reads.
    outstanding: u32,
    /// Current playback block position (for interval caching).
    position_block: u64,
    /// Trick-mode prediction from the session layer (default hint =
    /// plain dense forward window).
    hint: PrefetchHint,
    /// Next descending target of the armed backward sweep, if any.
    back_fetch: Option<u64>,
    /// Backward fetches the active sweep may still issue.
    back_budget: u32,
}

impl StreamRec {
    fn new(movie: MovieId) -> Self {
        StreamRec {
            movie,
            next_fetch: 0,
            base_block: 0,
            contiguous: 0,
            early: BTreeSet::new(),
            outstanding: 0,
            position_block: 0,
            hint: PrefetchHint::default(),
            back_fetch: None,
            back_budget: 0,
        }
    }

    /// Arms (or disarms) the backward sweep for the current hint,
    /// starting behind `base`.
    fn arm_sweep(&mut self, base: u64, budget: u32) {
        if self.hint.direction == PrefetchDirection::Backward {
            self.back_fetch = base.checked_sub(u64::from(self.hint.stride.max(1)));
            self.back_budget = budget;
        } else {
            self.back_fetch = None;
            self.back_budget = 0;
        }
    }

    fn deliver(&mut self, block: u64) {
        if block < self.base_block + self.contiguous {
            return; // stale or already-counted (pre-seek) completion
        }
        self.early.insert(block);
        while self.early.remove(&(self.base_block + self.contiguous)) {
            self.contiguous += 1;
        }
    }

    fn ready_through_block(&self) -> u64 {
        self.base_block + self.contiguous
    }
}

/// The stripe set: its disks, one free-block allocator per disk, the
/// disks that have died, and the owner of every queued write.
struct Spindles {
    disks: Vec<Disk>,
    allocators: Vec<BlockAllocator>,
    /// Dead disks: their blocks are unreadable and the allocators are
    /// never asked for them again.
    failed: BTreeSet<usize>,
    /// Reservation owning each queued write, keyed by the write's
    /// physical identity `(disk, movie, offset)`.
    owners: HashMap<(usize, MovieId, u64), u32>,
}

impl Spindles {
    /// First live disk at or after `preferred` (wrapping). Falls back
    /// to `preferred` if every disk is dead, keeping the store usable
    /// until then.
    fn live(&self, preferred: usize) -> usize {
        let disks = self.disks.len();
        let preferred = preferred % disks;
        (0..disks)
            .map(|k| (preferred + k) % disks)
            .find(|d| !self.failed.contains(d))
            .unwrap_or(preferred)
    }

    /// Allocates the next block of `movie`'s `map` on the next live
    /// disk of the movie's stripe order.
    fn place(&mut self, movie: MovieId, map: &mut BlockMap) -> BlockAddr {
        let disk = self.live(movie.0 as usize + map.block_count() as usize);
        let addr = BlockAddr {
            disk,
            offset: self.allocators[disk].alloc(),
        };
        map.push(addr);
        addr
    }

    /// Places the next block of `movie` and queues its write; returns
    /// the block's index.
    fn append(
        &mut self,
        now: SimTime,
        movie: MovieId,
        map: &mut BlockMap,
        bytes: u64,
        owner: Option<u32>,
    ) -> u64 {
        let addr = self.place(movie, map);
        self.disks[addr.disk].enqueue_write(now, movie, addr.offset, bytes);
        if let Some(owner) = owner {
            self.owners.insert((addr.disk, movie, addr.offset), owner);
        }
        map.block_count() - 1
    }
}

struct StoreInner {
    config: StoreConfig,
    movies: HashMap<MovieId, MovieRec>,
    next_movie: u32,
    spindles: Spindles,
    cache: BufferCache,
    admission: AdmissionController,
    /// Every stream, recording, copy and rebuild, keyed by the id its
    /// commitment has in `admission`.
    reservations: HashMap<u32, Reservation>,
    next_import: u32,
    /// Blocks lost with the dead spindles, awaiting reconstruction.
    lost_blocks: VecDeque<(MovieId, u64)>,
    /// Streams waiting on each in-flight disk read (read coalescing:
    /// a second viewer of the same block piggybacks instead of
    /// queueing a duplicate).
    in_flight: HashMap<BlockKey, Vec<u32>>,
    blocks_delivered: u64,
    coalesced_reads: u64,
    blocks_recorded: u64,
    blocks_imported: u64,
    frames_recorded: u64,
    /// Every admission verdict and fault is recorded here under
    /// `actor`'s hash chain; the verdict counts in [`StoreStats`] are
    /// read back from it. A private journal until
    /// [`BlockStore::attach_journal`] wires in the simulation's.
    journal: Arc<Journal>,
    actor: String,
}

impl StoreInner {
    fn record(&self, kind: EventKind) {
        self.journal.record(&self.actor, kind);
    }

    /// Every counter the store keeps itself: all of [`StoreStats`]
    /// but the admission verdicts, which the journal holds.
    fn tallies(&self) -> StoreStats {
        let (mut open_streams, mut recordings_active, mut imports_active) = (0, 0, 0);
        for r in self.reservations.values() {
            match r {
                Reservation::Stream(_) => open_streams += 1,
                Reservation::Write(_) if r.is_copy() => imports_active += 1,
                Reservation::Write(_) => recordings_active += 1,
                Reservation::Rebuild(_) => {}
            }
        }
        StoreStats {
            cache: self.cache.stats,
            admission: AdmissionStats {
                released: self.admission.released(),
                ..AdmissionStats::default()
            },
            disks: self.spindles.disks.iter().map(|d| d.stats).collect(),
            blocks_delivered: self.blocks_delivered,
            coalesced_reads: self.coalesced_reads,
            open_streams,
            recordings_active,
            imports_active,
            blocks_recorded: self.blocks_recorded,
            blocks_imported: self.blocks_imported,
            frames_recorded: self.frames_recorded,
            committed_bps: self.admission.committed_bps(),
            capacity_bps: self.admission.capacity_bps(),
        }
    }

    /// Runs an admission decision and journals its outcome: admits
    /// carry the headroom left *after* committing, rejects the
    /// headroom the demand did not fit into.
    fn admit_journaled(
        &mut self,
        class: AdmissionClass,
        id: u32,
        demanded_bps: u64,
    ) -> Result<(), StoreError> {
        match self.admission.admit(id, demanded_bps) {
            Ok(()) => {
                self.record(EventKind::StreamAdmit {
                    class,
                    stream: id,
                    demanded_bps,
                    available_bps: self.admission.available_bps(),
                });
                Ok(())
            }
            Err(r) => {
                self.record(EventKind::StreamReject {
                    class,
                    stream: id,
                    demanded_bps: r.demanded_bps,
                    available_bps: r.available_bps,
                });
                Err(reject(r))
            }
        }
    }

    /// Admits `demand_bps` for `id` (nothing when 0) and files its
    /// work under the id.
    fn reserve(
        &mut self,
        class: AdmissionClass,
        id: u32,
        demand_bps: u64,
        work: Reservation,
    ) -> Result<(), StoreError> {
        if demand_bps > 0 {
            self.admit_journaled(class, id, demand_bps)?;
        }
        self.reservations.insert(id, work);
        Ok(())
    }

    /// Releases `id`'s commitment and hands back its work; its queued
    /// writes no longer count for anyone.
    fn release(&mut self, id: u32) -> Option<Reservation> {
        self.admission.release(id);
        let work = self.reservations.remove(&id)?;
        if work.as_stream().is_none() {
            self.spindles.owners.retain(|_, owner| *owner != id);
        }
        Some(work)
    }

    /// The registered movie `source` describes.
    fn find(&self, source: &MovieSource) -> Option<MovieId> {
        self.movies
            .iter()
            .find(|(_, rec)| rec.matches(source))
            .map(|(id, _)| *id)
    }

    fn rebuild_id(&self) -> Option<u32> {
        self.reservations
            .iter()
            .find(|(_, r)| matches!(r, Reservation::Rebuild(_)))
            .map(|(id, _)| *id)
    }

    fn consumers(&self) -> Vec<(MovieId, u64)> {
        self.reservations
            .values()
            .filter_map(Reservation::as_stream)
            .map(|s| (s.movie, s.position_block))
            .collect()
    }

    /// Issues prefetch reads for `stream`, up to the configured depth
    /// and no further than the read-ahead horizon past the stream's
    /// playback position.
    ///
    /// Issue is *batched*: once the pipeline is primed, the
    /// prefetcher waits until a full batch of the read-ahead window
    /// has opened before issuing again, instead of trickling one
    /// block per block consumed. A batch puts a run of adjacent
    /// offsets on every disk at once, which is what lets the
    /// elevator sweep serve sequential continuations — the
    /// amortization `DiskParams::expected_seek` credits
    /// (`tests/scan_calibration.rs` measures it). A consumer at the
    /// delivery edge bypasses the gate so batching never adds a
    /// stall.
    fn issue(&mut self, stream_id: u32, now: SimTime) {
        let Some(stream) = self
            .reservations
            .get_mut(&stream_id)
            .and_then(Reservation::as_stream_mut)
        else {
            return;
        };
        let movie = self.movies[&stream.movie].clone();
        // A forward hint's stride widens the horizon so a viewer
        // jumping ahead in fixed steps keeps landing on prefetched
        // ground; the default stride of 1 is the unhinted window.
        let fwd_stride = match stream.hint.direction {
            PrefetchDirection::Forward => u64::from(stream.hint.stride.max(1)),
            PrefetchDirection::Backward => 1,
        };
        let horizon = stream
            .position_block
            .max(stream.base_block)
            .saturating_add(u64::from(self.config.readahead_blocks.max(1)) * fwd_stride);
        let window_end = horizon.min(movie.layout.block_count());
        let window = window_end.saturating_sub(stream.next_fetch);
        let batch = u64::from(
            self.config
                .prefetch_depth
                .clamp(1, self.config.readahead_blocks.max(2) / 2),
        );
        let starving = stream.position_block.max(stream.base_block) >= stream.ready_through_block();
        let tail = window_end >= movie.layout.block_count();
        let gated = !starving && !tail && window < batch;
        while !gated
            && stream.outstanding < self.config.prefetch_depth.max(1)
            && stream.next_fetch < movie.layout.block_count()
            && stream.next_fetch < horizon
        {
            let block = stream.next_fetch;
            let key = BlockKey {
                movie: stream.movie,
                index: block,
            };
            if self.cache.lookup(key) {
                stream.next_fetch += 1;
                stream.deliver(block);
                self.blocks_delivered += 1;
                continue;
            }
            if let Some(waiters) = self.in_flight.get_mut(&key) {
                // Another stream already has this block on order:
                // share the read instead of queueing a duplicate. A
                // stream re-requesting its own in-flight block (seek
                // back into the window) is already on the list.
                if !waiters.contains(&stream_id) {
                    waiters.push(stream_id);
                    stream.outstanding += 1;
                    self.coalesced_reads += 1;
                }
                stream.next_fetch += 1;
                continue;
            }
            let addr = movie.layout.locate(block);
            if self.spindles.failed.contains(&addr.disk) {
                // The block died with its spindle: the stream stalls
                // here until the rebuild relocates it (the relocated
                // copy lands in the cache, unblocking this loop).
                break;
            }
            self.spindles.disks[addr.disk].enqueue(
                now,
                stream.movie,
                addr.offset,
                u64::from(self.config.block_size),
            );
            stream.next_fetch += 1;
            stream.outstanding += 1;
            self.in_flight.insert(key, vec![stream_id]);
        }
        // Backward sweep: a rewind-storm hint pre-reads a strided,
        // budget-bounded window *behind* the playback base so the
        // next backward seek lands on cache-resident blocks. The
        // sweep never touches `next_fetch`/`contiguous` — delivery
        // ignores blocks behind the base — so the forward pipeline's
        // semantics are untouched; it runs after the forward loop, so
        // forward playback always claims the depth slots first.
        if stream.hint.direction == PrefetchDirection::Backward {
            let stride = u64::from(stream.hint.stride.max(1));
            while stream.outstanding < self.config.prefetch_depth.max(1) && stream.back_budget > 0 {
                let Some(block) = stream.back_fetch else {
                    break;
                };
                stream.back_fetch = block.checked_sub(stride);
                stream.back_budget -= 1;
                let key = BlockKey {
                    movie: stream.movie,
                    index: block,
                };
                if self.cache.lookup(key) {
                    continue;
                }
                if let Some(waiters) = self.in_flight.get_mut(&key) {
                    if !waiters.contains(&stream_id) {
                        waiters.push(stream_id);
                        stream.outstanding += 1;
                        self.coalesced_reads += 1;
                    }
                    continue;
                }
                let addr = movie.layout.locate(block);
                if self.spindles.failed.contains(&addr.disk) {
                    continue;
                }
                self.spindles.disks[addr.disk].enqueue(
                    now,
                    stream.movie,
                    addr.offset,
                    u64::from(self.config.block_size),
                );
                stream.outstanding += 1;
                self.in_flight.insert(key, vec![stream_id]);
            }
        }
    }

    /// Completes every disk request due at or before `now`: a read
    /// delivers its block to every stream waiting on it, a write is
    /// credited to the reservation that owns it.
    fn complete_due(&mut self, now: SimTime) -> usize {
        let mut completed = 0;
        // Playback positions cannot change while completions drain, so
        // one snapshot serves every block completed in this pass.
        let consumers = self.consumers();
        for disk_index in 0..self.spindles.disks.len() {
            while let Some((movie, offset, kind)) = self.spindles.disks[disk_index].pop_due(now) {
                completed += 1;
                if kind == IoKind::Write {
                    if let Some(owner) = self.spindles.owners.remove(&(disk_index, movie, offset)) {
                        self.on_write_done(owner, false);
                    }
                    continue;
                }
                let block = self.movies[&movie]
                    .layout
                    .invert(BlockAddr {
                        disk: disk_index,
                        offset,
                    })
                    .expect("disks only serve blocks the layout placed");
                let key = BlockKey {
                    movie,
                    index: block,
                };
                let waiters = self.in_flight.remove(&key).unwrap_or_default();
                self.cache.insert(key, &consumers);
                for stream_id in waiters {
                    if let Some(stream) = self
                        .reservations
                        .get_mut(&stream_id)
                        .and_then(Reservation::as_stream_mut)
                    {
                        stream.outstanding = stream.outstanding.saturating_sub(1);
                        stream.deliver(block);
                        self.blocks_delivered += 1;
                    }
                }
            }
        }
        completed
    }

    /// Credits a write of reservation `owner` that reached a platter
    /// or, when `lost`, died with one. A new movie counts a lost write
    /// durable all the same, so its owner can still seal and finish; a
    /// rebuild un-counts it, because the dead disk's scan queues the
    /// block for reconstruction again.
    fn on_write_done(&mut self, owner: u32, lost: bool) {
        match self.reservations.get_mut(&owner) {
            Some(Reservation::Write(w)) => w.durable += 1,
            Some(Reservation::Rebuild(rb)) if lost => rb.issued -= 1,
            Some(Reservation::Rebuild(rb)) => rb.durable += 1,
            _ => {}
        }
    }

    /// Issues the migration-copy writes their pacers allow by `now`,
    /// copies in ascending id order.
    fn issue_copies(&mut self, now: SimTime) {
        let block_size = u64::from(self.config.block_size);
        let mut ids: Vec<u32> = self
            .reservations
            .iter()
            .filter(|(_, r)| r.is_copy())
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        for id in ids {
            let Some(Reservation::Write(w)) = self.reservations.get_mut(&id) else {
                unreachable!("filtered above");
            };
            let (Some(pacer), Some(total)) = (&w.pacer, w.total) else {
                unreachable!("copies are paced and know their size");
            };
            while w.map.block_count() < total && pacer.allows(now, w.map.block_count(), w.durable) {
                self.spindles
                    .append(now, w.movie, &mut w.map, block_size, Some(id));
                self.blocks_imported += 1;
            }
        }
    }

    /// Issues the reconstruction writes the rebuild's pacer allows by
    /// `now`, then completes the rebuild once nothing is left to
    /// rebuild. Each issued block is relocated in its movie's map to a
    /// fresh offset on a surviving disk and staged through the cache,
    /// so streams stalled on it resume at once while the write drains
    /// to the platter behind them.
    fn advance_rebuild(&mut self, now: SimTime) {
        let Some(id) = self.rebuild_id() else {
            return;
        };
        let block_size = u64::from(self.config.block_size);
        let disks = self.spindles.disks.len();
        let consumers = self.consumers();
        let Some(Reservation::Rebuild(rb)) = self.reservations.get_mut(&id) else {
            unreachable!("found above");
        };
        while rb.pacer.allows(now, rb.issued, rb.durable) {
            let Some((movie, index)) = self.lost_blocks.pop_front() else {
                break;
            };
            let rec = self
                .movies
                .get_mut(&movie)
                .expect("lost blocks name registered movies");
            let Layout::Mapped(map) = Arc::make_mut(&mut rec.layout) else {
                unreachable!("layouts are materialized when a disk fails");
            };
            let disk = self.spindles.live(rb.next_disk);
            // An aborted write can put an offset this movie's analytic
            // stripe also uses back on the free list: skip (and keep
            // taken) any offset the movie already occupies.
            let addr = loop {
                let addr = BlockAddr {
                    disk,
                    offset: self.spindles.allocators[disk].alloc(),
                };
                if map.invert(addr).is_none() {
                    break addr;
                }
            };
            map.replace(index, addr);
            self.cache.insert(BlockKey { movie, index }, &consumers);
            self.spindles.disks[disk].enqueue_write(now, movie, addr.offset, block_size);
            self.spindles.owners.insert((disk, movie, addr.offset), id);
            rb.issued += 1;
            rb.next_disk = (disk + 1) % disks;
        }
        if !self.lost_blocks.is_empty() || rb.issued > rb.durable {
            return;
        }
        let (disk, blocks) = (rb.disk, rb.durable);
        self.release(id);
        self.record(EventKind::RebuildCompleted {
            disk: disk as u32,
            blocks,
        });
    }
}

/// The continuous-media storage subsystem of one server machine.
pub struct BlockStore {
    inner: Mutex<StoreInner>,
}

impl fmt::Debug for BlockStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("BlockStore")
            .field("disks", &inner.spindles.disks.len())
            .field("movies", &inner.movies.len())
            .field("reservations", &inner.reservations.len())
            .finish_non_exhaustive()
    }
}

impl BlockStore {
    /// Creates a store from `config`.
    pub fn new(config: StoreConfig) -> Arc<Self> {
        let disks: Vec<Disk> = (0..config.disks.max(1))
            .map(|_| Disk::new(config.disk))
            .collect();
        let allocators = disks.iter().map(|_| BlockAllocator::new()).collect();
        Arc::new(BlockStore {
            inner: Mutex::new(StoreInner {
                spindles: Spindles {
                    disks,
                    allocators,
                    failed: BTreeSet::new(),
                    owners: HashMap::new(),
                },
                cache: BufferCache::new(config.cache_blocks, config.policy),
                admission: AdmissionController::new(config.capacity_bps()),
                movies: HashMap::new(),
                next_movie: 1,
                reservations: HashMap::new(),
                next_import: IMPORT_ID_BASE,
                lost_blocks: VecDeque::new(),
                in_flight: HashMap::new(),
                blocks_delivered: 0,
                coalesced_reads: 0,
                blocks_recorded: 0,
                blocks_imported: 0,
                frames_recorded: 0,
                journal: Arc::new(Journal::standalone()),
                actor: "store".to_string(),
                config,
            }),
        })
    }

    /// The store's configuration.
    pub fn config(&self) -> StoreConfig {
        self.inner.lock().config
    }

    /// Records into `journal` under `server`'s hash chain instead of
    /// the store's private journal, so one simulation-wide journal
    /// holds every decision.
    ///
    /// # Panics
    ///
    /// When the store's current journal already holds events: the
    /// counts derived from them would be lost.
    pub fn attach_journal(&self, journal: Arc<Journal>, server: impl Into<String>) {
        let mut inner = self.inner.lock();
        assert!(
            inner.journal.is_empty(),
            "attach_journal after the store recorded events: their counts would be lost"
        );
        inner.journal = journal;
        inner.actor = server.into();
    }

    /// Per-disk queue depths (requests waiting plus in service), in
    /// stripe order. Sampled by health snapshots.
    pub fn disk_queue_depths(&self) -> Vec<u32> {
        self.inner
            .lock()
            .spindles
            .disks
            .iter()
            .map(|d| d.pending() as u32)
            .collect()
    }

    /// Registers `movie` on the stripe set and returns its id. A movie
    /// with identical parameters is registered once — repeated selects
    /// of one title share the layout and cache lines, while an edited
    /// title (e.g. a modified frame rate) gets a fresh record so
    /// admission sees its real bandwidth demand.
    pub fn register_movie(&self, movie: &MovieSource) -> MovieId {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if let Some(id) = inner.find(movie) {
            return id;
        }
        let id = MovieId(inner.next_movie);
        inner.next_movie += 1;
        let geo = Geometry::of(movie, inner.config.block_size);
        let layout = if inner.spindles.failed.is_empty() {
            let disks = inner.spindles.disks.len();
            Layout::Striped(StripeLayout::new(
                disks,
                id.0 as usize % disks,
                geo.blocks(),
            ))
        } else {
            // With a spindle down the analytic stripe would place
            // blocks on the dead disk: lay the movie out through the
            // allocators over the survivors instead.
            let mut map = BlockMap::new();
            for _ in 0..geo.blocks() {
                inner.spindles.place(id, &mut map);
            }
            Layout::Mapped(map)
        };
        inner.movies.insert(id, MovieRec::new(layout, geo));
        id
    }

    /// Looks up the registered movie matching `source` without
    /// registering it. The stream-sharing routing tie-break asks
    /// "does this replica already hold the title?" and must not mint
    /// movie ids as a side effect.
    pub fn find_movie(&self, source: &MovieSource) -> Option<MovieId> {
        self.inner.lock().find(source)
    }

    /// The stripe layout of a registered *published* movie (recorded
    /// movies carry an allocated block map instead — see
    /// [`BlockStore::allocation_of`]).
    pub fn layout_of(&self, movie: MovieId) -> Option<StripeLayout> {
        match &*self.inner.lock().movies.get(&movie)?.layout {
            Layout::Striped(l) => Some(*l),
            Layout::Mapped(_) => None,
        }
    }

    /// The allocated physical addresses of a *recorded or imported*
    /// movie, in logical-block order (`None` for published movies
    /// and in-progress recordings).
    pub fn allocation_of(&self, movie: MovieId) -> Option<Vec<BlockAddr>> {
        match &*self.inner.lock().movies.get(&movie)?.layout {
            Layout::Striped(_) => None,
            Layout::Mapped(m) => Some(m.addrs().to_vec()),
        }
    }

    /// Mean bitrate the store attributes to a registered movie.
    pub fn bitrate_of(&self, movie: MovieId) -> Option<u64> {
        self.inner
            .lock()
            .movies
            .get(&movie)
            .map(|m| m.geo.bitrate_bps)
    }

    /// Opens stream `stream_id` over `movie` at `speed_pct`, passing
    /// admission control and starting the prefetch pipeline.
    ///
    /// # Errors
    ///
    /// [`StoreError::AdmissionRejected`] when the bandwidth demand does
    /// not fit; [`StoreError::UnknownMovie`] for unregistered movies.
    pub fn open_stream(
        &self,
        stream_id: u32,
        movie: MovieId,
        speed_pct: u32,
        now: SimTime,
    ) -> Result<(), StoreError> {
        let demand = self
            .demand_for(movie, speed_pct)
            .ok_or(StoreError::UnknownMovie(movie))?;
        self.open_stream_with_demand(stream_id, movie, demand, now)
    }

    /// Opens stream `stream_id` over `movie` charging an explicit
    /// `demand_bps` instead of the movie's nominal demand — the
    /// stream-sharing entry point: a *merged* follower rides its
    /// leader's disk stream and charges 0 (no admission entry at
    /// all), a *fast-feed* follower charges only the catch-up delta.
    /// The prefetch pipeline starts regardless, so the follower is
    /// served from cache (or coalesced onto the leader's in-flight
    /// reads) behind the leader.
    ///
    /// # Errors
    ///
    /// [`StoreError::AdmissionRejected`] when a non-zero demand does
    /// not fit; [`StoreError::UnknownMovie`] for unregistered movies.
    pub fn open_stream_with_demand(
        &self,
        stream_id: u32,
        movie: MovieId,
        demand_bps: u64,
        now: SimTime,
    ) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        if !inner.movies.contains_key(&movie) {
            return Err(StoreError::UnknownMovie(movie));
        }
        let work = Reservation::Stream(StreamRec::new(movie));
        inner.reserve(AdmissionClass::Stream, stream_id, demand_bps, work)?;
        inner.issue(stream_id, now);
        Ok(())
    }

    /// Re-charges an open stream's admission to `demand_bps` without
    /// touching its pipeline: a speed change (see
    /// [`BlockStore::demand_for`]) and the sharing transitions —
    /// leader promotion and group split-out admit a full stream,
    /// fast-feed convergence passes 0 to release the catch-up delta
    /// while the (now merged) stream stays open.
    ///
    /// # Errors
    ///
    /// [`StoreError::AdmissionRejected`] when a non-zero demand does
    /// not fit (the old commitment stays as it was);
    /// [`StoreError::UnknownStream`] for ids that are not open streams.
    pub fn adjust(&self, stream_id: u32, demand_bps: u64) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        if inner
            .reservations
            .get(&stream_id)
            .and_then(Reservation::as_stream)
            .is_none()
        {
            return Err(StoreError::UnknownStream(stream_id));
        }
        if demand_bps == 0 {
            inner.admission.release(stream_id);
            Ok(())
        } else {
            inner.admit_journaled(AdmissionClass::Stream, stream_id, demand_bps)
        }
    }

    /// The nominal admission demand of `movie` at `speed_pct`, in
    /// bits/second.
    pub fn demand_for(&self, movie: MovieId, speed_pct: u32) -> Option<u64> {
        let inner = self.inner.lock();
        let bitrate = inner.movies.get(&movie)?.geo.bitrate_bps;
        Some(demand_bps(bitrate, speed_pct))
    }

    /// The block index holding `frame` of `movie`.
    pub fn block_of_frame(&self, movie: MovieId, frame: u64) -> Option<u64> {
        let inner = self.inner.lock();
        let rec = inner.movies.get(&movie)?;
        Some(frame / rec.geo.frames_per_block)
    }

    /// A stream's current playback position in blocks.
    pub fn stream_position_block(&self, stream_id: u32) -> Option<u64> {
        let inner = self.inner.lock();
        let stream = inner.reservations.get(&stream_id)?.as_stream()?;
        Some(stream.position_block)
    }

    /// Bandwidth currently committed for one stream, recording, copy
    /// or rebuild (`None` when the id holds no admission entry — e.g.
    /// a merged follower).
    pub fn stream_demand(&self, stream_id: u32) -> Option<u64> {
        self.inner.lock().admission.demand_of(stream_id)
    }

    /// Replaces the buffer cache's pinned ranges wholesale: blocks of
    /// `movie` with `lo <= index <= hi` are protected from eviction.
    /// The stream-sharing engine pins the span between each merge
    /// group's trailing follower and its leader.
    pub fn set_pinned_ranges(&self, ranges: &[(MovieId, u64, u64)]) {
        self.inner.lock().cache.set_pinned(ranges);
    }

    /// Resident cache blocks currently protected by a pinned range.
    pub fn pinned_block_count(&self) -> usize {
        self.inner.lock().cache.pinned_block_count()
    }

    /// Repositions a stream's prefetcher to the block holding `frame`
    /// carrying the session layer's trick-mode prediction: a backward
    /// hint arms a strided cache-filling sweep behind the new base, a
    /// forward hint with stride > 1 widens the read-ahead horizon, and
    /// the default hint (no prediction) resets any earlier one. With
    /// [`StoreConfig::prefetch_hints`] off the hint is dropped.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownStream`] for unknown ids.
    pub fn seek_stream(
        &self,
        stream_id: u32,
        frame: u64,
        hint: PrefetchHint,
        now: SimTime,
    ) -> Result<(), StoreError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let honor = inner.config.prefetch_hints;
        let budget = inner.config.readahead_blocks.max(1);
        let Some(stream) = inner
            .reservations
            .get_mut(&stream_id)
            .and_then(Reservation::as_stream_mut)
        else {
            return Err(StoreError::UnknownStream(stream_id));
        };
        let rec = &inner.movies[&stream.movie];
        let block = (frame / rec.geo.frames_per_block).min(rec.layout.block_count());
        stream.base_block = block;
        stream.next_fetch = block;
        stream.contiguous = 0;
        stream.early.clear();
        stream.position_block = block;
        stream.hint = if honor { hint } else { PrefetchHint::default() };
        stream.arm_sweep(block, budget);
        inner.issue(stream_id, now);
        Ok(())
    }

    /// Replaces a stream's trick-mode prefetch hint without
    /// repositioning it (the Play-at-speed path). A backward hint
    /// arms its sweep from the current playback base. No-op (beyond
    /// the error check) when [`StoreConfig::prefetch_hints`] is off.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownStream`] for unknown ids.
    pub fn set_prefetch_hint(&self, stream_id: u32, hint: PrefetchHint) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        let honor = inner.config.prefetch_hints;
        let budget = inner.config.readahead_blocks.max(1);
        let Some(stream) = inner
            .reservations
            .get_mut(&stream_id)
            .and_then(Reservation::as_stream_mut)
        else {
            return Err(StoreError::UnknownStream(stream_id));
        };
        if !honor {
            return Ok(());
        }
        stream.hint = hint;
        let base = stream.base_block.max(stream.position_block);
        stream.arm_sweep(base, budget);
        Ok(())
    }

    /// A stream's current trick-mode prefetch hint.
    pub fn prefetch_hint(&self, stream_id: u32) -> Option<PrefetchHint> {
        let inner = self.inner.lock();
        Some(inner.reservations.get(&stream_id)?.as_stream()?.hint)
    }

    /// Closes a stream, recording, copy or rebuild, releasing its
    /// bandwidth (idempotent). An unfinished recording or copy returns
    /// its allocated blocks to the free pool; a closed rebuild leaves
    /// the blocks it has not reconstructed queued for the next one.
    pub fn close(&self, id: u32) {
        let mut inner = self.inner.lock();
        if let Some(Reservation::Write(w)) = inner.release(id) {
            for addr in w.map.addrs() {
                inner.spindles.allocators[addr.disk].release(addr.offset);
            }
        }
    }

    /// Reports a stream's playback position (frame index) so the
    /// interval policy knows where each viewer is.
    pub fn note_position(&self, stream_id: u32, frame: u64) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let Some(stream) = inner
            .reservations
            .get_mut(&stream_id)
            .and_then(Reservation::as_stream_mut)
        else {
            return;
        };
        stream.position_block = frame / inner.movies[&stream.movie].geo.frames_per_block;
    }

    /// Completes due disk requests, tops up every prefetch pipeline,
    /// then issues the paced copy and rebuild writes now due. Returns
    /// the number of requests that completed.
    pub fn pump(&self, now: SimTime) -> usize {
        let mut inner = self.inner.lock();
        let completed = inner.complete_due(now);
        let streams: Vec<u32> = inner
            .reservations
            .iter()
            .filter(|(_, r)| r.as_stream().is_some())
            .map(|(id, _)| *id)
            .collect();
        for id in streams {
            inner.issue(id, now);
        }
        inner.issue_copies(now);
        inner.advance_rebuild(now);
        completed
    }

    /// Earliest pending disk completion or paced write issue, if any.
    pub fn next_event(&self) -> Option<SimTime> {
        let inner = self.inner.lock();
        let disk_next = inner
            .spindles
            .disks
            .iter()
            .filter_map(Disk::next_completion)
            .min();
        let paced_next = inner
            .reservations
            .values()
            .filter_map(|r| match r {
                Reservation::Write(w) if w.map.block_count() < w.total.unwrap_or(0) => {
                    w.pacer.as_ref()?.next_issue(w.map.block_count(), w.durable)
                }
                Reservation::Rebuild(rb) if !inner.lost_blocks.is_empty() => {
                    rb.pacer.next_issue(rb.issued, rb.durable)
                }
                _ => None,
            })
            .min();
        disk_next.into_iter().chain(paced_next).min()
    }

    /// Number of frames (from the stream's current playback run)
    /// whose blocks have been delivered: the sender may emit frames
    /// with index strictly below this.
    pub fn frames_ready_through(&self, stream_id: u32) -> Option<u64> {
        let inner = self.inner.lock();
        let stream = inner.reservations.get(&stream_id)?.as_stream()?;
        let rec = inner.movies.get(&stream.movie)?;
        if stream.ready_through_block() >= rec.layout.block_count() {
            return Some(rec.geo.frame_count);
        }
        Some((stream.ready_through_block() * rec.geo.frames_per_block).min(rec.geo.frame_count))
    }

    /// Opens a recording session `rec_id` whose frames will match
    /// `source` (rate, seed), passing write-bandwidth admission
    /// control: recording commits the source's mean bitrate against
    /// the same disk capacity playback streams draw on, so a server
    /// near saturation refuses the recorder — or, once recording,
    /// refuses the next viewer.
    ///
    /// Returns the id the recorded movie will have once finished.
    ///
    /// # Errors
    ///
    /// [`StoreError::AdmissionRejected`] when the write bandwidth
    /// does not fit.
    pub fn open_recording(&self, rec_id: u32, source: &MovieSource) -> Result<MovieId, StoreError> {
        let mut inner = self.inner.lock();
        let movie = MovieId(inner.next_movie);
        let geo = Geometry {
            frame_count: 0,
            frame_rate: source.frame_rate.max(1),
            ..Geometry::of(source, inner.config.block_size)
        };
        let work = Reservation::Write(NewMovie::new(movie, None, None, geo));
        inner.reserve(AdmissionClass::Recording, rec_id, geo.bitrate_bps, work)?;
        inner.next_movie += 1;
        Ok(movie)
    }

    /// Appends one captured frame of `bytes` to recording `rec_id` at
    /// `now`. Every time a block's worth of frames has accumulated,
    /// the dirty block is staged through the buffer cache (a trailing
    /// viewer of the fresh recording will hit it), a free block is
    /// allocated stripe-append style, and the write joins the disk
    /// queue under the same elevator/SCAN discipline as reads.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownStream`] for unknown or sealed sessions.
    pub fn append_frame(&self, rec_id: u32, bytes: u32, now: SimTime) -> Result<(), StoreError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let consumers = inner.consumers();
        let block_size = u64::from(inner.config.block_size);
        let Some(Reservation::Write(
            w @ NewMovie {
                pacer: None,
                total: None,
                ..
            },
        )) = inner.reservations.get_mut(&rec_id)
        else {
            return Err(StoreError::UnknownStream(rec_id));
        };
        w.partial_bytes += u64::from(bytes);
        w.total_bytes += u64::from(bytes);
        w.geo.frame_count += 1;
        inner.frames_recorded += 1;
        while w.partial_bytes >= block_size {
            w.partial_bytes -= block_size;
            let index = inner
                .spindles
                .append(now, w.movie, &mut w.map, block_size, Some(rec_id));
            let key = BlockKey {
                movie: w.movie,
                index,
            };
            inner.cache.insert(key, &consumers);
            inner.blocks_recorded += 1;
        }
        Ok(())
    }

    /// Seals a recording: capture is over, the partial tail block (if
    /// any) is flushed to disk, and the session's write bandwidth is
    /// released back to admission control. Queued writes keep
    /// draining; [`BlockStore::durable`] reports when the last one
    /// lands. Idempotent.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownStream`] for unknown sessions.
    pub fn seal_recording(&self, rec_id: u32, now: SimTime) -> Result<(), StoreError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let block_size = u64::from(inner.config.block_size);
        let Some(Reservation::Write(w @ NewMovie { pacer: None, .. })) =
            inner.reservations.get_mut(&rec_id)
        else {
            return Err(StoreError::UnknownStream(rec_id));
        };
        if w.total.is_some() {
            return Ok(());
        }
        if w.partial_bytes > 0 {
            // The tail transfer costs only the bytes it holds.
            let tail = std::mem::take(&mut w.partial_bytes).min(block_size);
            inner
                .spindles
                .append(now, w.movie, &mut w.map, tail, Some(rec_id));
            inner.blocks_recorded += 1;
        }
        w.total = Some(w.map.block_count());
        inner.admission.release(rec_id);
        Ok(())
    }

    /// Whether a recording or copy has every block issued and on a
    /// platter (`None` for ids that are neither).
    pub fn durable(&self, id: u32) -> Option<bool> {
        match self.inner.lock().reservations.get(&id)? {
            Reservation::Write(w) => Some(w.is_durable()),
            _ => None,
        }
    }

    /// Finalizes a durable recording or copy into a registered movie:
    /// the block map becomes the movie's layout, the reservation is
    /// released, and a subsequent [`BlockStore::register_movie`] of
    /// the matching source finds the movie, so playback reads the new
    /// blocks. A recording registers the frame count and mean bitrate
    /// it actually captured; a copy of a movie already resident here
    /// reports that movie.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownStream`] for ids that are neither;
    /// [`StoreError::RecordingIncomplete`] while frames are still
    /// arriving or writes are still queued, and
    /// [`StoreError::ImportIncomplete`] while a copy still has blocks
    /// to issue or persist.
    pub fn finish(&self, id: u32) -> Result<RecordingSummary, StoreError> {
        let mut inner = self.inner.lock();
        match inner.reservations.get(&id) {
            Some(Reservation::Write(w)) if w.is_durable() => {}
            Some(Reservation::Write(w)) if w.pacer.is_some() => {
                return Err(StoreError::ImportIncomplete(id))
            }
            Some(Reservation::Write(_)) => return Err(StoreError::RecordingIncomplete(id)),
            _ => return Err(StoreError::UnknownStream(id)),
        }
        let Some(Reservation::Write(w)) = inner.release(id) else {
            unreachable!("checked above");
        };
        let (movie, geo) = (w.movie, w.geometry());
        let rec = inner
            .movies
            .entry(movie)
            .or_insert_with(|| MovieRec::new(Layout::Mapped(w.map), geo));
        Ok(RecordingSummary {
            movie,
            frame_count: rec.geo.frame_count,
            frame_rate: rec.geo.frame_rate,
            bitrate_bps: rec.geo.bitrate_bps,
            blocks: rec.layout.block_count(),
        })
    }

    /// Opens a paced migration copy of `source` onto this store,
    /// reserving `reserve_bps` against the same admission capacity
    /// playback streams draw on: the copy's block writes are issued
    /// at that pace through the free-block allocator and the
    /// elevator/SCAN disk queues, so a migration competes with
    /// concurrent streams instead of teleporting data. Unlike the bulk
    /// [`BlockStore::import_movie`], the copy visibly displaces
    /// streams for its duration. Returns the copy's id; poll
    /// [`BlockStore::durable`] and call [`BlockStore::finish`] when
    /// every block has landed. A source already registered here
    /// completes instantly (nothing to copy) and reserves nothing.
    ///
    /// # Errors
    ///
    /// [`StoreError::AdmissionRejected`] when the reservation does not
    /// fit next to the admitted streams.
    pub fn begin_import(
        &self,
        source: &MovieSource,
        reserve_bps: u64,
        now: SimTime,
    ) -> Result<u32, StoreError> {
        let mut inner = self.inner.lock();
        let id = inner.next_import;
        let geo = Geometry::of(source, inner.config.block_size);
        let reserve_bps = reserve_bps.max(1);
        let pacer = Pacer::new(reserve_bps, inner.config.block_size, now);
        let resident = inner.find(source);
        let (movie, total, demand) = match resident {
            Some(movie) => (movie, 0, 0),
            None => (MovieId(inner.next_movie), geo.blocks(), reserve_bps),
        };
        let work = Reservation::Write(NewMovie::new(movie, Some(pacer), Some(total), geo));
        inner.reserve(AdmissionClass::Import, id, demand, work)?;
        inner.next_import += 1;
        if resident.is_none() {
            inner.next_movie += 1;
            inner.issue_copies(now);
        }
        Ok(id)
    }

    /// Imports a copy of `source` onto this store's disks — the
    /// replication path for recorded movies: blocks are allocated
    /// from the free pool and written through the disk queues (a bulk
    /// background copy; it costs disk time but is not
    /// admission-charged), after which the movie is registered and
    /// streamable from this replica.
    pub fn import_movie(&self, source: &MovieSource, now: SimTime) -> MovieId {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if let Some(id) = inner.find(source) {
            return id;
        }
        let id = MovieId(inner.next_movie);
        inner.next_movie += 1;
        let geo = Geometry::of(source, inner.config.block_size);
        let block_size = u64::from(inner.config.block_size);
        let mut map = BlockMap::new();
        for _ in 0..geo.blocks() {
            inner.spindles.append(now, id, &mut map, block_size, None);
        }
        inner
            .movies
            .insert(id, MovieRec::new(Layout::Mapped(map), geo));
        id
    }

    /// Kills disk `disk` of the stripe set. Queued and in-service
    /// requests on the dead arm are dropped: streams waiting on them
    /// rewind their prefetchers and stall at the first lost block
    /// (until a rebuild relocates it), sessions waiting on dropped
    /// writes are not wedged. Every layout is materialized into an
    /// explicit block map, the blocks resident on the dead spindle are
    /// queued for reconstruction — joining a rebuild already running —
    /// the write-path allocators stop choosing the disk, and admission
    /// capacity shrinks to the surviving disks' share. Existing
    /// commitments are untouched, so the controller may read
    /// over-committed until streams drain.
    ///
    /// Returns the number of blocks lost with the spindle (0 for an
    /// out-of-range or already-dead disk). Idempotent per disk.
    pub fn fail_disk(&self, disk: usize, _now: SimTime) -> u64 {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if disk >= inner.spindles.disks.len() || !inner.spindles.failed.insert(disk) {
            return 0;
        }
        // Unwind the requests that died with the arm.
        for (movie, offset, kind) in inner.spindles.disks[disk].fail() {
            match kind {
                IoKind::Read => {
                    let Some(block) = inner
                        .movies
                        .get(&movie)
                        .and_then(|rec| rec.layout.invert(BlockAddr { disk, offset }))
                    else {
                        continue;
                    };
                    let key = BlockKey {
                        movie,
                        index: block,
                    };
                    for sid in inner.in_flight.remove(&key).unwrap_or_default() {
                        if let Some(s) = inner
                            .reservations
                            .get_mut(&sid)
                            .and_then(Reservation::as_stream_mut)
                        {
                            s.outstanding = s.outstanding.saturating_sub(1);
                            s.next_fetch = s.next_fetch.min(block);
                        }
                    }
                }
                IoKind::Write => {
                    if let Some(owner) = inner.spindles.owners.remove(&(disk, movie, offset)) {
                        inner.on_write_done(owner, true);
                    }
                }
            }
        }
        // Materialize every layout, collect the lost blocks, and
        // reserve the surviving analytic offsets so rebuild
        // allocations can never collide with live blocks.
        let disks_len = inner.spindles.disks.len();
        let mut lost = 0u64;
        let mut high_water = vec![0u64; disks_len];
        let ids: Vec<MovieId> = inner.movies.keys().copied().collect();
        for mid in ids {
            let rec = inner.movies.get_mut(&mid).expect("keyed above");
            let layout = Arc::make_mut(&mut rec.layout);
            if let Layout::Striped(stripe) = layout {
                *layout = Layout::Mapped(BlockMap::from_stripe(stripe));
            }
            let Layout::Mapped(map) = layout else {
                unreachable!("materialized above");
            };
            for (i, addr) in map.addrs().iter().enumerate() {
                if addr.disk == disk {
                    inner.lost_blocks.push_back((mid, i as u64));
                    lost += 1;
                } else {
                    high_water[addr.disk] = high_water[addr.disk].max(addr.offset + 1);
                }
            }
        }
        for (d, hi) in high_water.into_iter().enumerate() {
            inner.spindles.allocators[d].reserve_through(hi);
        }
        // The dead arm delivers nothing: admission capacity shrinks to
        // the survivors' share.
        let live = (disks_len - inner.spindles.failed.len()) as u64;
        let capacity = inner.config.capacity_bps() / disks_len as u64 * live;
        inner.admission.set_capacity_bps(capacity);
        inner.record(EventKind::DiskFailed {
            disk: disk as u32,
            lost_blocks: lost,
        });
        lost
    }

    /// Begins the paced reconstruction of every block lost to failed
    /// disks, reserving `reserve_bps` against the same admission
    /// capacity playback draws on (so rebuild competes honestly with
    /// foreground viewers). Relocated blocks land on surviving disks
    /// and stage through the cache, unblocking stalled streams as the
    /// rebuild sweeps forward; the reservation is released and a
    /// `RebuildCompleted` event journaled when the last block is
    /// durable. Returns the rebuild's admission id — that of the
    /// running rebuild, without a second admission, when one is
    /// already under way (it has taken over the newly lost blocks).
    ///
    /// # Errors
    ///
    /// [`StoreError::AdmissionRejected`] when the reservation does not
    /// fit next to the admitted streams.
    pub fn begin_rebuild(&self, reserve_bps: u64, now: SimTime) -> Result<u32, StoreError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if let Some(id) = inner.rebuild_id() {
            return Ok(id);
        }
        let id = inner.next_import;
        let reserve_bps = reserve_bps.max(1);
        let disk = inner.spindles.failed.last().copied().unwrap_or(0);
        let work = Reservation::Rebuild(Rebuild {
            disk,
            pacer: Pacer::new(reserve_bps, inner.config.block_size, now),
            issued: 0,
            durable: 0,
            next_disk: 0,
        });
        inner.reserve(AdmissionClass::Import, id, reserve_bps, work)?;
        inner.next_import += 1;
        inner.record(EventKind::RebuildStarted {
            disk: disk as u32,
            blocks: inner.lost_blocks.len() as u64,
            reserve_bps,
        });
        inner.advance_rebuild(now);
        Ok(id)
    }

    /// Whether a rebuild is currently reconstructing lost blocks.
    pub fn rebuild_active(&self) -> bool {
        self.inner.lock().rebuild_id().is_some()
    }

    /// Indices of the disks that have died, in order.
    pub fn failed_disks(&self) -> Vec<usize> {
        self.inner.lock().spindles.failed.iter().copied().collect()
    }

    /// Blocks lost to dead spindles still awaiting reconstruction.
    pub fn lost_blocks_pending(&self) -> u64 {
        self.inner.lock().lost_blocks.len() as u64
    }

    /// Bandwidth still available for new streams, bits/second.
    pub fn available_bps(&self) -> u64 {
        self.inner.lock().admission.available_bps()
    }

    /// Snapshot of all counters; the admission verdict counts are
    /// read from the journal.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        let mut stats = inner.tallies();
        let count = |tag| inner.journal.count_for(&inner.actor, tag);
        stats.admission.admitted = count(kind::STREAM_ADMIT);
        stats.admission.rejected = count(kind::STREAM_REJECT);
        stats
    }

    /// [`BlockStore::stats`] without the admission verdict counts
    /// (left zero): only what the store keeps itself, cheap enough for
    /// a load probe sampled on every route.
    pub fn tallies(&self) -> StoreStats {
        self.inner.lock().tallies()
    }
}

fn demand_bps(bitrate_bps: u64, speed_pct: u32) -> u64 {
    bitrate_bps.saturating_mul(u64::from(speed_pct.max(1))) / 100
}

fn reject(r: Rejection) -> StoreError {
    StoreError::AdmissionRejected {
        demanded_bps: r.demanded_bps,
        available_bps: r.available_bps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tiny_config() -> StoreConfig {
        StoreConfig {
            disks: 2,
            block_size: 64 * 1024,
            cache_blocks: 8,
            policy: CachePolicy::Lru,
            prefetch_depth: 2,
            ..StoreConfig::default()
        }
    }

    /// Pumps the store, advancing the stream's playback position to
    /// whatever is ready (an eager consumer), until the whole movie
    /// has been delivered.
    fn drain(store: &BlockStore, stream: u32, frame_count: u64) {
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        while store.frames_ready_through(stream) != Some(frame_count) {
            if let Some(t) = store.next_event() {
                now = now.max(t);
            }
            store.pump(now);
            store.note_position(stream, store.frames_ready_through(stream).unwrap_or(0));
            guard += 1;
            assert!(guard < 100_000, "store did not deliver the movie");
        }
    }

    #[test]
    fn prefetch_delivers_blocks_over_time() {
        let store = BlockStore::new(tiny_config());
        let movie = MovieSource::test_movie(10, 3);
        let id = store.register_movie(&movie);
        store.open_stream(7, id, 100, SimTime::ZERO).unwrap();
        assert_eq!(store.frames_ready_through(7), Some(0));
        // Advance past the first completions.
        let t = store.next_event().expect("reads outstanding");
        store.pump(t);
        assert!(store.frames_ready_through(7).unwrap() > 0);
        drain(&store, 7, movie.frame_count);
    }

    #[test]
    fn register_is_idempotent_per_movie() {
        let store = BlockStore::new(tiny_config());
        let movie = MovieSource::test_movie(5, 9);
        let a = store.register_movie(&movie);
        let b = store.register_movie(&movie);
        assert_eq!(a, b);
        let c = store.register_movie(&MovieSource::test_movie(5, 10));
        assert_ne!(a, c);
        // An edited frame rate is a different movie to the store:
        // admission must see the doubled bandwidth demand.
        let mut faster = MovieSource::test_movie(5, 9);
        faster.frame_rate *= 2;
        let d = store.register_movie(&faster);
        assert_ne!(a, d);
        assert!(store.bitrate_of(d).unwrap() > store.bitrate_of(a).unwrap());
    }

    #[test]
    fn second_viewer_hits_cache() {
        let store = BlockStore::new(StoreConfig {
            cache_blocks: 64,
            ..tiny_config()
        });
        let movie = MovieSource::test_movie(10, 3);
        let id = store.register_movie(&movie);
        store.open_stream(1, id, 100, SimTime::ZERO).unwrap();
        drain(&store, 1, movie.frame_count);
        let misses_before = store.stats().cache.misses;
        // Same movie again: everything is resident.
        store
            .open_stream(2, id, 100, SimTime::from_secs(5))
            .unwrap();
        drain(&store, 2, movie.frame_count);
        let stats = store.stats();
        assert_eq!(
            stats.cache.misses, misses_before,
            "second viewer served from cache"
        );
        assert!(stats.cache.hits > 0);
    }

    #[test]
    fn seek_repositions_pipeline() {
        let store = BlockStore::new(tiny_config());
        let movie = MovieSource::test_movie(60, 4);
        let id = store.register_movie(&movie);
        store.open_stream(3, id, 100, SimTime::ZERO).unwrap();
        store
            .seek_stream(
                3,
                movie.frame_count - 1,
                PrefetchHint::default(),
                SimTime::ZERO,
            )
            .unwrap();
        drain(&store, 3, movie.frame_count);
    }

    /// Pumps every due event, bounded, without advancing playback.
    fn pump_quiet(store: &BlockStore, now: &mut SimTime) {
        for _ in 0..10_000 {
            let Some(t) = store.next_event() else { break };
            *now = (*now).max(t);
            store.pump(*now);
        }
    }

    /// Frames per block of `movie` on `store` (first frame whose
    /// block index is 1).
    fn frames_per_block(store: &BlockStore, movie: MovieId) -> u64 {
        (1..1_000_000)
            .find(|f| store.block_of_frame(movie, *f) == Some(1))
            .expect("movie spans more than one block")
    }

    #[test]
    fn backward_hint_preloads_rewind_target() {
        for hints in [true, false] {
            let store = BlockStore::new(StoreConfig {
                cache_blocks: 256,
                prefetch_hints: hints,
                ..tiny_config()
            });
            let movie = MovieSource::test_movie(120, 6);
            let id = store.register_movie(&movie);
            store.open_stream(9, id, 100, SimTime::ZERO).unwrap();
            let fpb = frames_per_block(&store, id);
            let last_block = store.block_of_frame(id, movie.frame_count - 1).unwrap();
            let stride = (last_block / 4).max(1) as u32;
            let mid_block = last_block / 2;
            let mut now = SimTime::ZERO;
            // Seek to the middle with a backward hint: the sweep
            // pre-reads strided blocks behind the base.
            store
                .seek_stream(9, mid_block * fpb, PrefetchHint::backward(stride), now)
                .unwrap();
            pump_quiet(&store, &mut now);
            // Rewind by one stride: with hints the target block is
            // cache-resident and delivery is immediate.
            let back_block = mid_block - u64::from(stride);
            store
                .seek_stream(9, back_block * fpb, PrefetchHint::backward(stride), now)
                .unwrap();
            let ready = store.frames_ready_through(9).unwrap();
            if hints {
                assert!(
                    ready > back_block * fpb,
                    "swept block should deliver from cache instantly (ready {ready})"
                );
            } else {
                assert_eq!(
                    ready,
                    back_block * fpb,
                    "without hints the rewind target still waits on disk"
                );
                assert!(store.prefetch_hint(9).unwrap().is_default());
            }
        }
    }

    #[test]
    fn rewind_storm_hit_ratio_improves_with_hints() {
        let run = |hints: bool| -> (u64, f64) {
            let store = BlockStore::new(StoreConfig {
                cache_blocks: 512,
                prefetch_hints: hints,
                ..tiny_config()
            });
            let movie = MovieSource::test_movie(180, 6);
            let id = store.register_movie(&movie);
            store.open_stream(4, id, 100, SimTime::ZERO).unwrap();
            let fpb = frames_per_block(&store, id);
            let last_block = store.block_of_frame(id, movie.frame_count - 1).unwrap();
            let stride = (last_block / 12).max(2);
            let mut block = last_block - 1;
            let mut now = SimTime::ZERO;
            while block >= stride {
                store
                    .seek_stream(4, block * fpb, PrefetchHint::backward(stride as u32), now)
                    .unwrap();
                pump_quiet(&store, &mut now);
                block -= stride;
            }
            let stats = store.stats();
            (stats.cache.hits, stats.service_hit_ratio())
        };
        let (hits_on, ratio_on) = run(true);
        let (hits_off, ratio_off) = run(false);
        assert!(
            hits_on > hits_off && ratio_on > ratio_off,
            "rewind storm must hit more with hints: {hits_on}/{ratio_on:.3} vs {hits_off}/{ratio_off:.3}"
        );
    }

    #[test]
    fn forward_hint_widens_readahead_horizon() {
        let run = |stride: u32| -> u64 {
            let store = BlockStore::new(StoreConfig {
                cache_blocks: 512,
                ..tiny_config()
            });
            let movie = MovieSource::test_movie(240, 8);
            let id = store.register_movie(&movie);
            store.open_stream(2, id, 100, SimTime::ZERO).unwrap();
            store
                .set_prefetch_hint(2, PrefetchHint::forward(stride))
                .unwrap();
            let mut now = SimTime::ZERO;
            pump_quiet(&store, &mut now);
            store.stats().blocks_delivered
        };
        // Without advancing playback, fetches are bounded by the
        // horizon: a strided forward hint must widen it.
        assert!(run(4) > run(1));
    }

    #[test]
    fn admission_rejects_over_capacity() {
        // One slow disk: a handful of streams exhausts it.
        let config = StoreConfig {
            disks: 1,
            disk: DiskParams {
                transfer_bytes_per_sec: 1_000_000,
                ..DiskParams::default()
            },
            ..tiny_config()
        };
        let store = BlockStore::new(config);
        let movie = MovieSource::test_movie(30, 5);
        let id = store.register_movie(&movie);
        let mut admitted = 0;
        let mut rejected = None;
        for stream in 0..64 {
            match store.open_stream(stream, id, 100, SimTime::ZERO) {
                Ok(()) => admitted += 1,
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        assert!(admitted >= 1, "at least one stream fits");
        let Some(StoreError::AdmissionRejected {
            demanded_bps,
            available_bps,
        }) = rejected
        else {
            panic!("expected a rejection, got {rejected:?}");
        };
        assert!(demanded_bps > available_bps);
        // Closing a stream frees its bandwidth for a newcomer.
        store.close(0);
        store.open_stream(99, id, 100, SimTime::ZERO).unwrap();
        // A stand-alone store reads its verdict counts back from its
        // private journal.
        let counts = store.stats().admission;
        assert_eq!(
            (counts.admitted, counts.rejected, counts.released),
            (admitted + 1, 1, 1)
        );
    }

    #[test]
    fn admission_counts_are_the_actors_journal_events() {
        let store = BlockStore::new(tiny_config());
        let journal = Arc::new(Journal::standalone());
        store.attach_journal(Arc::clone(&journal), "node-1");
        let id = store.register_movie(&MovieSource::test_movie(10, 1));
        store.open_stream(1, id, 100, SimTime::ZERO).unwrap();
        // Another server's verdict in the same journal is not ours.
        journal.record(
            "node-2",
            EventKind::StreamAdmit {
                class: AdmissionClass::Stream,
                stream: 1,
                demanded_bps: 1,
                available_bps: 1,
            },
        );
        assert_eq!(journal.count(kind::STREAM_ADMIT), 2);
        assert_eq!(store.stats().admission.admitted, 1);
        assert_eq!(
            store.tallies().admission.admitted,
            0,
            "tallies skip the journal"
        );
    }

    #[test]
    #[should_panic(expected = "attach_journal after the store recorded events")]
    fn late_attach_journal_fails_loudly() {
        let store = BlockStore::new(tiny_config());
        let id = store.register_movie(&MovieSource::test_movie(10, 1));
        store.open_stream(1, id, 100, SimTime::ZERO).unwrap();
        store.attach_journal(Arc::new(Journal::standalone()), "node-1");
    }

    #[test]
    fn record_then_play_round_trips() {
        let store = BlockStore::new(tiny_config());
        let source = MovieSource::test_movie(10, 21);
        let movie = store.open_recording(5, &source).unwrap();
        let mut now = SimTime::ZERO;
        for frame in source.frames() {
            store.append_frame(5, frame.size, now).unwrap();
            now += netsim::SimDuration::from_micros(source.frame_interval_us());
        }
        store.seal_recording(5, now).unwrap();
        // Capture is over: the bandwidth is already released.
        let stats = store.stats();
        assert_eq!(stats.committed_bps, 0);
        assert_eq!(stats.frames_recorded, source.frame_count);
        assert!(stats.blocks_recorded > 0);
        // Drain the queued writes, then finalize.
        assert!(matches!(
            store.finish(5),
            Err(StoreError::RecordingIncomplete(5))
        ));
        while store.durable(5) != Some(true) {
            let t = store.next_event().expect("writes queued");
            now = now.max(t);
            store.pump(now);
        }
        let summary = store.finish(5).unwrap();
        assert_eq!(summary.movie, movie);
        assert_eq!(summary.frame_count, source.frame_count);
        assert!(summary.bitrate_bps > 0);
        let alloc = store.allocation_of(movie).expect("recorded movies map");
        assert_eq!(alloc.len() as u64, summary.blocks);
        // Re-registering the matching source finds the recording, and
        // playback delivers every recorded frame back.
        assert_eq!(store.register_movie(&source), movie);
        store.open_stream(9, movie, 100, now).unwrap();
        drain(&store, 9, source.frame_count);
        let writes: u64 = store.stats().disks.iter().map(|d| d.writes).sum();
        assert_eq!(writes, summary.blocks);
    }

    #[test]
    fn import_places_a_streamable_copy() {
        let store = BlockStore::new(tiny_config());
        let source = MovieSource::test_movie(6, 33);
        let movie = store.import_movie(&source, SimTime::ZERO);
        assert_eq!(store.import_movie(&source, SimTime::ZERO), movie);
        let alloc = store.allocation_of(movie).expect("imported movies map");
        assert!(!alloc.is_empty());
        assert_eq!(store.register_movie(&source), movie);
        store.open_stream(4, movie, 100, SimTime::ZERO).unwrap();
        drain(&store, 4, source.frame_count);
    }

    /// Pumps the store along its own event clock until `done`.
    fn pump_until(store: &BlockStore, mut now: SimTime, mut done: impl FnMut() -> bool) -> SimTime {
        let mut guard = 0;
        while !done() {
            if let Some(t) = store.next_event() {
                now = now.max(t);
            }
            store.pump(now);
            guard += 1;
            assert!(guard < 100_000, "store never reached the condition");
        }
        now
    }

    #[test]
    fn paced_import_reserves_bandwidth_and_takes_real_time() {
        let store = BlockStore::new(tiny_config());
        let source = MovieSource::test_movie(10, 41);
        let reserve = source.mean_bitrate_bps();
        let id = store.begin_import(&source, reserve, SimTime::ZERO).unwrap();
        assert_eq!(
            store.stats().committed_bps,
            reserve,
            "the copy charges the same admission capacity streams draw on"
        );
        assert_eq!(store.durable(id), Some(false));
        let done = pump_until(&store, SimTime::ZERO, || store.durable(id) == Some(true));
        // Pacing: copying at the movie's own bitrate takes on the
        // order of the movie's duration, not an instant.
        let floor = source.frame_count as f64 / f64::from(source.frame_rate) * 0.5;
        assert!(
            done.saturating_since(SimTime::ZERO).as_secs_f64() >= floor,
            "copy finished implausibly fast for its reservation"
        );
        let movie = store.finish(id).unwrap().movie;
        assert_eq!(store.stats().committed_bps, 0, "reservation released");
        assert!(store.allocation_of(movie).is_some(), "block-mapped copy");
        // The copy is streamable: the matching source resolves to it.
        assert_eq!(store.register_movie(&source), movie);
        store.open_stream(4, movie, 100, done).unwrap();
        drain(&store, 4, source.frame_count);
    }

    #[test]
    fn import_abort_releases_reservation_and_blocks() {
        let store = BlockStore::new(tiny_config());
        let source = MovieSource::test_movie(10, 42);
        let id = store
            .begin_import(&source, source.mean_bitrate_bps(), SimTime::ZERO)
            .unwrap();
        // Let a few blocks go out, then yank the copy (the migration's
        // target server was removed mid-flight).
        store.pump(SimTime::from_secs(2));
        assert!(store.stats().blocks_imported > 0, "copy underway");
        store.close(id);
        let stats = store.stats();
        assert_eq!(stats.committed_bps, 0, "reservation released on abort");
        assert_eq!(stats.imports_active, 0);
        assert!(store.durable(id).is_none());
        // The freed blocks are reusable: a fresh copy completes.
        let id2 = store
            .begin_import(&source, source.mean_bitrate_bps(), SimTime::from_secs(2))
            .unwrap();
        pump_until(&store, SimTime::from_secs(2), || {
            store.durable(id2) == Some(true)
        });
        store.finish(id2).unwrap();
    }

    #[test]
    fn import_of_a_resident_movie_completes_instantly() {
        let store = BlockStore::new(tiny_config());
        let source = MovieSource::test_movie(5, 43);
        let movie = store.register_movie(&source);
        let id = store
            .begin_import(&source, 1_000_000, SimTime::ZERO)
            .unwrap();
        assert_eq!(store.durable(id), Some(true));
        assert_eq!(store.stats().committed_bps, 0, "nothing reserved");
        assert_eq!(store.finish(id).unwrap().movie, movie);
    }

    #[test]
    fn import_rejected_when_reservation_does_not_fit() {
        let config = StoreConfig {
            disks: 1,
            disk: DiskParams {
                transfer_bytes_per_sec: 150_000,
                ..DiskParams::default()
            },
            ..tiny_config()
        };
        let store = BlockStore::new(config);
        let published = MovieSource::test_movie(30, 5);
        let id = store.register_movie(&published);
        store.open_stream(1, id, 100, SimTime::ZERO).unwrap();
        let err = store
            .begin_import(&MovieSource::test_movie(30, 6), 1_000_000, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, StoreError::AdmissionRejected { .. }), "{err}");
        // Finishing early is refused, unknown ids are surfaced.
        assert!(matches!(
            store.finish(77),
            Err(StoreError::UnknownStream(77))
        ));
    }

    #[test]
    fn abort_recording_frees_blocks_and_bandwidth() {
        let store = BlockStore::new(tiny_config());
        let source = MovieSource::test_movie(10, 8);
        store.open_recording(3, &source).unwrap();
        for frame in source.frames().take(100) {
            store.append_frame(3, frame.size, SimTime::ZERO).unwrap();
        }
        assert!(store.stats().committed_bps > 0);
        store.close(3);
        let stats = store.stats();
        assert_eq!(stats.committed_bps, 0);
        assert_eq!(stats.recordings_active, 0);
        assert!(store.durable(3).is_none());
    }

    #[test]
    fn recording_contends_with_playback_for_admission() {
        // Capacity fits roughly one nominal stream.
        let config = StoreConfig {
            disks: 1,
            disk: DiskParams {
                transfer_bytes_per_sec: 150_000,
                ..DiskParams::default()
            },
            ..tiny_config()
        };
        let store = BlockStore::new(config);
        let published = MovieSource::test_movie(30, 5);
        let id = store.register_movie(&published);
        let rec_source = MovieSource::test_movie(30, 6);
        store.open_recording(1, &rec_source).unwrap();
        // The recorder holds the bandwidth: the viewer is refused.
        let err = store.open_stream(2, id, 100, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, StoreError::AdmissionRejected { .. }));
        // Sealing the recording releases it: the viewer fits again.
        store.seal_recording(1, SimTime::ZERO).unwrap();
        store.open_stream(2, id, 100, SimTime::ZERO).unwrap();
    }

    #[test]
    fn shared_follower_opens_free_and_recharges_on_split() {
        // Capacity fits roughly one nominal stream.
        let config = StoreConfig {
            disks: 1,
            disk: DiskParams {
                transfer_bytes_per_sec: 150_000,
                ..DiskParams::default()
            },
            ..tiny_config()
        };
        let store = BlockStore::new(config);
        let movie = MovieSource::test_movie(30, 5);
        let id = store.register_movie(&movie);
        assert_eq!(store.find_movie(&movie), Some(id));
        assert_eq!(store.find_movie(&MovieSource::test_movie(30, 99)), None);
        store.open_stream(1, id, 100, SimTime::ZERO).unwrap();
        // The disk is full: a second plain open is refused…
        assert!(matches!(
            store.open_stream(2, id, 100, SimTime::ZERO),
            Err(StoreError::AdmissionRejected { .. })
        ));
        // …but a merged follower charges nothing and still opens.
        store
            .open_stream_with_demand(2, id, 0, SimTime::ZERO)
            .unwrap();
        assert_eq!(store.stream_demand(2), None);
        assert_eq!(store.stats().open_streams, 2);
        // Splitting out needs real bandwidth — refused here, and the
        // stream stays open and uncharged.
        let full = store.demand_for(id, 100).unwrap();
        assert!(matches!(
            store.adjust(2, full),
            Err(StoreError::AdmissionRejected { .. })
        ));
        assert_eq!(store.stream_demand(2), None);
        // Once the leader closes, the split fits.
        store.close(1);
        store.adjust(2, full).unwrap();
        assert_eq!(store.stream_demand(2), Some(full));
        // Convergence-style release keeps the stream but frees demand.
        store.adjust(2, 0).unwrap();
        assert_eq!(store.stream_demand(2), None);
        assert_eq!(store.stats().open_streams, 1);
    }

    #[test]
    fn disk_death_rebuild_relocates_lost_blocks() {
        let store = BlockStore::new(tiny_config());
        let journal = Arc::new(Journal::standalone());
        store.attach_journal(journal.clone(), "node-1");
        let movie = MovieSource::test_movie(600, 3);
        let id = store.register_movie(&movie);
        let before: Vec<BlockAddr> = {
            let l = store.layout_of(id).unwrap();
            l.blocks().map(|b| l.locate(b)).collect()
        };
        store.open_stream(1, id, 100, SimTime::ZERO).unwrap();
        let t = store.next_event().unwrap();
        store.pump(t);
        let lost = store.fail_disk(1, t);
        assert!(lost > 0, "a striped movie loses blocks with its spindle");
        assert_eq!(store.fail_disk(1, t), 0, "idempotent per disk");
        assert_eq!(store.failed_disks(), vec![1]);
        assert!(store.layout_of(id).is_none(), "layout materialized");
        assert_eq!(store.lost_blocks_pending(), lost);
        assert_eq!(
            store.stats().capacity_bps,
            tiny_config().capacity_bps() / 2,
            "capacity shrinks to the surviving disk's share"
        );
        let reserve = (store.available_bps() / 2).max(1);
        store.begin_rebuild(reserve, t).unwrap();
        assert!(store.rebuild_active());
        pump_until(&store, t, || !store.rebuild_active());
        assert_eq!(store.lost_blocks_pending(), 0);
        // Lost blocks relocated off the dead disk, survivors
        // untouched, and no address handed out twice.
        let after = store.allocation_of(id).unwrap();
        assert_eq!(after.len(), before.len());
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            if b.disk == 1 {
                assert_ne!(a.disk, 1, "block {i} relocated off the dead disk");
            } else {
                assert_eq!(a, b, "surviving block {i} untouched");
            }
        }
        let distinct: HashSet<&BlockAddr> = after.iter().collect();
        assert_eq!(distinct.len(), after.len());
        // The reservation was released and the fault lifecycle is on
        // the (intact) hash chain.
        assert_eq!(store.stats().committed_bps, store.stream_demand(1).unwrap());
        journal.verify().unwrap();
        assert_eq!(journal.count(journal::kind::DISK_FAILED), 1);
        assert_eq!(journal.count(journal::kind::REBUILD_STARTED), 1);
        assert_eq!(journal.count(journal::kind::REBUILD_COMPLETED), 1);
        // The stalled viewer drains the whole movie from the rebuilt
        // layout.
        drain(&store, 1, movie.frame_count);
    }

    #[test]
    fn rebuild_survives_a_second_spindle_death() {
        for disks in [3, 4] {
            let store = BlockStore::new(StoreConfig {
                disks,
                ..tiny_config()
            });
            let journal = Arc::new(Journal::standalone());
            store.attach_journal(journal.clone(), "node-1");
            let id = store.register_movie(&MovieSource::test_movie(600, 3));
            let t = SimTime::ZERO;
            assert!(store.fail_disk(0, t) > 0);
            let reserve = (store.available_bps() / 2).max(1);
            let rebuild = store.begin_rebuild(reserve, t).unwrap();
            store.pump(store.next_event().unwrap());
            assert!(store.fail_disk(1, t) > 0);
            // A second death asks for a rebuild as well (as
            // `World::fail_disk` does): the running one takes it over.
            let again = store.begin_rebuild((store.available_bps() / 2).max(1), t);
            assert_eq!(
                again,
                Ok(rebuild),
                "{disks} disks: one rebuild, one admission"
            );
            pump_until(&store, t, || !store.rebuild_active());
            assert_eq!(store.lost_blocks_pending(), 0, "{disks} disks");
            let addrs = store.allocation_of(id).unwrap();
            assert!(
                addrs.iter().all(|a| a.disk > 1),
                "{disks} disks: no block left on a dead spindle"
            );
            let distinct: HashSet<&BlockAddr> = addrs.iter().collect();
            assert_eq!(distinct.len(), addrs.len());
            assert_eq!(store.stats().committed_bps, 0, "{disks} disks: released");
            journal.verify().unwrap();
            assert_eq!(journal.count(journal::kind::REBUILD_STARTED), 1);
            assert_eq!(journal.count(journal::kind::REBUILD_COMPLETED), 1);
        }
    }

    #[test]
    fn write_paths_avoid_dead_spindles() {
        let store = BlockStore::new(tiny_config());
        store.fail_disk(0, SimTime::ZERO);
        let source = MovieSource::test_movie(10, 21);
        let movie = store.open_recording(5, &source).unwrap();
        let mut now = SimTime::ZERO;
        for frame in source.frames() {
            store.append_frame(5, frame.size, now).unwrap();
            now += netsim::SimDuration::from_micros(source.frame_interval_us());
        }
        store.seal_recording(5, now).unwrap();
        pump_until(&store, now, || store.durable(5) == Some(true));
        store.finish(5).unwrap();
        let rec_alloc = store.allocation_of(movie).unwrap();
        assert!(rec_alloc.iter().all(|a| a.disk != 0), "recording shuns it");
        let m2 = store.import_movie(&MovieSource::test_movie(6, 33), now);
        assert!(
            store.allocation_of(m2).unwrap().iter().all(|a| a.disk != 0),
            "bulk import shuns it"
        );
        let m3 = store.register_movie(&MovieSource::test_movie(8, 44));
        assert!(
            store.allocation_of(m3).unwrap().iter().all(|a| a.disk != 0),
            "post-fault registration shuns it"
        );
    }

    #[test]
    fn speed_change_renegotiates_bandwidth() {
        let config = StoreConfig {
            disks: 1,
            disk: DiskParams {
                transfer_bytes_per_sec: 400_000,
                ..DiskParams::default()
            },
            ..tiny_config()
        };
        let store = BlockStore::new(config);
        let movie = MovieSource::test_movie(30, 6);
        let id = store.register_movie(&movie);
        store.open_stream(1, id, 100, SimTime::ZERO).unwrap();
        // A large speed-up may not fit on the slow disk.
        let err = store
            .adjust(1, store.demand_for(id, 400).unwrap())
            .unwrap_err();
        assert!(matches!(err, StoreError::AdmissionRejected { .. }));
        // The old commitment is intact: normal speed still accepted.
        store.adjust(1, store.demand_for(id, 100).unwrap()).unwrap();
    }
}
