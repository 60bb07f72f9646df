//! The Stream Provider System (SPS): manages MTP senders for a server
//! machine.
//!
//! The paper separates the CM-stream level from the control level
//! (Table 1); accordingly the SPS is plain hand-written code (like the
//! XMovie service it stands in for), controlled *by* the Estelle
//! specification through the SUA/SPA agent but paced by the simulation
//! driver.
//!
//! When built over a [`store::BlockStore`] the SPS pulls frames
//! through the continuous-media storage subsystem: every open passes
//! disk-bandwidth admission control, a per-stream prefetcher pipelines
//! block reads ahead of the sender's frame deadlines, and a frame
//! whose block has not yet arrived stalls (and is sent late) instead
//! of being synthesized out of thin air.
//!
//! The SPS also hosts *recording sessions* ([`StreamProviderSystem::
//! record_open`]): captured frames arrive at the camera's frame rate
//! on the virtual clock and are appended through the store's write
//! path, so a recording reserves and consumes real disk bandwidth and
//! can crowd out (or be refused like) a playback stream.

use mtp::{MovieSource, MtpSender, StreamState};
use netsim::{DatagramNet, DatagramSocket, NetAddr, SimDuration, SimTime};
use parking_lot::Mutex;
use share::{Departure, JoinPlan, ShareManager};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use store::{BlockStore, MovieId, PrefetchHint, StoreError};

/// A finished recording, as returned by
/// [`StreamProviderSystem::record_close`]: enough to finalize the
/// directory entry and to [`StreamProviderSystem::import_movie`] the
/// copy onto replica servers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedMovie {
    /// The captured content (replayable source parameters).
    pub source: MovieSource,
    /// Mean bitrate measured over the captured frames, bits/second.
    pub bitrate_bps: u64,
}

/// A camera capture in progress: frames are appended to the store's
/// write path at the source's frame rate on the virtual clock.
#[derive(Debug)]
struct RecordingSession {
    source: MovieSource,
    captured: u64,
    next_frame_at: SimTime,
    sealed: bool,
    /// Already counted in `recordings_finished`.
    finished: bool,
}

/// Stream-provider errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpsError {
    /// Unknown stream id.
    NoSuchStream(u32),
    /// Admission control refused the stream's disk-bandwidth demand.
    AdmissionRejected {
        /// Bandwidth the stream would need, in bits/second.
        demanded_bps: u64,
        /// Bandwidth still uncommitted, in bits/second.
        available_bps: u64,
    },
    /// The storage subsystem failed the operation.
    StorageError(String),
}

impl fmt::Display for SpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpsError::NoSuchStream(id) => write!(f, "no such stream {id}"),
            SpsError::AdmissionRejected {
                demanded_bps,
                available_bps,
            } => write!(
                f,
                "admission rejected: stream needs {demanded_bps} bps, {available_bps} bps available"
            ),
            SpsError::StorageError(msg) => write!(f, "storage error: {msg}"),
        }
    }
}
impl std::error::Error for SpsError {}

impl From<StoreError> for SpsError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::AdmissionRejected {
                demanded_bps,
                available_bps,
            } => SpsError::AdmissionRejected {
                demanded_bps,
                available_bps,
            },
            other => SpsError::StorageError(other.to_string()),
        }
    }
}

/// The per-server stream provider: a registry of paced MTP senders
/// sharing one datagram socket, optionally fed by a block store.
pub struct StreamProviderSystem {
    socket: DatagramSocket,
    addr: NetAddr,
    senders: Mutex<HashMap<u32, MtpSender>>,
    movie_ids: Mutex<HashMap<u32, MovieId>>,
    recordings: Mutex<HashMap<u32, RecordingSession>>,
    /// Last *forward* seek delta (in blocks) per stream: two
    /// consecutive forward jumps of the same width are treated as a
    /// skimming pattern and turned into a strided prefetch hint.
    seek_deltas: Mutex<HashMap<u32, u64>>,
    store: Option<Arc<BlockStore>>,
    /// The stream-sharing merge engine, when the server runs with
    /// flash-crowd batching enabled (requires a store: followers are
    /// served from its interval cache).
    share: Option<Arc<ShareManager>>,
    next_stream: AtomicU32,
    /// See [`StreamProviderSystem::recordings_finished`].
    recordings_finished: AtomicU64,
}

impl fmt::Debug for StreamProviderSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamProviderSystem")
            .field("addr", &self.addr)
            .field("streams", &self.senders.lock().len())
            .field("store", &self.store.is_some())
            .finish_non_exhaustive()
    }
}

impl StreamProviderSystem {
    /// Binds the provider to `addr` on the datagram network, streaming
    /// straight from synthetic sources (no storage model).
    ///
    /// # Panics
    ///
    /// Panics if the address is already bound (deployment error).
    pub fn new(dg: &Arc<DatagramNet>, addr: NetAddr) -> Arc<Self> {
        Self::build(dg, addr, None, None)
    }

    /// Binds the provider to `addr`, pulling every stream through
    /// `store` (admission control, cache, prefetch).
    ///
    /// # Panics
    ///
    /// Panics if the address is already bound (deployment error).
    pub fn with_store(dg: &Arc<DatagramNet>, addr: NetAddr, store: Arc<BlockStore>) -> Arc<Self> {
        Self::build(dg, addr, Some(store), None)
    }

    /// Binds the provider to `addr` over `store`, with `share` merging
    /// close-spaced viewers of one title into leader/follower groups:
    /// merged followers charge no disk bandwidth (they ride the pinned
    /// cache span behind their leader), fast-feeding followers charge
    /// only the catch-up delta until they converge.
    ///
    /// # Panics
    ///
    /// Panics if the address is already bound (deployment error).
    pub fn with_shared_store(
        dg: &Arc<DatagramNet>,
        addr: NetAddr,
        store: Arc<BlockStore>,
        share: Arc<ShareManager>,
    ) -> Arc<Self> {
        Self::build(dg, addr, Some(store), Some(share))
    }

    fn build(
        dg: &Arc<DatagramNet>,
        addr: NetAddr,
        store: Option<Arc<BlockStore>>,
        share: Option<Arc<ShareManager>>,
    ) -> Arc<Self> {
        let socket = dg.bind(addr).expect("SPS address available");
        // Stream ids are distinct across providers (the address seeds
        // the counter's high 16 bits), so clients and MCAs can tell
        // replicas' streams apart. `open` asserts the 16-bit
        // per-provider slice is never exhausted — wrapping into a
        // neighbour's range would make id-based bookkeeping ambiguous
        // (control-op routing itself resolves a stream's home by
        // asking the providers, not by decoding the id).
        Arc::new(StreamProviderSystem {
            socket,
            addr,
            senders: Mutex::new(HashMap::new()),
            movie_ids: Mutex::new(HashMap::new()),
            recordings: Mutex::new(HashMap::new()),
            seek_deltas: Mutex::new(HashMap::new()),
            store,
            share,
            next_stream: AtomicU32::new((addr.0 << 16) | 1),
            recordings_finished: AtomicU64::new(0),
        })
    }

    /// The provider's datagram address.
    pub fn addr(&self) -> NetAddr {
        self.addr
    }

    /// Allocates the next stream/recording id from this provider's
    /// 16-bit slice.
    fn alloc_stream_id(&self) -> u32 {
        let id = self.next_stream.fetch_add(1, Ordering::SeqCst);
        assert_eq!(
            id >> 16,
            self.addr.0,
            "stream-id slice exhausted: provider {} opened 2^16 streams",
            self.addr.0
        );
        id
    }

    /// The provider's location name as stored in directory entries.
    pub fn location(&self) -> String {
        format!("node-{}", self.addr.0)
    }

    /// The storage subsystem feeding this provider, if any.
    pub fn store(&self) -> Option<&Arc<BlockStore>> {
        self.store.as_ref()
    }

    /// The stream-sharing merge engine, if one is attached.
    pub fn share(&self) -> Option<&Arc<ShareManager>> {
        self.share.as_ref()
    }

    /// Whether a merge group on this provider is currently streaming
    /// `movie` — the `SelectMovie` routing tie-break: among equally
    /// loaded replicas, the one already sharing the title serves the
    /// next viewer (nearly) for free.
    pub fn shares_source(&self, movie: &MovieSource) -> bool {
        match (&self.share, &self.store) {
            (Some(share), Some(store)) => store
                .find_movie(movie)
                .is_some_and(|id| share.shares_movie(id)),
            _ => false,
        }
    }

    /// Opens a stream of `movie` towards `dest`, returning its id.
    ///
    /// With a merge engine attached the viewer is batched into an
    /// existing group when one streams the title close by: a merged
    /// follower charges **zero** disk bandwidth, a fast-feeding
    /// follower only the catch-up delta; only a fresh leader pays a
    /// full stream.
    ///
    /// # Errors
    ///
    /// [`SpsError::AdmissionRejected`] when the store's admission
    /// control cannot fit the stream's bandwidth demand.
    pub fn open(&self, movie: MovieSource, dest: NetAddr, now: SimTime) -> Result<u32, SpsError> {
        let id = self.alloc_stream_id();
        if let Some(store) = &self.store {
            let movie_id = store.register_movie(&movie);
            match self.share.as_ref().filter(|s| s.config().enabled) {
                None => store.open_stream(id, movie_id, 100, now)?,
                Some(share) => match share.plan_join(movie_id) {
                    JoinPlan::Lead => {
                        store.open_stream(id, movie_id, 100, now)?;
                        share.open_leader(id, movie_id);
                    }
                    JoinPlan::Merge { leader, .. } => {
                        store.open_stream_with_demand(id, movie_id, 0, now)?;
                        share.open_merged(id, movie_id, leader);
                        store.set_pinned_ranges(&share.pinned_ranges());
                    }
                    JoinPlan::FastFeed { leader, .. } => {
                        let bitrate = store.demand_for(movie_id, 100).unwrap_or(0);
                        let delta = share.fast_feed_delta_bps(bitrate);
                        store.open_stream_with_demand(id, movie_id, delta, now)?;
                        share.open_fast_feed(id, movie_id, leader, delta);
                        store.set_pinned_ranges(&share.pinned_ranges());
                    }
                },
            }
            self.movie_ids.lock().insert(id, movie_id);
        }
        let sender = MtpSender::new(self.socket.clone(), dest, id, movie);
        self.senders.lock().insert(id, sender);
        Ok(id)
    }

    /// Before a leader with followers departs its band (trick op), the
    /// replacement disk stream for the group must fit: the promotion
    /// candidate is re-charged one full stream here, and the trick op
    /// is refused when admission cannot take it — the leader may not
    /// strand its followers without bandwidth.
    fn charge_replacement_leader(
        &self,
        store: &Arc<BlockStore>,
        share: &Arc<ShareManager>,
        leader: u32,
    ) -> Result<(), SpsError> {
        let Some(candidate) = share.promotion_candidate(leader) else {
            return Ok(());
        };
        store.adjust(candidate, self.demand(store, candidate, 100))?;
        Ok(())
    }

    /// Applies the sharing consequences of a trick operation on
    /// `stream` before the operation itself runs, with the stream
    /// landing at `target_block` afterwards.
    ///
    /// - A follower leaving its group must re-admit a full disk stream
    ///   of its own; rejection fails the operation (the follower stays
    ///   merged, untouched).
    /// - A leader with followers must first see its replacement leader
    ///   charged; then it departs into a standalone band (keeping its
    ///   own charge) and the nearest follower is promoted.
    fn share_departure(&self, stream: u32, target_block: u64) -> Result<(), SpsError> {
        let (Some(store), Some(share)) = (&self.store, &self.share) else {
            return Ok(());
        };
        if share.is_follower(stream) {
            store.adjust(stream, self.demand(store, stream, 100))?;
            share.split_out(stream, target_block);
            self.reset_catch_up(stream);
            store.set_pinned_ranges(&share.pinned_ranges());
        } else if share.is_leader_with_followers(stream) {
            self.charge_replacement_leader(store, share, stream)?;
            if let Departure::Promoted { new_leader } =
                share.on_leader_departure(stream, target_block)
            {
                self.reset_catch_up(new_leader);
            }
            store.set_pinned_ranges(&share.pinned_ranges());
        }
        Ok(())
    }

    /// The nominal store demand of stream `id` at `speed_pct` (0 for
    /// streams without a stored movie).
    fn demand(&self, store: &BlockStore, id: u32, speed_pct: u32) -> u64 {
        let movie = self.movie_ids.lock().get(&id).copied();
        movie
            .and_then(|m| store.demand_for(m, speed_pct))
            .unwrap_or(0)
    }

    /// A fast-feeding follower that became a leader (or split out)
    /// returns to nominal playback rate.
    fn reset_catch_up(&self, stream: u32) {
        if let Some(sender) = self.senders.lock().get_mut(&stream) {
            sender.set_speed_pct(100);
        }
    }

    /// Opens a recording session capturing `movie.frame_count` frames
    /// of `movie` at its frame rate, starting at `now`, and returns
    /// the session's stream id. With a store attached the session
    /// passes write-bandwidth admission control and every captured
    /// frame goes through the striped write path.
    ///
    /// # Errors
    ///
    /// [`SpsError::AdmissionRejected`] when the write bandwidth does
    /// not fit next to the streams already admitted.
    pub fn record_open(&self, movie: MovieSource, now: SimTime) -> Result<u32, SpsError> {
        let id = self.alloc_stream_id();
        if let Some(store) = &self.store {
            store.open_recording(id, &movie)?;
        }
        self.recordings.lock().insert(
            id,
            RecordingSession {
                source: movie,
                captured: 0,
                next_frame_at: now,
                sealed: false,
                finished: false,
            },
        );
        Ok(id)
    }

    /// Whether a recording has captured every frame and (with a store)
    /// persisted every block.
    pub fn recording_finished(&self, id: u32) -> bool {
        let recordings = self.recordings.lock();
        recordings
            .get(&id)
            .is_some_and(|session| self.is_finished(id, session))
    }

    fn is_finished(&self, id: u32, session: &RecordingSession) -> bool {
        session.captured >= session.source.frame_count
            && self
                .store
                .as_ref()
                .is_none_or(|s| s.durable(id) == Some(true))
    }

    /// Recordings that have finished so far (see
    /// [`StreamProviderSystem::recording_finished`]), counted by
    /// [`StreamProviderSystem::pump`] — the only place a recording
    /// finishes outside a protocol transition. The server MCA's
    /// `record-done` guard reads `recording_finished`, so a driver
    /// that skips scheduler passes while nothing changed watches this
    /// count.
    pub fn recordings_finished(&self) -> u64 {
        self.recordings_finished.load(Ordering::Relaxed)
    }

    fn count_finished_recordings(&self) {
        let mut recordings = self.recordings.lock();
        for (id, session) in recordings.iter_mut() {
            if !session.finished && self.is_finished(*id, session) {
                session.finished = true;
                self.recordings_finished.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Finalizes a finished recording: the store registers the
    /// captured blocks as a playable movie and the session closes.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids, and with [`SpsError::StorageError`]
    /// while the recording is still capturing or persisting.
    pub fn record_close(&self, id: u32) -> Result<RecordedMovie, SpsError> {
        let mut recordings = self.recordings.lock();
        let Some(session) = recordings.get(&id) else {
            return Err(SpsError::NoSuchStream(id));
        };
        let bitrate_bps = match &self.store {
            Some(store) => store.finish(id)?.bitrate_bps,
            None => session.source.mean_bitrate_bps().max(1),
        };
        let session = recordings.remove(&id).expect("checked above");
        Ok(RecordedMovie {
            source: session.source,
            bitrate_bps,
        })
    }

    /// Number of recording sessions in progress.
    pub fn recording_count(&self) -> usize {
        self.recordings.lock().len()
    }

    /// Copies a finished recording onto this provider's store (the
    /// replication path); a provider without a store has nothing to
    /// copy onto and ignores the request.
    pub fn import_movie(&self, source: &MovieSource, now: SimTime) {
        if let Some(store) = &self.store {
            store.import_movie(source, now);
        }
    }

    /// Tears the provider down as a machine crash: every live stream
    /// and in-progress recording is dropped without a release
    /// handshake, their admission bandwidth and partial blocks
    /// released. Returns the number of sessions killed. The datagram
    /// socket stays bound, so a later re-registration ("repair and
    /// reboot") reuses the provider.
    pub fn crash(&self) -> usize {
        let recordings: Vec<u32> = self.recordings.lock().keys().copied().collect();
        let streams: Vec<u32> = self.senders.lock().keys().copied().collect();
        let killed = recordings.len() + streams.len();
        for id in recordings {
            self.recordings.lock().remove(&id);
            if let Some(store) = &self.store {
                store.close(id);
            }
        }
        for id in streams {
            let _ = self.close(id);
        }
        killed
    }

    /// Closes a stream, releasing its storage bandwidth. Closing an
    /// in-progress recording aborts it (bandwidth released, blocks
    /// freed).
    ///
    /// # Errors
    ///
    /// Fails for unknown ids.
    pub fn close(&self, id: u32) -> Result<(), SpsError> {
        if self.recordings.lock().remove(&id).is_some() {
            if let Some(store) = &self.store {
                store.close(id);
            }
            return Ok(());
        }
        if let Some(store) = &self.store {
            store.close(id);
            if let Some(share) = &self.share {
                if let Departure::Promoted { new_leader } = share.on_close(id) {
                    // The closing leader just released a full stream,
                    // so the promoted follower's re-charge always fits.
                    let _ = store.adjust(new_leader, self.demand(store, new_leader, 100));
                    self.reset_catch_up(new_leader);
                }
                store.set_pinned_ranges(&share.pinned_ranges());
            }
        }
        self.movie_ids.lock().remove(&id);
        self.seek_deltas.lock().remove(&id);
        self.senders
            .lock()
            .remove(&id)
            .map(|_| ())
            .ok_or(SpsError::NoSuchStream(id))
    }

    fn with_sender<R>(&self, id: u32, f: impl FnOnce(&mut MtpSender) -> R) -> Result<R, SpsError> {
        let mut senders = self.senders.lock();
        senders
            .get_mut(&id)
            .map(f)
            .ok_or(SpsError::NoSuchStream(id))
    }

    /// Starts or resumes playback.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids, and with [`SpsError::AdmissionRejected`]
    /// when a speed above nominal would exceed the store's remaining
    /// disk bandwidth (the stream then keeps its previous speed).
    pub fn play(&self, id: u32, speed_pct: u32, now: SimTime) -> Result<(), SpsError> {
        if !self.senders.lock().contains_key(&id) {
            return Err(SpsError::NoSuchStream(id));
        }
        if let Some(share) = &self.share {
            if speed_pct == 100 && share.is_follower(id) {
                // Nominal-rate playback inside a group: no admission
                // change. A still-converging follower keeps (or
                // resumes) the fast-feed rate, a merged one rides the
                // leader's pace exactly.
                let rate = if share.is_fast_feeding(id) {
                    share.config().catch_up_rate_pct
                } else {
                    100
                };
                return self.with_sender(id, |s| {
                    s.set_speed_pct(rate);
                    s.play(now);
                });
            }
            if speed_pct != 100 {
                // A trick-speed viewer leaves its band: a follower
                // re-admits, a leader hands the group over first.
                let block = self
                    .store
                    .as_ref()
                    .and_then(|s| s.stream_position_block(id))
                    .unwrap_or(0);
                self.share_departure(id, block)?;
            }
        }
        if let Some(store) = &self.store {
            store.adjust(id, self.demand(store, id, speed_pct))?;
            if speed_pct != 100 {
                // Trick-speed playback consumes forward, only faster:
                // widen the read-ahead horizon to the speed multiple
                // (and drop any stale rewind hint).
                let stride = (speed_pct / 100).clamp(1, 4);
                let _ = store.set_prefetch_hint(id, PrefetchHint::forward(stride));
            }
        }
        self.with_sender(id, |s| {
            s.set_speed_pct(speed_pct);
            s.play(now);
        })
    }

    /// Pauses playback. A shared follower pausing drifts out of its
    /// group: it must re-admit a full disk stream of its own, and a
    /// leader with followers hands the group to the nearest one.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids, and with [`SpsError::AdmissionRejected`]
    /// when a group member's split-out stream does not fit (the member
    /// then stays in its group, still playing).
    pub fn pause(&self, id: u32) -> Result<(), SpsError> {
        if !self.senders.lock().contains_key(&id) {
            return Err(SpsError::NoSuchStream(id));
        }
        let block = self
            .store
            .as_ref()
            .and_then(|s| s.stream_position_block(id))
            .unwrap_or(0);
        self.share_departure(id, block)?;
        self.with_sender(id, MtpSender::pause)
    }

    /// Stops playback (rewinds; the prefetcher repositions to the
    /// movie's first block). Stopping is a seek to frame 0 for the
    /// sharing engine: group members split out or hand over first.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids, and with [`SpsError::AdmissionRejected`]
    /// when a group member's split-out stream does not fit.
    pub fn stop(&self, id: u32, now: SimTime) -> Result<(), SpsError> {
        if !self.senders.lock().contains_key(&id) {
            return Err(SpsError::NoSuchStream(id));
        }
        self.share_departure(id, 0)?;
        self.with_sender(id, MtpSender::stop)?;
        if let Some(store) = &self.store {
            store.seek_stream(id, 0, PrefetchHint::default(), now)?;
        }
        Ok(())
    }

    /// The prefetch prediction for a seek from block `cur` to block
    /// `target`: a backward jump hints a rewind storm (stride = jump
    /// width), and two consecutive forward jumps of the same width
    /// hint a skimming pattern (horizon widened to cover the next
    /// jump). A plain one-off forward seek carries no prediction.
    fn seek_hint(&self, id: u32, cur: u64, target: u64, readahead: u64) -> PrefetchHint {
        if target < cur {
            self.seek_deltas.lock().remove(&id);
            let stride = (cur - target).clamp(1, 64) as u32;
            PrefetchHint::backward(stride)
        } else if target > cur {
            let delta = target - cur;
            let repeated = self.seek_deltas.lock().insert(id, delta) == Some(delta);
            if repeated {
                let stride = delta.div_ceil(readahead.max(1)).clamp(1, 8) as u32;
                PrefetchHint::forward(stride)
            } else {
                PrefetchHint::default()
            }
        } else {
            PrefetchHint::default()
        }
    }

    /// Seeks to a frame (the prefetcher follows). A group member
    /// seeking out of its band splits out (follower) or hands the
    /// group over (leader) — both honestly re-admitted. The jump's
    /// direction and width are threaded into the store as a
    /// [`PrefetchHint`] so rewind storms and fixed-stride skimming
    /// land on prefetched ground.
    ///
    /// # Errors
    ///
    /// Fails for unknown ids, and with [`SpsError::AdmissionRejected`]
    /// when a group member's split-out stream does not fit (the member
    /// then stays in its group at its old position).
    pub fn seek(&self, id: u32, frame: u64, now: SimTime) -> Result<(), SpsError> {
        if !self.senders.lock().contains_key(&id) {
            return Err(SpsError::NoSuchStream(id));
        }
        let block = self
            .store
            .as_ref()
            .and_then(|store| {
                let movie = self.movie_ids.lock().get(&id).copied()?;
                store.block_of_frame(movie, frame)
            })
            .unwrap_or(0);
        self.share_departure(id, block)?;
        self.with_sender(id, |s| s.seek(frame))?;
        if let Some(store) = &self.store {
            let cur = store.stream_position_block(id).unwrap_or(0);
            let readahead = u64::from(store.config().readahead_blocks);
            let hint = self.seek_hint(id, cur, block, readahead);
            store.seek_stream(id, frame, hint, now)?;
        }
        Ok(())
    }

    /// Current playback state of a stream.
    pub fn state(&self, id: u32) -> Option<StreamState> {
        self.senders.lock().get(&id).map(MtpSender::state)
    }

    /// Current frame position of a stream.
    pub fn position(&self, id: u32) -> Option<u64> {
        self.senders.lock().get(&id).map(MtpSender::position)
    }

    /// Captures all recording frames due at or before `now`, feeding
    /// them through the store's write path; sessions that reach their
    /// frame target are sealed (tail flushed, bandwidth released).
    fn pump_recordings(&self, now: SimTime) {
        let mut recordings = self.recordings.lock();
        for (id, session) in recordings.iter_mut() {
            let interval = SimDuration::from_micros(session.source.frame_interval_us());
            while session.captured < session.source.frame_count && session.next_frame_at <= now {
                let at = session.next_frame_at;
                let size = session.source.frame(session.captured).map_or(0, |f| f.size);
                if let Some(store) = &self.store {
                    let _ = store.append_frame(*id, size, at);
                }
                session.captured += 1;
                session.next_frame_at = at + interval;
            }
            if session.captured >= session.source.frame_count && !session.sealed {
                session.sealed = true;
                if let Some(store) = &self.store {
                    let _ = store.seal_recording(*id, now);
                }
            }
        }
    }

    /// Emits all frames due at or before `now` across all streams
    /// (gated on storage delivery when a store is attached), captures
    /// due recording frames, and routes receiver feedback reports to
    /// their senders.
    pub fn pump(&self, now: SimTime) -> usize {
        self.pump_recordings(now);
        if let Some(store) = &self.store {
            store.pump(now);
        }
        self.count_finished_recordings();
        let mut senders = self.senders.lock();
        while let Some(dg) = self.socket.recv() {
            if let Ok(fb) = mtp::MtpFeedback::decode(&dg.payload) {
                if let Some(sender) = senders.get_mut(&fb.stream_id) {
                    sender.handle_feedback(&fb);
                }
            }
        }
        let mut sent = 0;
        for (id, sender) in senders.iter_mut() {
            let ready = self
                .store
                .as_ref()
                .and_then(|s| s.frames_ready_through(*id));
            sent += sender.poll_gated(now, ready);
            if let Some(store) = &self.store {
                store.note_position(*id, sender.position());
                if let Some(share) = &self.share {
                    if let Some(block) = store.stream_position_block(*id) {
                        share.note_position(*id, block);
                    }
                }
            }
        }
        // Sharing maintenance: fast-feeds whose gap has closed to the
        // merge window release their delta reservation and drop back
        // to nominal rate; the pinned cache spans track every group's
        // current [trailing follower, leader] window.
        if let (Some(store), Some(share)) = (&self.store, &self.share) {
            for id in share.converged_fast_feeds() {
                let _ = store.adjust(id, 0);
                if let Some(sender) = senders.get_mut(&id) {
                    sender.set_speed_pct(100);
                }
                share.mark_converged(id);
            }
            store.set_pinned_ranges(&share.pinned_ranges());
        }
        sent
    }

    /// Earliest instant at which any stream can make progress: the
    /// next frame deadline of a stream whose data is ready, or the
    /// next storage completion for stalled ones.
    pub fn next_due(&self) -> Option<SimTime> {
        let senders = self.senders.lock();
        let store_next = self.store.as_ref().and_then(|s| s.next_event());
        let sender_due = senders
            .iter()
            .filter_map(|(id, s)| {
                let due = s.next_due()?;
                if let Some(store) = &self.store {
                    let ready = store.frames_ready_through(*id).unwrap_or(u64::MAX);
                    let position = s.position();
                    if position < s.movie().frame_count && position >= ready {
                        // Stalled on storage: the store's next
                        // completion is the real wake-up point.
                        return None;
                    }
                }
                Some(due)
            })
            .min();
        // Recording sessions wake at their next frame-capture instant
        // (persistence completions are covered by `store_next`).
        let recording_due = self
            .recordings
            .lock()
            .values()
            .filter(|s| s.captured < s.source.frame_count)
            .map(|s| s.next_frame_at)
            .min();
        [store_next, sender_due, recording_due]
            .into_iter()
            .flatten()
            .min()
    }

    /// Number of open streams.
    pub fn stream_count(&self) -> usize {
        self.senders.lock().len()
    }

    /// Whether this provider hosts the stream (cluster routing asks
    /// every replica to find a stream's home for control operations).
    pub fn has_stream(&self, id: u32) -> bool {
        self.senders.lock().contains_key(&id)
    }
}

/// Load routing asks the provider's admission controller; a provider
/// without a storage model never saturates.
impl cluster::LoadProbe for StreamProviderSystem {
    fn load(&self) -> cluster::LoadSnapshot {
        match &self.store {
            Some(store) => cluster::LoadProbe::load(&**store),
            None => cluster::LoadSnapshot {
                available_bps: u64::MAX,
                committed_bps: 0,
                capacity_bps: u64::MAX,
                open_streams: self.stream_count(),
                cache_hit_permille: 0,
            },
        }
    }
}

/// The copy token a provider without a storage model hands out:
/// there is nothing to write, so the copy is complete on arrival.
const STORELESS_COPY: u64 = u64::MAX;

/// Migration copies land in the provider's block store through the
/// paced, admission-charged import path; a provider without a store
/// has nothing to copy onto and completes instantly.
impl cluster::MigrationHost for StreamProviderSystem {
    fn begin_copy(
        &self,
        source: &MovieSource,
        reserve_bps: u64,
        now: SimTime,
    ) -> Result<u64, cluster::CopyRejected> {
        match &self.store {
            Some(store) => cluster::MigrationHost::begin_copy(&**store, source, reserve_bps, now),
            None => Ok(STORELESS_COPY),
        }
    }
    fn copy_done(&self, token: u64) -> bool {
        match &self.store {
            Some(store) => {
                token != STORELESS_COPY && cluster::MigrationHost::copy_done(&**store, token)
            }
            None => token == STORELESS_COPY,
        }
    }
    fn finish_copy(&self, token: u64) -> bool {
        match &self.store {
            Some(store) => cluster::MigrationHost::finish_copy(&**store, token),
            None => token == STORELESS_COPY,
        }
    }
    fn abort_copy(&self, token: u64) {
        if let Some(store) = &self.store {
            cluster::MigrationHost::abort_copy(&**store, token);
        }
    }
    fn import_bulk(&self, source: &MovieSource, now: SimTime) {
        self.import_movie(source, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LinkConfig, Network, SimDuration};
    use store::StoreConfig;

    fn rig() -> (Arc<Network>, Arc<DatagramNet>, Arc<StreamProviderSystem>) {
        let net = Arc::new(Network::new(0));
        let dg = DatagramNet::new(&net, LinkConfig::perfect(SimDuration::from_millis(1)), 0);
        let sps = StreamProviderSystem::new(&dg, NetAddr(100));
        (net, dg, sps)
    }

    fn rig_with_store(
        config: StoreConfig,
    ) -> (Arc<Network>, Arc<DatagramNet>, Arc<StreamProviderSystem>) {
        let net = Arc::new(Network::new(0));
        let dg = DatagramNet::new(&net, LinkConfig::perfect(SimDuration::from_millis(1)), 0);
        let sps = StreamProviderSystem::with_store(&dg, NetAddr(100), BlockStore::new(config));
        (net, dg, sps)
    }

    #[test]
    fn open_play_pump_close() {
        let (net, dg, sps) = rig();
        let client = dg.bind(NetAddr(5)).unwrap();
        let id = sps
            .open(MovieSource::test_movie(1, 1), NetAddr(5), net.now())
            .unwrap();
        assert_eq!(sps.stream_count(), 1);
        sps.play(id, 100, net.now()).unwrap();
        assert_eq!(sps.state(id), Some(StreamState::Playing));
        // Pump one second of frames.
        net.run_until(SimTime::from_secs(1));
        let sent = sps.pump(net.now());
        assert!(sent >= 25, "sent={sent}");
        net.run_until_idle();
        assert!(client.pending() >= 25);
        sps.close(id).unwrap();
        assert_eq!(sps.close(id), Err(SpsError::NoSuchStream(id)));
    }

    #[test]
    fn control_ops_route_to_sender() {
        let (net, _dg, sps) = rig();
        let id = sps
            .open(MovieSource::test_movie(2, 1), NetAddr(5), net.now())
            .unwrap();
        sps.play(id, 200, net.now()).unwrap();
        sps.pause(id).unwrap();
        assert_eq!(sps.state(id), Some(StreamState::Paused));
        sps.seek(id, 30, net.now()).unwrap();
        assert_eq!(sps.position(id), Some(30));
        sps.stop(id, net.now()).unwrap();
        assert_eq!(sps.position(id), Some(0));
        assert!(sps.play(99, 100, net.now()).is_err());
    }

    #[test]
    fn next_due_tracks_playing_streams() {
        let (net, _dg, sps) = rig();
        assert!(sps.next_due().is_none());
        let a = sps
            .open(MovieSource::test_movie(1, 1), NetAddr(5), net.now())
            .unwrap();
        assert!(sps.next_due().is_none(), "ready but not playing");
        sps.play(a, 100, net.now()).unwrap();
        assert_eq!(sps.next_due(), Some(net.now()));
    }

    #[test]
    fn stored_stream_stalls_until_blocks_arrive() {
        let (net, dg, sps) = rig_with_store(StoreConfig::default());
        let client = dg.bind(NetAddr(5)).unwrap();
        let id = sps
            .open(MovieSource::test_movie(1, 1), NetAddr(5), net.now())
            .unwrap();
        sps.play(id, 100, net.now()).unwrap();
        // Nothing delivered from disk yet: the first poll stalls.
        assert_eq!(sps.pump(net.now()), 0);
        // The SPS points the driver at the first disk completion.
        let wake = sps.next_due().expect("disk read outstanding");
        assert!(wake > net.now());
        // After a generous second, frames flow.
        net.run_until(SimTime::from_secs(1));
        let sent = sps.pump(net.now());
        assert!(sent >= 25, "sent={sent}");
        net.run_until_idle();
        assert!(client.pending() >= 25);
    }

    #[test]
    fn recording_captures_on_the_clock_and_closes() {
        let (net, _dg, sps) = rig_with_store(StoreConfig::default());
        let source = MovieSource::test_movie(2, 9);
        let id = sps.record_open(source.clone(), net.now()).unwrap();
        assert_eq!(sps.recording_count(), 1);
        assert!(!sps.recording_finished(id), "nothing captured yet");
        // Half the movie's duration: capture is mid-flight.
        net.run_until(SimTime::from_secs(1));
        sps.pump(net.now());
        assert!(!sps.recording_finished(id));
        assert!(sps.record_close(id).is_err(), "cannot close mid-capture");
        // Past the end plus persistence: finished.
        let mut now = SimTime::from_secs(3);
        let mut guard = 0;
        while !sps.recording_finished(id) {
            sps.pump(now);
            if let Some(t) = sps.next_due() {
                now = now.max(t);
            } else {
                now += SimDuration::from_millis(100);
            }
            guard += 1;
            assert!(guard < 10_000, "recording never finished");
        }
        let recorded = sps.record_close(id).unwrap();
        assert_eq!(recorded.source, source);
        assert!(recorded.bitrate_bps > 0);
        assert_eq!(sps.recording_count(), 0);
        // The recorded movie is now streamable from this provider.
        let stream = sps.open(source, NetAddr(5), now).unwrap();
        assert!(sps.has_stream(stream));
    }

    #[test]
    fn close_aborts_an_open_recording() {
        let (net, _dg, sps) = rig_with_store(StoreConfig::default());
        let id = sps
            .record_open(MovieSource::test_movie(10, 4), net.now())
            .unwrap();
        net.run_until(SimTime::from_secs(1));
        sps.pump(net.now());
        sps.close(id).unwrap();
        assert_eq!(sps.recording_count(), 0);
        assert_eq!(
            sps.store().unwrap().stats().committed_bps,
            0,
            "aborted recording released its bandwidth"
        );
    }

    #[test]
    fn storeless_provider_records_on_timing_alone() {
        let (net, _dg, sps) = rig();
        let id = sps
            .record_open(MovieSource::test_movie(1, 2), net.now())
            .unwrap();
        assert!(!sps.recording_finished(id));
        sps.pump(SimTime::from_secs(2));
        assert!(sps.recording_finished(id));
        let recorded = sps.record_close(id).unwrap();
        assert_eq!(recorded.source.frame_count, 25);
        // Import on a storeless provider is a no-op, not a panic.
        sps.import_movie(&recorded.source, net.now());
    }

    #[test]
    fn shared_followers_ride_the_leader_free_and_split_honestly() {
        let net = Arc::new(Network::new(0));
        let dg = DatagramNet::new(&net, LinkConfig::perfect(SimDuration::from_millis(1)), 0);
        let store = BlockStore::new(StoreConfig::default());
        let share = Arc::new(share::ShareManager::new(share::ShareConfig::default()));
        let sps = StreamProviderSystem::with_shared_store(
            &dg,
            NetAddr(100),
            Arc::clone(&store),
            Arc::clone(&share),
        );
        let movie = MovieSource::test_movie(30, 1);
        let leader = sps.open(movie.clone(), NetAddr(5), net.now()).unwrap();
        let full = store.stats().committed_bps;
        assert!(full > 0, "the leader charges a full stream");
        // Both at block 0: the second viewer merges for free.
        let follower = sps.open(movie.clone(), NetAddr(6), net.now()).unwrap();
        assert_eq!(
            store.stats().committed_bps,
            full,
            "a merged follower charges nothing"
        );
        assert!(share.is_follower(follower));
        assert!(sps.shares_source(&movie));
        sps.play(leader, 100, net.now()).unwrap();
        sps.play(follower, 100, net.now()).unwrap();
        // The follower seeks far out of the band: it must re-admit a
        // full stream of its own.
        sps.seek(follower, movie.frame_count / 2, net.now())
            .unwrap();
        assert_eq!(store.stats().committed_bps, 2 * full);
        assert!(!share.is_follower(follower));
        assert_eq!(share.stats().splits, 1);
        // Closing the leader of a sole-member group just dissolves it.
        sps.close(leader).unwrap();
        assert_eq!(store.stats().committed_bps, full);
        sps.close(follower).unwrap();
        assert_eq!(store.stats().committed_bps, 0);
        assert_eq!(share.group_count(), 0);
    }

    #[test]
    fn leader_close_promotes_and_recharges_a_follower() {
        let net = Arc::new(Network::new(0));
        let dg = DatagramNet::new(&net, LinkConfig::perfect(SimDuration::from_millis(1)), 0);
        let store = BlockStore::new(StoreConfig::default());
        let share = Arc::new(share::ShareManager::new(share::ShareConfig::default()));
        let sps = StreamProviderSystem::with_shared_store(
            &dg,
            NetAddr(100),
            Arc::clone(&store),
            Arc::clone(&share),
        );
        let movie = MovieSource::test_movie(30, 1);
        let leader = sps.open(movie.clone(), NetAddr(5), net.now()).unwrap();
        let follower = sps.open(movie, NetAddr(6), net.now()).unwrap();
        let full = store.stats().committed_bps;
        sps.close(leader).unwrap();
        assert_eq!(
            store.stats().committed_bps,
            full,
            "the promoted follower inherits exactly the released charge"
        );
        assert!(share.is_leader_with_followers(follower) || share.group_count() == 1);
        assert_eq!(share.stats().promotions, 1);
        assert_eq!(store.stream_demand(follower), Some(full));
    }

    #[test]
    fn overload_rejected_and_released() {
        let config = StoreConfig {
            disks: 1,
            disk: store::DiskParams {
                transfer_bytes_per_sec: 500_000,
                ..store::DiskParams::default()
            },
            ..StoreConfig::default()
        };
        let (net, _dg, sps) = rig_with_store(config);
        let mut ids = Vec::new();
        let err = loop {
            match sps.open(MovieSource::test_movie(30, 1), NetAddr(5), net.now()) {
                Ok(id) => ids.push(id),
                Err(e) => break e,
            }
            assert!(ids.len() < 100, "slow disk must saturate eventually");
        };
        assert!(matches!(err, SpsError::AdmissionRejected { .. }), "{err}");
        // Closing one stream re-opens the door.
        sps.close(ids[0]).unwrap();
        sps.open(MovieSource::test_movie(30, 1), NetAddr(5), net.now())
            .unwrap();
    }
}
