//! Property tests of the write path: a movie recorded through
//! `open_recording`/`append_frame`/`seal_recording`/`finish`
//! reads back bijectively — every captured frame is delivered, its
//! block map is a bijection onto distinct physical addresses — and
//! the free-block allocator never hands out a live block twice, even
//! across interleaved recordings, aborts and re-allocations.

use mtp::MovieSource;
use netsim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::HashSet;
use store::{BlockStore, CachePolicy, DiskParams, StoreConfig};

fn config(disks: usize, block_kib: u32) -> StoreConfig {
    StoreConfig {
        disks,
        block_size: block_kib * 1024,
        cache_blocks: 32,
        policy: CachePolicy::Lru,
        disk: DiskParams::default(),
        ..StoreConfig::default()
    }
}

/// Records `source` frame by frame and drives the store until every
/// write is durable; returns the recorded movie's id.
fn record(store: &BlockStore, rec_id: u32, source: &MovieSource) -> store::RecordingSummary {
    store
        .open_recording(rec_id, source)
        .expect("empty store admits the recording");
    let mut now = SimTime::ZERO;
    let step = SimDuration::from_micros(source.frame_interval_us());
    for frame in source.frames() {
        store.append_frame(rec_id, frame.size, now).unwrap();
        now += step;
    }
    store.seal_recording(rec_id, now).unwrap();
    while store.durable(rec_id) != Some(true) {
        let t = store.next_event().expect("writes pending");
        now = now.max(t);
        store.pump(now);
    }
    store.finish(rec_id).unwrap()
}

/// Opens a playback stream over `movie` and drains it completely.
fn read_back(store: &BlockStore, stream: u32, movie: store::MovieId, frame_count: u64) {
    let mut now = store.next_event().unwrap_or(SimTime::ZERO);
    store
        .open_stream(stream, movie, 100, now)
        .expect("read-back admitted");
    let mut guard = 0;
    while store.frames_ready_through(stream) != Some(frame_count) {
        if let Some(t) = store.next_event() {
            now = now.max(t);
        }
        store.pump(now);
        store.note_position(stream, store.frames_ready_through(stream).unwrap_or(0));
        guard += 1;
        assert!(guard < 200_000, "read-back did not converge");
    }
    store.close(stream);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Write-then-read round-trips across stripe widths, block sizes
    /// and disk counts: the recorded frame count reads back exactly,
    /// and the block map is a bijection onto distinct addresses.
    #[test]
    fn write_then_read_round_trips(
        disks in 1usize..6,
        block_pick in 0usize..3,
        seconds in 1u64..8,
        seed in 0u64..1_000,
    ) {
        let block_kib = [16u32, 32, 64][block_pick];
        let store = BlockStore::new(config(disks, block_kib));
        let source = MovieSource::test_movie(seconds, seed);
        let summary = record(&store, 1, &source);
        prop_assert_eq!(summary.frame_count, source.frame_count);
        prop_assert!(summary.bitrate_bps > 0);

        let alloc = store.allocation_of(summary.movie).expect("recorded movie maps");
        prop_assert_eq!(alloc.len() as u64, summary.blocks);
        let mut seen = HashSet::new();
        for addr in &alloc {
            prop_assert!(addr.disk < disks, "disk {} out of range", addr.disk);
            prop_assert!(seen.insert(*addr), "block {addr:?} double-allocated");
        }
        // The stripe append rotates over all disks.
        if alloc.len() >= disks {
            let used: HashSet<usize> = alloc.iter().map(|a| a.disk).collect();
            prop_assert_eq!(used.len(), disks, "append striped over every disk");
        }
        // Everything written is read back through the same layout.
        prop_assert_eq!(store.register_movie(&source), summary.movie);
        read_back(&store, 9, summary.movie, source.frame_count);
        let stats = store.stats();
        let writes: u64 = stats.disks.iter().map(|d| d.writes).sum();
        prop_assert_eq!(writes, summary.blocks);
        prop_assert_eq!(stats.frames_recorded, source.frame_count);
    }

    /// The allocator never double-allocates across interleaved
    /// recordings, and blocks freed by an abort are reusable without
    /// colliding with live allocations.
    #[test]
    fn allocator_never_double_allocates(
        disks in 1usize..5,
        lens in prop::collection::vec(1u64..5, 2..5),
        abort_index in any::<prop::sample::Index>(),
    ) {
        let store = BlockStore::new(config(disks, 16));
        let aborted = abort_index.index(lens.len());
        let mut live: Vec<store::MovieId> = Vec::new();
        for (i, seconds) in lens.iter().enumerate() {
            let source = MovieSource::test_movie(*seconds, 7_000 + i as u64);
            let rec_id = 100 + i as u32;
            if i == aborted {
                // Capture some frames, then abandon: its blocks
                // return to the free pool.
                store.open_recording(rec_id, &source).unwrap();
                for frame in source.frames() {
                    store.append_frame(rec_id, frame.size, SimTime::ZERO).unwrap();
                }
                store.close(rec_id);
            } else {
                live.push(record(&store, rec_id, &source).movie);
            }
        }
        // All surviving recordings occupy pairwise-distinct blocks.
        let mut seen = HashSet::new();
        for movie in &live {
            for addr in store.allocation_of(*movie).expect("live recording maps") {
                prop_assert!(seen.insert(addr), "{addr:?} allocated to two movies");
            }
        }
    }
}
