//! Property test of the reservation lifecycle: random interleavings of
//! stream open/adjust/close, recording capture/seal/finish/abort,
//! paced copy begin/finish/abort and up to two spindle deaths (each
//! followed by a rebuild request), pumped on the store's own event
//! clock. Admission never keeps a commitment for an id that is no
//! longer live, everything drains, and a drained store holds nothing.

use mtp::MovieSource;
use netsim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeSet;
use store::{BlockStore, CachePolicy, DiskParams, MovieId, StoreConfig};

fn config(disks: usize) -> StoreConfig {
    StoreConfig {
        disks,
        block_size: 64 * 1024,
        cache_blocks: 32,
        policy: CachePolicy::Lru,
        disk: DiskParams::default(),
        prefetch_depth: 4,
        readahead_blocks: 16,
        admission_headroom_pct: 85,
        ..StoreConfig::default()
    }
}

/// What the test believes is live in the store.
#[derive(Default)]
struct Live {
    streams: Vec<(u32, MovieId)>,
    /// Recording id, its source and the frames captured so far.
    recordings: Vec<(u32, MovieSource, u64)>,
    copies: Vec<u32>,
    /// Ids handed out by `begin_rebuild` while a rebuild runs.
    rebuilds: BTreeSet<u32>,
}

impl Live {
    fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        let streams = self.streams.iter().map(|(id, _)| *id);
        let recordings = self.recordings.iter().map(|(id, ..)| *id);
        streams
            .chain(recordings)
            .chain(self.copies.iter().copied())
            .chain(self.rebuilds.iter().copied())
    }
}

/// Pumps along the store's event clock; false when `steps` ran out
/// before the store went quiet.
fn pump(store: &BlockStore, now: &mut SimTime, steps: u32) -> bool {
    for _ in 0..steps {
        let Some(t) = store.next_event() else {
            return true;
        };
        *now = (*now).max(t);
        store.pump(*now);
    }
    store.next_event().is_none()
}

/// The admission table commits exactly the demand of the live ids.
fn committed_matches(store: &BlockStore, live: &Live) -> Result<(), TestCaseError> {
    let sum: u64 = live.ids().filter_map(|id| store.stream_demand(id)).sum();
    prop_assert_eq!(store.stats().committed_bps, sum);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reservations_balance_and_drain(
        disks in 3usize..6,
        ops in prop::collection::vec((0u8..13, any::<u16>()), 1..60),
    ) {
        let store = BlockStore::new(config(disks));
        let titles: Vec<MovieSource> =
            (0..3).map(|i| MovieSource::test_movie(20 + 10 * i, 300 + i)).collect();
        let mut live = Live::default();
        let mut now = SimTime::ZERO;
        let mut next_id = 1u32;
        let mut deaths = 0;
        for (kind, arg) in ops {
            let slot = usize::from(arg);
            match kind {
                0 | 1 => {
                    let movie = store.register_movie(&titles[slot % titles.len()]);
                    let opened = if kind == 0 {
                        store.open_stream(next_id, movie, 100, now)
                    } else {
                        // A shared follower: merged (free) or fast-feeding.
                        let demand = store.demand_for(movie, 100).unwrap() / 4 * (slot as u64 % 2);
                        store.open_stream_with_demand(next_id, movie, demand, now)
                    };
                    if opened.is_ok() {
                        live.streams.push((next_id, movie));
                    }
                    next_id += 1;
                }
                2 if !live.streams.is_empty() => {
                    let (id, movie) = live.streams[slot % live.streams.len()];
                    let pct = [0, 50, 100, 200][slot / 7 % 4];
                    let demand = store.demand_for(movie, pct).unwrap();
                    let _ = store.adjust(id, if pct == 0 { 0 } else { demand });
                }
                3 if !live.streams.is_empty() => {
                    let (id, _) = live.streams.remove(slot % live.streams.len());
                    store.close(id);
                }
                4 => {
                    let source = MovieSource::test_movie(4 + u64::from(arg % 6), 500 + u64::from(next_id));
                    if store.open_recording(next_id, &source).is_ok() {
                        live.recordings.push((next_id, source, 0));
                    }
                    next_id += 1;
                }
                5 if !live.recordings.is_empty() => {
                    let n = live.recordings.len();
                    let (id, source, captured) = &mut live.recordings[slot % n];
                    let step = SimDuration::from_micros(source.frame_interval_us());
                    let until = (*captured + 40).min(source.frame_count);
                    while *captured < until {
                        let size = source.frame(*captured).map_or(0, |f| f.size);
                        let _ = store.append_frame(*id, size, now);
                        *captured += 1;
                        now += step;
                    }
                }
                6 if !live.recordings.is_empty() => {
                    let (id, ..) = live.recordings[slot % live.recordings.len()];
                    store.seal_recording(id, now).unwrap();
                }
                7 | 8 if !live.recordings.is_empty() => {
                    let i = slot % live.recordings.len();
                    let id = live.recordings[i].0;
                    if kind == 8 {
                        store.close(id);
                        live.recordings.remove(i);
                    } else if store.finish(id).is_ok() {
                        live.recordings.remove(i);
                    }
                }
                9 => {
                    // Copies of resident titles and of titles new here.
                    let source = if slot % 3 == 0 {
                        titles[slot % titles.len()].clone()
                    } else {
                        MovieSource::test_movie(10 + u64::from(arg % 20), 700 + u64::from(arg % 5))
                    };
                    let reserve = store.demand_for(store.register_movie(&titles[0]), 100).unwrap();
                    if let Ok(id) = store.begin_import(&source, reserve, now) {
                        live.copies.push(id);
                    }
                }
                10 if !live.copies.is_empty() => {
                    let i = slot % live.copies.len();
                    let id = live.copies[i];
                    if slot % 2 == 0 {
                        store.close(id);
                        live.copies.remove(i);
                    } else if store.finish(id).is_ok() {
                        live.copies.remove(i);
                    }
                }
                11 if deaths < 2 => {
                    deaths += 1;
                    store.fail_disk(slot % disks, now);
                    let reserve = (store.available_bps() / 2).max(1);
                    if let Ok(id) = store.begin_rebuild(reserve, now) {
                        live.rebuilds.insert(id);
                    }
                }
                _ => {
                    pump(&store, &mut now, u32::from(arg % 64) + 1);
                }
            }
            if !store.rebuild_active() {
                live.rebuilds.clear();
            }
            committed_matches(&store, &live)?;
        }

        // Wind everything down: close the streams, capture the rest of
        // every recording and seal it, then drain and finish.
        for (id, _) in live.streams.drain(..) {
            store.close(id);
        }
        for (id, source, captured) in &live.recordings {
            for i in *captured..source.frame_count {
                let size = source.frame(i).map_or(0, |f| f.size);
                let _ = store.append_frame(*id, size, now);
            }
            store.seal_recording(*id, now).unwrap();
        }
        committed_matches(&store, &live)?;
        prop_assert!(pump(&store, &mut now, 200_000), "the store never went quiet");
        for (id, ..) in live.recordings.drain(..) {
            prop_assert_eq!(store.durable(id), Some(true));
            store.finish(id).unwrap();
        }
        for id in live.copies.drain(..) {
            prop_assert_eq!(store.durable(id), Some(true));
            store.finish(id).unwrap();
        }
        prop_assert!(!store.rebuild_active());
        prop_assert_eq!(store.stats().committed_bps, 0);
        let stats = store.stats();
        prop_assert_eq!(
            (stats.open_streams, stats.recordings_active, stats.imports_active),
            (0, 0, 0)
        );
    }
}
