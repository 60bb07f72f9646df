//! Integration tests for disk-bandwidth admission control: overload
//! is rejected with an accurate bandwidth report, release re-admits,
//! and renegotiation (speed changes) respects the same budget.

use mtp::MovieSource;
use netsim::SimTime;
use store::{BlockStore, CachePolicy, DiskParams, StoreConfig, StoreError};

/// A deliberately tight store: one slow disk.
fn tight_config() -> StoreConfig {
    StoreConfig {
        disks: 1,
        block_size: 128 * 1024,
        cache_blocks: 16,
        policy: CachePolicy::Lru,
        disk: DiskParams {
            transfer_bytes_per_sec: 1_000_000,
            ..DiskParams::default()
        },
        ..StoreConfig::default()
    }
}

#[test]
fn overload_rejects_then_release_readmits() {
    let store = BlockStore::new(tight_config());
    let movie = MovieSource::test_movie(60, 11);
    let id = store.register_movie(&movie);
    let per_stream = store.bitrate_of(id).expect("registered");
    let capacity = store.config().capacity_bps();
    let expect_fit = (capacity / per_stream) as u32;
    assert!(expect_fit >= 1, "config must fit at least one stream");

    // Admit until the controller refuses.
    let mut admitted = Vec::new();
    let rejection = loop {
        let stream = admitted.len() as u32;
        match store.open_stream(stream, id, 100, SimTime::ZERO) {
            Ok(()) => admitted.push(stream),
            Err(e) => break e,
        }
        assert!(
            admitted.len() <= expect_fit as usize,
            "over-admitted past capacity"
        );
    };
    assert_eq!(
        admitted.len(),
        expect_fit as usize,
        "fills exactly to capacity"
    );

    // The rejection reports real numbers: demand exceeds what is left.
    let StoreError::AdmissionRejected {
        demanded_bps,
        available_bps,
    } = rejection
    else {
        panic!("expected AdmissionRejected, got {rejection:?}");
    };
    assert_eq!(demanded_bps, per_stream);
    assert!(available_bps < per_stream);
    assert_eq!(available_bps, capacity - per_stream * u64::from(expect_fit));

    // While full, every further request is refused.
    assert!(store.open_stream(1000, id, 100, SimTime::ZERO).is_err());

    // Releasing one stream makes room for exactly one more.
    store.close(admitted[0]);
    store
        .open_stream(2000, id, 100, SimTime::ZERO)
        .expect("re-admitted after release");
    assert!(store.open_stream(2001, id, 100, SimTime::ZERO).is_err());

    let stats = store.stats();
    assert_eq!(stats.open_streams, expect_fit as usize);
    assert!(stats.admission.rejected >= 2);
    assert_eq!(stats.committed_bps, per_stream * u64::from(expect_fit));
}

#[test]
fn faster_playback_demands_more_bandwidth() {
    let store = BlockStore::new(tight_config());
    let movie = MovieSource::test_movie(60, 12);
    let id = store.register_movie(&movie);
    let per_stream = store.bitrate_of(id).unwrap();
    let capacity = store.config().capacity_bps();

    store.open_stream(1, id, 100, SimTime::ZERO).unwrap();
    // Fill the rest of the budget.
    let mut next = 2u32;
    while store.open_stream(next, id, 100, SimTime::ZERO).is_ok() {
        next += 1;
    }
    // Stream 1 cannot double its speed on a full store...
    let double = store.demand_for(id, 200).unwrap();
    let err = store.adjust(1, double).unwrap_err();
    assert!(matches!(err, StoreError::AdmissionRejected { .. }));
    // ...but after a neighbour leaves, it can.
    store.close(2);
    store.adjust(1, double).unwrap();
    // And its commitment doubled: the freed slot is consumed.
    assert!(store.open_stream(999, id, 100, SimTime::ZERO).is_err());
    let _ = (per_stream, capacity);
}

#[test]
fn slow_motion_frees_bandwidth() {
    let store = BlockStore::new(tight_config());
    let movie = MovieSource::test_movie(60, 13);
    let id = store.register_movie(&movie);
    store.open_stream(1, id, 100, SimTime::ZERO).unwrap();
    let mut ids = Vec::new();
    let mut next = 2u32;
    while store.open_stream(next, id, 100, SimTime::ZERO).is_ok() {
        ids.push(next);
        next += 1;
    }
    // Halving stream 1's speed frees half a slot — not enough for a
    // full-rate newcomer when the budget fits them exactly, but a
    // half-rate newcomer fits.
    store.adjust(1, store.demand_for(id, 50).unwrap()).unwrap();
    let refit = store.open_stream(next, id, 50, SimTime::ZERO);
    assert!(
        refit.is_ok(),
        "half-rate stream fits in the freed half slot: {refit:?}"
    );
}

#[test]
fn admission_survives_real_streaming() {
    // Admitted streams must actually receive their blocks even while
    // the store is saturated with other viewers.
    let store = BlockStore::new(tight_config());
    let movie = MovieSource::test_movie(20, 14);
    let id = store.register_movie(&movie);
    let mut streams = Vec::new();
    while store
        .open_stream(streams.len() as u32, id, 100, SimTime::ZERO)
        .is_ok()
    {
        streams.push(streams.len() as u32);
    }
    let mut now = SimTime::ZERO;
    let mut guard = 0;
    while streams
        .iter()
        .any(|s| store.frames_ready_through(*s) != Some(movie.frame_count))
    {
        if let Some(t) = store.next_event() {
            now = now.max(t);
        }
        store.pump(now);
        for s in &streams {
            store.note_position(*s, store.frames_ready_through(*s).unwrap_or(0));
        }
        guard += 1;
        assert!(
            guard < 200_000,
            "saturated store failed to deliver admitted streams"
        );
    }
    let stats = store.stats();
    assert!(stats.blocks_delivered > 0);
    assert!(stats.disks[0].reads > 0);
}
