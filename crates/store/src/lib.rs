//! `store` — the continuous-media storage subsystem of the MCAM
//! server.
//!
//! The paper's server streams XMovie films from disk; this crate
//! models the disk side of that path as a first-class, contended
//! resource so the stream provider can refuse work it cannot deliver:
//!
//! - [`StripeLayout`] — movies laid out block-interleaved across N
//!   simulated disks, with a property-tested bijective
//!   block → (disk, offset) map;
//! - [`Disk`] / [`DiskParams`] — a per-disk seek + transfer cost
//!   model on the `netsim` virtual clock, serving its request queue
//!   FIFO or in elevator/SCAN sweeps ([`DiskSched`]);
//! - [`BufferCache`] — a bounded block cache with LRU and
//!   interval-caching replacement ([`CachePolicy`]), the latter
//!   exploiting closely-spaced viewers of the same movie;
//! - per-stream prefetchers inside [`BlockStore`] that pipeline block
//!   reads ahead of the MTP sender's frame deadlines;
//! - [`AdmissionController`] — disk-bandwidth admission control that
//!   rejects streams whose demand would exceed capacity, surfaced to
//!   clients as a negative MCAM response;
//! - a **write path** for recorded movies: recording sessions
//!   ([`BlockStore::open_recording`] / `append_frame` /
//!   `seal_recording`, then [`BlockStore::durable`] /
//!   [`BlockStore::finish`]) accumulate captured frames into blocks,
//!   allocate free blocks per disk ([`BlockAllocator`]), stage dirty
//!   blocks through the buffer cache, and queue writes on the same
//!   elevator/SCAN disk queues as playback reads — recording commits
//!   real write bandwidth against the same admission capacity, and
//!   [`BlockStore::import_movie`] copies a finished recording onto a
//!   replica's disks;
//! - **one reservation lifecycle** for every disk user: streams,
//!   recordings, paced migration copies ([`BlockStore::begin_import`])
//!   and the spindle rebuild ([`BlockStore::begin_rebuild`]) are each
//!   admitted against the one bandwidth budget, journaled, paced, and
//!   released by [`BlockStore::close`] or [`BlockStore::finish`].
//!
//! # Examples
//!
//! ```
//! use store::{BlockStore, StoreConfig};
//! use mtp::MovieSource;
//! use netsim::SimTime;
//!
//! let store = BlockStore::new(StoreConfig::default());
//! let movie = MovieSource::test_movie(10, 42);
//! let id = store.register_movie(&movie);
//! store.open_stream(1, id, 100, SimTime::ZERO).expect("fits easily");
//! // Drive the disks until the whole movie is resident.
//! while let Some(t) = store.next_event() {
//!     store.pump(t);
//! }
//! assert_eq!(store.frames_ready_through(1), Some(movie.frame_count));
//! ```

#![warn(missing_docs)]

mod admission;
mod alloc;
mod cache;
mod disk;
mod layout;
mod store;

pub use admission::{AdmissionController, AdmissionStats, Rejection};
pub use alloc::BlockAllocator;
pub use cache::{BlockKey, BufferCache, CachePolicy, CacheStats};
pub use disk::{Disk, DiskParams, DiskSched, DiskStats, IoKind};
pub use layout::{BlockAddr, BlockMap, MovieId, StripeLayout};
pub use store::{
    BlockStore, PrefetchDirection, PrefetchHint, RecordingSummary, StoreConfig, StoreError,
    StoreStats,
};
