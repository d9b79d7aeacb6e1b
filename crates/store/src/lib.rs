//! # gk-store — durable persistence for the resident resolver
//!
//! PR 1/2 made the terminal `Eq(G, Σ)` resident and parallel; this crate
//! makes it **durable**. The resident server's state — graph, key set,
//! terminal equivalence relation with its step → key attribution — is
//! persisted as point-in-time snapshot files plus an append-only
//! write-ahead log of accepted update batches, so a restart costs
//! *load + WAL replay* instead of *reload + full re-chase*, and discovered
//! keys plus their consequences become reusable on-disk artifacts.
//!
//! Three layers, each testable alone:
//!
//! | module | role |
//! |--------|------|
//! | [`codec`] | hand-rolled binary encoding (length-prefixed, CRC-32-checked frames; fixed-width LE integers) for graphs, key sets, chase steps and triple specs |
//! | [`wal`] | the append-only log: each record's update and commit [`Outcome`], fsync policies ([`FsyncMode`]), torn-tail detection and truncation on reopen |
//! | [`store`] | the data directory: snapshot selection, WAL-suffix recovery, compaction |
//!
//! No serialization framework is involved — the build environment has no
//! registry access (the same constraint that produced the `vendor/`
//! shims), so the format is written by hand and documented in DESIGN.md.
//!
//! The crate stores **generators, not caches**: a snapshot holds the
//! graph, the Σ DSL text and the chase's merge log, and each WAL record
//! holds its update plus the commit's edit of that log ([`Outcome`]);
//! compiled keys, canonical representatives and duplicate clusters are
//! rebuilt at load. Applying the records is the server's job
//! (`gk-server`), keeping this crate free of matching logic.

#![warn(missing_docs)]

pub mod codec;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use snapshot::{LoadedSnapshot, SnapshotData};
pub use store::{CompactReport, Durability, Recovered, Store};
pub use wal::{scan_wal, FsyncMode, Kept, Outcome, WalOp, WalRecord, WalScan, WAL_HEADER_LEN};
