//! Storage engines. Of the paper's four data-server engines (MDB memory,
//! LDB, RDB, FDB file) one has a job here: [`MdbEngine`] holds the status
//! data. Each data instance is one MDB engine, the only copy of its keys
//! while the process runs. What survives a process death is the
//! checkpoint log, a file the [`SnapshotStore`](crate::SnapshotStore)
//! appends its epoch records to: no engine sits under it.

mod mdb;

pub use mdb::MdbEngine;
