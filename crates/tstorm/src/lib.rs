#![warn(missing_docs)]
//! # tstorm — a Storm-model stream processor in a single process
//!
//! `tstorm` reproduces the Apache Storm programming model that TencentRec
//! (SIGMOD 2015) is built on: **spouts** produce unbounded streams of
//! **tuples**, **bolts** transform them, and **stream groupings** decide how
//! tuples are partitioned over a component's parallel tasks. The paper's
//! algorithms rely only on these semantics — in particular on *fields
//! grouping* guaranteeing that all updates for one key reach one task — so a
//! multi-threaded single-process runtime preserves the behaviour of the
//! production cluster while staying runnable on a laptop.
//!
//! Features:
//!
//! * bounded per-task input queues (producers block → backpressure),
//! * shuffle / fields / all / global groupings with deterministic FNV
//!   hashing,
//! * tick tuples for time-driven flushing (combiners, windows),
//! * Storm's XOR **acker** giving at-least-once tracking with message
//!   timeouts,
//! * per-component metrics,
//! * topology construction from an XML config (the paper's Fig. 7) via a
//!   built-in minimal XML parser and a component registry.
//!
//! Multi-process placement and failure recovery (Fig. 1) live in the
//! `tcluster` crate, which runs slices of one topology in worker
//! processes.
//!
//! ## Example
//!
//! ```
//! use tstorm::prelude::*;
//! use std::sync::{Arc, Mutex};
//! use std::time::Duration;
//!
//! struct CounterSpout(u64);
//! impl Spout for CounterSpout {
//!     fn next_tuple(&mut self, c: &mut SpoutCollector) -> bool {
//!         if self.0 == 0 { return false; }
//!         self.0 -= 1;
//!         c.emit(vec![Value::U64(self.0 % 3)], Some(self.0));
//!         true
//!     }
//!     fn declare_outputs(&self) -> Vec<StreamDef> {
//!         vec![StreamDef::new("default", ["key"])]
//!     }
//! }
//!
//! let seen = Arc::new(Mutex::new(0u64));
//! let seen2 = Arc::clone(&seen);
//! let mut b = TopologyBuilder::new();
//! b.set_spout("numbers", || CounterSpout(30), 1);
//! b.set_bolt("count", move || {
//!     let seen = Arc::clone(&seen2);
//!     move |_t: &Tuple, _c: &mut BoltCollector| {
//!         *seen.lock().unwrap() += 1;
//!         Ok(())
//!     }
//! }, 2).fields_grouping("numbers", ["key"]);
//! let handle = b.build().unwrap().launch();
//! assert!(handle.wait_idle(Duration::from_secs(5)));
//! handle.shutdown(Duration::from_secs(1));
//! assert_eq!(*seen.lock().unwrap(), 30);
//! ```

pub mod ack;
pub(crate) mod channel;
pub mod collector;
pub mod component;
pub mod config;
pub mod executor;
pub mod grouping;
pub mod metrics;
pub mod remote;
pub mod topology;
pub mod tuple;
pub mod xml;

/// Common imports for building topologies.
pub mod prelude {
    pub use crate::collector::{BoltCollector, SpoutCollector};
    pub use crate::component::{Bolt, Spout, SpoutWaker, StreamDef, TaskContext};
    pub use crate::executor::TopologyHandle;
    pub use crate::grouping::Grouping;
    pub use crate::metrics::MetricsSnapshot;
    pub use crate::topology::{TopologyBuilder, TopologyConfig, TopologyError};
    pub use crate::tuple::{Schema, Tuple, Value, DEFAULT_STREAM};
}

pub use prelude::*;
