#![warn(missing_docs)]
//! # tencentrec — real-time stream recommendation
//!
//! A from-scratch Rust reproduction of **TencentRec: Real-time Stream
//! Recommendation in Practice** (Huang et al., SIGMOD 2015): a general
//! real-time recommender built on a Storm-model stream processor
//! ([`tstorm`]), with status data in a memory KV store ([`tdstore`]).
//!
//! The core contribution is the practical item-based collaborative
//! filtering in [`cf`]: robust to implicit feedback (action-weight
//! ratings, min co-ratings), incrementally updatable at stream speed
//! (itemCount/pairCount decomposition), pruned in real time with a
//! Hoeffding bound, and windowed per session. Around it sit the other
//! production algorithms of §4–§5: content-based ([`cb`]), demographic
//! ([`db`]), association rules ([`ar`]), situational CTR ([`ctr`]), the
//! real-time filtering mechanisms ([`filtering`]), and the engineering
//! devices: multi-hash group aggregation ([`topology::demographic`]), and
//! §5.3's combiner and §5.2's fine-grained cache as the CF topology does
//! them, per run of tuples ([`topology::bolts::ItemCountBolt`] merges a
//! run's same-key deltas into one store update, and
//! [`topology::bolts::CfPairBolt`] reads each item count once per run).
//!
//! [`engine::RecommendEngine`] ties the algorithms together the way the
//! deployed system does (CF/CB candidates → real-time personalised
//! filtering → demographic complement), and [`topology`] wires everything
//! as spouts and bolts over `tstorm` with state in `tdstore`, mirroring
//! the paper's Fig. 6.
//!
//! ```
//! use tencentrec::action::{ActionType, UserAction};
//! use tencentrec::cf::{CfConfig, ItemCF};
//!
//! let mut cf = ItemCF::new(CfConfig::default());
//! // Everyone who clicks the keyboard also buys the mouse...
//! for user in 0..20 {
//!     cf.process(&UserAction::new(user, 1, ActionType::Click, user));
//!     cf.process(&UserAction::new(user, 2, ActionType::Purchase, user + 1));
//! }
//! // ...so a fresh keyboard-clicker is recommended the mouse.
//! cf.process(&UserAction::new(999, 1, ActionType::Click, 100));
//! let recs = cf.recommend(999, 3);
//! assert_eq!(recs[0].item, 2);
//! ```

pub mod action;
pub mod ar;
pub mod baseline;
pub mod catalog;
pub mod cb;
pub mod cf;
pub mod ctr;
pub mod db;
pub mod engine;
pub mod fields;
pub mod filtering;
pub mod interner;
pub mod topology;
pub mod types;

pub use action::{ActionType, ActionWeights, UserAction};
pub use cf::{CfConfig, ItemCF, Recommendation};
pub use engine::RecommendEngine;
pub use types::{ItemId, Timestamp, UserId};
