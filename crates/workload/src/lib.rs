#![warn(missing_docs)]
//! # workload — synthetic traffic and closed-loop evaluation
//!
//! The paper evaluates TencentRec on production traffic from Tencent News,
//! Tencent Videos, YiXun and QQ — data that is proprietary. This crate
//! substitutes a *generative* world model that preserves the property the
//! paper's experiments measure: **user interest has a fast-moving
//! component**, so a recommender that reacts to the last few minutes of
//! behaviour earns a higher click-through rate than one rebuilt hourly or
//! daily.
//!
//! * [`world`] — users (with demographics and drifting genre interests),
//!   items (with genre, tags, price, lifetime), and organic behaviour
//!   generation with Zipf popularity and session structure.
//! * [`click`] — the ground-truth click model: long-term affinity +
//!   session boost + freshness + position bias.
//! * [`sim`] — the closed loop: stream actions into a recommender, query
//!   it at recommendation positions, score the list with the click model,
//!   feed clicks back, and tally per-day CTR and read counts.
//! * [`apps`] — presets mirroring the four evaluated applications (news /
//!   videos / e-commerce / ads) and constructors for the TencentRec and
//!   "Original" arms.

pub mod apps;
pub mod click;
pub mod metrics;
pub mod sim;
pub mod world;

pub use click::ClickModel;
pub use metrics::{improvement_stats, DayMetrics, ImprovementStats};
pub use sim::{run_simulation, Position, SimConfig};
pub use world::{World, WorldConfig};
