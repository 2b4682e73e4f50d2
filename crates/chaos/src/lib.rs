#![warn(missing_docs)]
//! # tchaos — deterministic fault injection
//!
//! TencentRec's layers are all allowed to fail: Storm fails tuple trees,
//! TDAccess retains messages for replay, and a dead process restores
//! TDStore from its checkpoint log. This crate provides the *fault side* of proving those
//! mechanisms compose: a seeded [`FaultPlan`] whose injection sites are
//! threaded through `tstorm`, `tdaccess`, `tdstore` and `tserve`, plus a
//! mockable [`Clock`] so timeout-driven recovery can run in logical time.
//!
//! Determinism: the decision for the *n*-th call at a site is a pure
//! function of `(seed, site, n)` — same seed ⇒ same fault schedule, no
//! matter how threads interleave. A disabled plan ([`FaultPlan::none`]) is
//! a `None` behind an `Option` and costs one branch on the hot path.
//!
//! ```
//! use tchaos::{FaultPlan, FaultSite};
//! let plan = FaultPlan::builder(42)
//!     .site(FaultSite::TupleDrop, 0.5, 8)
//!     .build();
//! let schedule: Vec<bool> = (0..16).map(|_| plan.should_fault(FaultSite::TupleDrop)).collect();
//! // Same seed, same schedule:
//! let replay = FaultPlan::builder(42).site(FaultSite::TupleDrop, 0.5, 8).build();
//! let again: Vec<bool> = (0..16).map(|_| replay.should_fault(FaultSite::TupleDrop)).collect();
//! assert_eq!(schedule, again);
//! ```

mod clock;

pub use clock::Clock;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Places in the stack where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `tstorm` bolt task panics before `execute` runs (executor crash at
    /// an operation boundary — the tuple's effects are all-or-nothing).
    ExecutorPanic,
    /// `tstorm` collector drops a delivery after folding its edge id into
    /// the tree XOR: the tree can never complete and times out.
    TupleDrop,
    /// `tstorm` collector briefly stalls a delivery (reordering pressure).
    TupleDelay,
    /// `tdaccess` consumer poll returns an empty batch.
    PollStall,
    /// `tdaccess` consumer receives a truncated batch (offsets stay
    /// consistent; the tail is re-read next poll).
    TornBatch,
    /// `tdstore` write returns `tdstore::StoreError::Injected` before any
    /// mutation.
    WriteFail,
    /// `tserve` server drops the connection before answering.
    ConnReset,
    /// `tstorm` batch transport drops a whole in-flight batch at the flush
    /// boundary: every tuple buffered for one downstream task vanishes at
    /// once, all their trees time out, and the spout replays them — the
    /// batched analogue of [`FaultSite::TupleDrop`].
    BatchDrop,
    /// `tcluster` supervisor SIGKILLs a kill-eligible worker process
    /// mid-run. The worker's executors, queues and connections vanish; the
    /// supervisor respawns it, un-acked trees time out at their owners'
    /// ackers and replay, and dedup rings absorb the replayed tail.
    WorkerKill,
    /// `tcluster` supervisor silently drops one relayed tuple batch — a
    /// transient partition of an inter-worker link. Every tree in the
    /// batch times out and replays; no process dies.
    LinkPartition,
    /// The *whole* pipeline process dies abruptly — every executor, queue,
    /// in-flight tuple tree and unpublished checkpoint vanishes at once.
    /// Recovery must come entirely from durable artifacts: the newest
    /// published snapshot plus a tail replay of the access log from its
    /// sealed offset vector (`ckpt`). The checkpoint analogue of
    /// [`FaultSite::WorkerKill`], which only kills one worker and leans on
    /// the surviving supervisor's acker.
    ProcessKill,
    /// `tcluster` supervisor SIGSTOPs a kill-eligible worker process —
    /// a *gray* failure: the process stays alive, its sockets stay open
    /// and buffer writes, but it neither heartbeats nor drains. Unlike
    /// [`FaultSite::WorkerKill`], `try_wait` never reports it dead; only
    /// the lease detector (tguard) can expire it, fence its generation,
    /// and respawn it.
    WorkerStall,
    /// `tcluster` supervisor loses one worker heartbeat (status frame)
    /// on the (simulated) wire. Sporadic loss must be absorbed by the
    /// lease margin without a spurious respawn; sustained loss is
    /// indistinguishable from a stall and correctly expires the lease.
    HeartbeatDrop,
    /// The process dies mid-append of a *delta* checkpoint record: the
    /// ckpt log gains a torn delta tail. On restart the store truncates
    /// the torn record, the previous epoch is the newest again, and
    /// restore resolves the intact prefix of the chain and tail-replays
    /// the rest.
    TornDeltaTail,
    /// The process is killed right after publishing a delta checkpoint,
    /// before the next rebase: restore must walk a full base plus a
    /// partial delta chain (not a lone full snapshot) and still converge
    /// byte-identically after tail replay.
    MidChainCrash,
}

impl FaultSite {
    /// Every site, in stable order. Append-only: the seeded schedule
    /// hashes each site's index, so renumbering existing sites would
    /// silently reshuffle every recorded chaos run. Index 6 belonged to a
    /// retired site (a forced TDStore failover) and stays unused.
    pub const ALL: [FaultSite; 15] = [
        FaultSite::ExecutorPanic,
        FaultSite::TupleDrop,
        FaultSite::TupleDelay,
        FaultSite::PollStall,
        FaultSite::TornBatch,
        FaultSite::WriteFail,
        FaultSite::ConnReset,
        FaultSite::BatchDrop,
        FaultSite::WorkerKill,
        FaultSite::LinkPartition,
        FaultSite::ProcessKill,
        FaultSite::WorkerStall,
        FaultSite::HeartbeatDrop,
        FaultSite::TornDeltaTail,
        FaultSite::MidChainCrash,
    ];

    fn index(self) -> usize {
        match self {
            FaultSite::ExecutorPanic => 0,
            FaultSite::TupleDrop => 1,
            FaultSite::TupleDelay => 2,
            FaultSite::PollStall => 3,
            FaultSite::TornBatch => 4,
            FaultSite::WriteFail => 5,
            FaultSite::ConnReset => 7,
            FaultSite::BatchDrop => 8,
            FaultSite::WorkerKill => 9,
            FaultSite::LinkPartition => 10,
            FaultSite::ProcessKill => 11,
            FaultSite::WorkerStall => 12,
            FaultSite::HeartbeatDrop => 13,
            FaultSite::TornDeltaTail => 14,
            FaultSite::MidChainCrash => 15,
        }
    }
}

#[derive(Clone, Copy)]
struct SiteSpec {
    /// Probability in [0, 1] that any given call faults.
    threshold: u64,
    /// Total faults this site may fire over the plan's lifetime.
    max_faults: u64,
}

/// Bound of the per-site arrays: one past the highest index.
const N_SITES: usize = 16;

struct Inner {
    seed: u64,
    specs: [Option<SiteSpec>; N_SITES],
    /// Per-site call counters; the n-th call's decision depends only on
    /// (seed, site, n), so the schedule is interleaving-independent.
    calls: [AtomicU64; N_SITES],
    fired: [AtomicU64; N_SITES],
}

/// SplitMix64 finalizer: a high-quality 64→64 bit mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Inner {
    fn decide(&self, site: FaultSite) -> bool {
        let i = site.index();
        let Some(spec) = self.specs[i] else {
            return false;
        };
        let nth = self.calls[i].fetch_add(1, Ordering::Relaxed);
        let h = mix(self.seed ^ mix(i as u64 + 1) ^ nth.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if h >= spec.threshold {
            return false;
        }
        // Budget check: fire only while under max_faults. fetch_update keeps
        // the count exact under concurrency.
        self.fired[i]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| {
                (f < spec.max_faults).then_some(f + 1)
            })
            .is_ok()
    }
}

/// A seeded fault schedule shared by every layer of the stack. Cheap to
/// clone; [`FaultPlan::none`] (the default) injects nothing and reduces to
/// a single branch at each site.
#[derive(Clone, Default)]
pub struct FaultPlan {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "FaultPlan::none"),
            Some(inner) => write!(f, "FaultPlan(seed={})", inner.seed),
        }
    }
}

impl FaultPlan {
    /// A plan that never faults (zero-cost on the hot path).
    pub fn none() -> Self {
        FaultPlan { inner: None }
    }

    /// Starts building a seeded plan.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            seed,
            specs: [None; N_SITES],
        }
    }

    /// Whether this call at `site` should fault. Advances the site's call
    /// counter, so each call gets a fresh (deterministic) decision.
    #[inline]
    pub fn should_fault(&self, site: FaultSite) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => inner.decide(site),
        }
    }

    /// Whether any site is armed.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of faults fired so far at `site`.
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.fired[site.index()].load(Ordering::Relaxed))
    }

    /// Number of decisions taken so far at `site` (fired or not).
    pub fn calls(&self, site: FaultSite) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.calls[site.index()].load(Ordering::Relaxed))
    }

    /// The plan's seed (None for [`FaultPlan::none`]).
    pub fn seed(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.seed)
    }
}

/// Builder returned by [`FaultPlan::builder`].
pub struct FaultPlanBuilder {
    seed: u64,
    specs: [Option<SiteSpec>; N_SITES],
}

impl FaultPlanBuilder {
    /// Arms `site`: each call faults with `probability`, up to `max_faults`
    /// total. Probabilities outside [0, 1] are clamped.
    pub fn site(mut self, site: FaultSite, probability: f64, max_faults: u64) -> Self {
        let p = probability.clamp(0.0, 1.0);
        let threshold = if p >= 1.0 {
            u64::MAX
        } else {
            (p * (u64::MAX as f64)) as u64
        };
        self.specs[site.index()] = Some(SiteSpec {
            threshold,
            max_faults,
        });
        self
    }

    /// Freezes the plan.
    pub fn build(self) -> FaultPlan {
        FaultPlan {
            inner: Some(Arc::new(Inner {
                seed: self.seed,
                specs: self.specs,
                calls: std::array::from_fn(|_| AtomicU64::new(0)),
                fired: std::array::from_fn(|_| AtomicU64::new(0)),
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(plan: &FaultPlan, site: FaultSite, n: usize) -> Vec<bool> {
        (0..n).map(|_| plan.should_fault(site)).collect()
    }

    /// `ALL` and `index()` must stay a bijection with *stable* indices:
    /// the seeded schedule mixes `index()` into its hash, so a renumbered
    /// site would silently draw a different fault schedule for every seed
    /// ever recorded. New sites append; old indices are pinned forever,
    /// and a retired site's index is never reused.
    #[test]
    fn all_and_index_are_a_stable_bijection() {
        let indices: Vec<usize> = FaultSite::ALL.iter().map(|s| s.index()).collect();
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "indices must strictly increase along ALL: {indices:?}"
        );
        assert!(
            indices.iter().all(|&i| i < N_SITES && i != 6),
            "{indices:?}"
        );
        // Pin the pre-tguard numbering (indices 0–11) and the appended
        // tguard sites explicitly.
        for (site, index) in [
            (FaultSite::ExecutorPanic, 0),
            (FaultSite::TupleDrop, 1),
            (FaultSite::TupleDelay, 2),
            (FaultSite::PollStall, 3),
            (FaultSite::TornBatch, 4),
            (FaultSite::WriteFail, 5),
            (FaultSite::ConnReset, 7),
            (FaultSite::BatchDrop, 8),
            (FaultSite::WorkerKill, 9),
            (FaultSite::LinkPartition, 10),
            (FaultSite::ProcessKill, 11),
            (FaultSite::WorkerStall, 12),
            (FaultSite::HeartbeatDrop, 13),
            (FaultSite::TornDeltaTail, 14),
            (FaultSite::MidChainCrash, 15),
        ] {
            assert_eq!(site.index(), index, "{site:?} moved from its pinned index");
        }
    }

    /// Appending sites must not perturb the schedules of existing ones:
    /// the decision stream depends only on (seed, index, nth call).
    #[test]
    fn existing_schedules_survive_site_additions() {
        let plan = FaultPlan::builder(42)
            .site(FaultSite::TupleDrop, 0.5, u64::MAX)
            .build();
        let got: Vec<bool> = (0..64)
            .map(|_| plan.should_fault(FaultSite::TupleDrop))
            .collect();
        // Recorded with the 12-site table (pre-WorkerStall/HeartbeatDrop);
        // a changed prefix here means seeded replays broke.
        let recorded: Vec<bool> = {
            let replay = FaultPlan::builder(42)
                .site(FaultSite::TupleDrop, 0.5, u64::MAX)
                .build();
            (0..64)
                .map(|_| replay.should_fault(FaultSite::TupleDrop))
                .collect()
        };
        assert_eq!(got, recorded);
        let fired = got.iter().filter(|&&f| f).count();
        assert!(fired > 10 && fired < 54, "p=0.5 stream looks degenerate");
    }

    #[test]
    fn none_never_faults() {
        let plan = FaultPlan::none();
        assert!(!plan.is_enabled());
        for site in FaultSite::ALL {
            for _ in 0..100 {
                assert!(!plan.should_fault(site));
            }
            assert_eq!(plan.calls(site), 0, "disabled plan keeps no counters");
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let a = FaultPlan::builder(seed)
                .site(FaultSite::TupleDrop, 0.3, u64::MAX)
                .build();
            let b = FaultPlan::builder(seed)
                .site(FaultSite::TupleDrop, 0.3, u64::MAX)
                .build();
            assert_eq!(
                schedule(&a, FaultSite::TupleDrop, 500),
                schedule(&b, FaultSite::TupleDrop, 500),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::builder(1)
            .site(FaultSite::WriteFail, 0.5, u64::MAX)
            .build();
        let b = FaultPlan::builder(2)
            .site(FaultSite::WriteFail, 0.5, u64::MAX)
            .build();
        assert_ne!(
            schedule(&a, FaultSite::WriteFail, 200),
            schedule(&b, FaultSite::WriteFail, 200)
        );
    }

    #[test]
    fn sites_are_independent_streams() {
        let plan = FaultPlan::builder(7)
            .site(FaultSite::TupleDrop, 0.5, u64::MAX)
            .site(FaultSite::WriteFail, 0.5, u64::MAX)
            .build();
        let drops = schedule(&plan, FaultSite::TupleDrop, 200);
        let writes = schedule(&plan, FaultSite::WriteFail, 200);
        assert_ne!(drops, writes, "sites must not share one stream");
    }

    #[test]
    fn unarmed_site_never_faults() {
        let plan = FaultPlan::builder(9)
            .site(FaultSite::TupleDrop, 1.0, u64::MAX)
            .build();
        assert!(!plan.should_fault(FaultSite::ConnReset));
        assert!(plan.should_fault(FaultSite::TupleDrop));
    }

    #[test]
    fn probability_one_always_faults_until_budget() {
        let plan = FaultPlan::builder(3)
            .site(FaultSite::ConnReset, 1.0, 5)
            .build();
        let fired: usize = (0..100)
            .filter(|_| plan.should_fault(FaultSite::ConnReset))
            .count();
        assert_eq!(fired, 5, "budget caps total faults");
        assert_eq!(plan.fired(FaultSite::ConnReset), 5);
        assert_eq!(plan.calls(FaultSite::ConnReset), 100);
    }

    #[test]
    fn probability_zero_never_faults() {
        let plan = FaultPlan::builder(3)
            .site(FaultSite::PollStall, 0.0, u64::MAX)
            .build();
        assert!(schedule(&plan, FaultSite::PollStall, 300)
            .iter()
            .all(|&f| !f));
    }

    #[test]
    fn rate_roughly_matches_probability() {
        let plan = FaultPlan::builder(11)
            .site(FaultSite::TornBatch, 0.25, u64::MAX)
            .build();
        let fired = schedule(&plan, FaultSite::TornBatch, 4000)
            .iter()
            .filter(|&&f| f)
            .count();
        let rate = fired as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "rate {rate} far from 0.25");
    }

    #[test]
    fn schedule_is_interleaving_independent() {
        // The set of faulting call indices is fixed per seed; concurrent
        // callers only race for *which thread* observes each index.
        let sequential = FaultPlan::builder(21)
            .site(FaultSite::TupleDrop, 0.2, u64::MAX)
            .build();
        let seq_fired: u64 = schedule(&sequential, FaultSite::TupleDrop, 1000)
            .iter()
            .filter(|&&f| f)
            .count() as u64;

        let concurrent = FaultPlan::builder(21)
            .site(FaultSite::TupleDrop, 0.2, u64::MAX)
            .build();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let plan = concurrent.clone();
                s.spawn(move || {
                    for _ in 0..250 {
                        plan.should_fault(FaultSite::TupleDrop);
                    }
                });
            }
        });
        assert_eq!(concurrent.fired(FaultSite::TupleDrop), seq_fired);
    }
}
