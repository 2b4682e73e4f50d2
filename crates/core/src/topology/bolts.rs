//! The bolts of the CF pipeline (Fig. 4 mapped onto Fig. 6), fed by a
//! [`ReplayableSpout`](crate::topology::ReplayableSpout).
//!
//! Every bolt is state-free: all cross-tuple state lives in TDStore, so a
//! restarted task resumes exactly where the store left off. Routing
//! guarantees make the store updates conflict-free: actions are grouped by
//! user (histories), item deltas by item (`itemCount`s), pair deltas by
//! pair (`pairCount`s and similarity), mirroring §4.1.3's "by the key
//! grouping, only a single worker node should operate over a specific item
//! pair".
//!
//! Pair deltas travel packed: one [`PAIR_DELTA`] tuple per action and
//! `cf_pair` task carries every pair of the action that routes to that
//! task ([`pair_block`]), so a pair still reaches the one task that owns
//! it while the transport pays per block, not per pair.

use crate::action::{ActionType, ActionWeights};
use crate::cf::counts::WindowConfig;
use crate::cf::pruning::PruneState;
use crate::fields::FieldIndex;
use crate::topology::replay::DEFAULT_MAX_PENDING;
use crate::topology::state::{
    apply_action_in_place, apply_counter_deltas, f64_at, item_count, pair_count, session_key,
    session_of, u64_at, update_sim_list, user_history, window_sessions, windowed_sum,
    windowed_sum_with, HistoryAction, HistoryEdit, HistoryLimits, SimRecord,
};
use crate::types::{FxHashMap, ItemId, ItemPair};
use std::hash::Hash;
use std::sync::Arc;
use tdstore::TdStore;
use tstorm::prelude::*;

/// Same-key runs of one batch: keys in first-arrival order, found by
/// hash, each with its entries in arrival order. Entries go into one
/// buffer and are grouped by key in one counting-sort pass
/// ([`Runs::group`]), so no run allocates; a bolt keeps its `Runs` and
/// clears them per batch, reusing every buffer.
struct Runs<K, T> {
    at: FxHashMap<K, usize>,
    keys: Vec<K>,
    /// `(run, entry)` in arrival order.
    arrivals: Vec<(usize, T)>,
    /// After [`Runs::group`]: run `i`'s entries, in arrival order, are
    /// `grouped[ends[i - 1]..ends[i]]` (from 0 for the first run).
    ends: Vec<usize>,
    grouped: Vec<T>,
}

impl<K, T> Default for Runs<K, T> {
    fn default() -> Self {
        Runs {
            at: FxHashMap::default(),
            keys: Vec::new(),
            arrivals: Vec::new(),
            ends: Vec::new(),
            grouped: Vec::new(),
        }
    }
}

impl<K: Copy + Eq + Hash, T: Copy> Runs<K, T> {
    fn clear(&mut self) {
        self.at.clear();
        self.keys.clear();
        self.arrivals.clear();
    }

    /// Appends `entry` to `key`'s run, opening a run for a new key, and
    /// returns the run's index and whether it is new.
    fn push(&mut self, key: K, entry: T) -> (usize, bool) {
        let next = self.keys.len();
        let run = *self.at.entry(key).or_insert(next);
        if run == next {
            self.keys.push(key);
        }
        self.arrivals.push((run, entry));
        (run, run == next)
    }

    /// Number of runs.
    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Lays every run's entries out contiguously, keeping arrival order
    /// within a run; call after the last `push` and before reading runs.
    fn group(&mut self) {
        self.ends.clear();
        self.ends.resize(self.keys.len(), 0);
        for &(run, _) in &self.arrivals {
            self.ends[run] += 1;
        }
        // Counts become each run's start, then advance to its end as the
        // entries are placed.
        let mut start = 0;
        for end in &mut self.ends {
            let count = *end;
            *end = start;
            start += count;
        }
        self.grouped.clear();
        if let Some(&(_, fill)) = self.arrivals.first() {
            self.grouped.resize(self.arrivals.len(), fill);
        }
        for &(run, entry) in &self.arrivals {
            self.grouped[self.ends[run]] = entry;
            self.ends[run] += 1;
        }
    }

    /// Run `i`'s key and entries (after [`Runs::group`]).
    fn run(&self, i: usize) -> (K, &[T]) {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        (self.keys[i], &self.grouped[start..self.ends[i]])
    }

    /// Every run, in first-arrival order (after [`Runs::group`]).
    fn runs(&self) -> impl Iterator<Item = (K, &[T])> {
        (0..self.len()).map(|i| self.run(i))
    }
}

/// Bytes one pair takes in a packed [`PAIR_DELTA`] block: `a`, `b` and the
/// delta's bits, each a little-endian `u64`.
const PAIR_BYTES: usize = 24;

/// The `(a, b, delta)` entries of a packed [`PAIR_DELTA`] block (its
/// `pairs` field), in the order they were packed. A trailing partial entry
/// is ignored.
pub fn pair_block(raw: &[u8]) -> impl Iterator<Item = (ItemId, ItemId, f64)> + '_ {
    raw.chunks_exact(PAIR_BYTES)
        .map(|e| (u64_at(e, 0), u64_at(e, 8), f64_at(e, 16)))
}

/// One [`PAIR_DELTA`] block being packed: the task its pairs route to, its
/// first pair (whose ends the block carries as its key) and its entries.
#[derive(Default)]
struct PairBlock {
    task: usize,
    key: (ItemId, ItemId),
    bytes: Vec<u8>,
}

/// Stream carrying item-count deltas.
pub const ITEM_DELTA: &str = "item_delta";
/// Stream carrying pair-count deltas.
pub const PAIR_DELTA: &str = "pair_delta";

/// Shared CF-pipeline parameters.
#[derive(Debug, Clone)]
pub struct CfPipelineConfig {
    /// Implicit-feedback weights.
    pub weights: ActionWeights,
    /// Linked time for pair formation.
    pub linked_time_ms: u64,
    /// Sliding window (None = unbounded counts).
    pub window: Option<WindowConfig>,
    /// Similar-items list size.
    pub top_k: usize,
    /// Recent items used at query time.
    pub recent_k: usize,
    /// Hoeffding δ; None disables pruning.
    pub pruning_delta: Option<f64>,
    /// Per-user history size bound in the store.
    pub max_history: usize,
    /// Replay memory: the replay horizon, in offsets per partition, within
    /// which every counter and history remembers the sources it applied,
    /// so redelivered tuples (at-least-once upstream) have exactly-once
    /// effects. Every history and counter is stored in the same format
    /// whatever this is; 0 remembers nothing, so a redelivery applies
    /// again. At least the spout's `max_pending`, this is exact: the spout
    /// emits nothing that far past a partition's committed watermark, so
    /// a source is forgotten only once no redelivery of it can come
    /// ([`past_horizon`]). Defaults to [`DEFAULT_MAX_PENDING`], the
    /// default spout's cap.
    ///
    /// [`past_horizon`]: crate::topology::replay::past_horizon
    pub dedup_window: usize,
    /// Metric registry the pipeline's bolts register into (history log
    /// size, pruning state). [`build_cf_topology_with_spout`] shares this
    /// registry with the tstorm runtime, so one exposition covers
    /// framework and application metrics.
    ///
    /// [`build_cf_topology_with_spout`]: crate::topology::build_cf_topology_with_spout
    pub registry: obs::Registry,
}

impl Default for CfPipelineConfig {
    fn default() -> Self {
        CfPipelineConfig {
            weights: ActionWeights::default(),
            linked_time_ms: 6 * 60 * 60 * 1000,
            window: None,
            top_k: 20,
            recent_k: 10,
            pruning_delta: None,
            max_history: 1024,
            dedup_window: DEFAULT_MAX_PENDING,
            registry: obs::Registry::new(),
        }
    }
}

impl CfPipelineConfig {
    /// Session bucket for a timestamp (`u64::MAX` = the un-windowed
    /// bucket).
    pub fn session_of(&self, ts: u64) -> u64 {
        session_of(self.window, ts)
    }

    /// Window length in sessions (0 = un-windowed).
    pub fn window_sessions(&self) -> usize {
        window_sessions(self.window)
    }
}

/// Pretreatment (§5.1): parses and validates raw tuples, dropping
/// unqualified ones, and forwards clean action tuples. User and item ids
/// arrive as dense `u64`s — a front end with string keys interns them
/// before it logs the action ([`crate::interner::Interner`]), so an id a
/// replay reads back is the id the store already counts under.
pub struct PretreatmentBolt {
    dropped: u64,
    fields: FieldIndex<5>,
}

impl PretreatmentBolt {
    /// New bolt.
    pub fn new() -> Self {
        PretreatmentBolt {
            dropped: 0,
            fields: FieldIndex::new(["user", "item", "action", "ts", "src"]),
        }
    }
}

impl Default for PretreatmentBolt {
    fn default() -> Self {
        Self::new()
    }
}

impl Bolt for PretreatmentBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        let [user_i, item_i, action_i, _, _] = *self.fields.resolve(tuple);
        let values = tuple.values();
        let code = values[action_i].as_u64().unwrap_or(u64::MAX);
        let qualified = code <= u8::MAX as u64
            && ActionType::from_code(code as u8).is_some()
            && values[user_i].as_u64().is_some()
            && values[item_i].as_u64().is_some();
        if !qualified {
            self.dropped += 1;
            return Ok(()); // unqualified tuple: filtered, still acked
        }
        collector.emit_values(values);
        Ok(())
    }

    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(
            DEFAULT_STREAM,
            ["user", "item", "action", "ts", "src"],
        )]
    }
}

/// The user-behaviour-history layer (Fig. 4, layer 1). Grouped by `user`;
/// history state lives in TDStore under `hist:<user>` and each action is
/// one conditional in-place [`TdStore::modify`] of it
/// ([`apply_action_in_place`]): no decoded copy outlives the tuple, so a
/// failed write or a restore leaves nothing here to invalidate.
pub struct UserHistoryBolt {
    store: TdStore,
    config: CfPipelineConfig,
    fields: FieldIndex<5>,
    /// The current tuple's pair deltas, reused across tuples.
    pair_deltas: Vec<(ItemId, ItemId, f64)>,
    /// The current tuple's pair blocks, one per `cf_pair` task
    /// ([`pack_pairs`] fills a prefix; the rest keep their buffers).
    blocks: Vec<PairBlock>,
    /// Replay-log entries retained across all users' histories; shared by
    /// every task, so each publishes only its changes.
    log_entries: obs::Gauge,
}

impl UserHistoryBolt {
    /// New bolt over the shared store.
    pub fn new(store: TdStore, config: CfPipelineConfig) -> Self {
        let log_entries = config.registry.gauge(
            "tencentrec_history_log_entries",
            &[("component", "user_history")],
            "Replay-log entries retained in stored user histories, all tasks.",
        );
        UserHistoryBolt {
            store,
            config,
            fields: FieldIndex::new(["user", "item", "action", "ts", "src"]),
            pair_deltas: Vec::new(),
            blocks: Vec::new(),
            log_entries,
        }
    }
}

impl Bolt for UserHistoryBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        let [user_i, item_i, action_i, ts_i, src_i] = *self.fields.resolve(tuple);
        let user = tuple.u64_at(user_i);
        let code = tuple.u64_at(action_i) as u8;
        let kind = ActionType::from_code(code).ok_or("bad action code")?;
        let action = HistoryAction {
            item: tuple.u64_at(item_i),
            weight: self.config.weights.weight(kind),
            ts: tuple.u64_at(ts_i),
            src: tuple.u64_at(src_i),
        };
        let limits = HistoryLimits {
            linked_time_ms: self.config.linked_time_ms,
            max_history: self.config.max_history,
            dedup_window: self.config.dedup_window,
        };

        // A redelivered tuple finds its source in the history's replay
        // log: the value stays as it is (no write) and the
        // original deltas come back, so a loss further along the tree is
        // repaired without double-counting here.
        let mut edit = HistoryEdit::default();
        let pair_deltas = &mut self.pair_deltas;
        self.store
            .modify(&user_history(user), |slot| {
                edit = apply_action_in_place(slot, &action, &limits, pair_deltas);
                edit.changed
            })
            .map_err(|e| e.to_string())?;
        self.log_entries.add(edit.log_growth as f64);

        if edit.delta_rating != 0.0 {
            collector.emit_values_on(
                ITEM_DELTA,
                &[
                    Value::U64(action.item),
                    Value::F64(edit.delta_rating),
                    Value::U64(action.ts),
                    Value::U64(action.src),
                ],
            );
        }
        let live = pack_pairs(&self.pair_deltas, &mut self.blocks, |a, b| {
            collector.task_of(
                PAIR_DELTA,
                &[
                    Value::U64(a),
                    Value::U64(b),
                    Value::Null,
                    Value::Null,
                    Value::Null,
                ],
            )
        });
        for block in &self.blocks[..live] {
            collector.emit_values_on(
                PAIR_DELTA,
                &[
                    Value::U64(block.key.0),
                    Value::U64(block.key.1),
                    Value::Bytes(Arc::from(block.bytes.as_slice())),
                    Value::U64(action.ts),
                    Value::U64(action.src),
                ],
            );
        }
        Ok(())
    }

    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![
            StreamDef::new(ITEM_DELTA, ["item", "delta", "ts", "src"]),
            StreamDef::new(PAIR_DELTA, ["a", "b", "pairs", "ts", "src"]),
        ]
    }
}

/// Packs `pairs` into one block per task (`task_of` names a pair's task)
/// and returns how many of `blocks` it filled. Blocks come out in the
/// order of their first pairs, each with its pairs in their order.
fn pack_pairs(
    pairs: &[(ItemId, ItemId, f64)],
    blocks: &mut Vec<PairBlock>,
    mut task_of: impl FnMut(ItemId, ItemId) -> usize,
) -> usize {
    let mut live = 0;
    for &(a, b, delta) in pairs {
        let task = task_of(a, b);
        // A linear find: there are at most as many blocks as tasks.
        let at = match blocks[..live].iter().position(|block| block.task == task) {
            Some(at) => at,
            None => {
                if live == blocks.len() {
                    blocks.push(PairBlock::default());
                }
                let block = &mut blocks[live];
                block.task = task;
                block.key = (a, b);
                block.bytes.clear();
                live += 1;
                live - 1
            }
        };
        let bytes = &mut blocks[at].bytes;
        bytes.extend_from_slice(&a.to_le_bytes());
        bytes.extend_from_slice(&b.to_le_bytes());
        bytes.extend_from_slice(&delta.to_bits().to_le_bytes());
    }
    live
}

/// `ItemCount` statistics unit (Fig. 6): grouped by `item`, accumulates
/// `itemCount` buckets in TDStore. Fields grouping makes this task the only
/// writer of its keys, so a run's same-key deltas merge into one store
/// update (§5.3's write reduction) without deferring any write past the
/// ack.
pub struct ItemCountBolt {
    store: TdStore,
    config: CfPipelineConfig,
    fields: FieldIndex<4>,
    /// Per `(item, session)` bucket: its `(src, delta)` run.
    buckets: Runs<(ItemId, u64), (u64, f64)>,
}

impl ItemCountBolt {
    /// New bolt over the shared store.
    pub fn new(store: TdStore, config: CfPipelineConfig) -> Self {
        ItemCountBolt {
            store,
            config,
            fields: FieldIndex::new(["item", "delta", "ts", "src"]),
            buckets: Runs::default(),
        }
    }
}

impl Bolt for ItemCountBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        self.execute_batch(std::slice::from_ref(tuple), collector)
    }

    fn supports_batch(&self) -> bool {
        true
    }

    /// Merges same-key deltas before touching state: a batch that hits one
    /// hot item's session bucket N times costs one store update, not N.
    /// `(src, delta)` pairs are grouped per `(item, session)` bucket and
    /// applied in arrival order through one atomic ring-checked update.
    fn execute_batch(
        &mut self,
        tuples: &[Tuple],
        _collector: &mut BoltCollector,
    ) -> Result<(), String> {
        let buckets = &mut self.buckets;
        buckets.clear();
        for tuple in tuples {
            let [item_i, delta_i, ts_i, src_i] = *self.fields.resolve(tuple);
            let session = self.config.session_of(tuple.u64_at(ts_i));
            let entry = (tuple.u64_at(src_i), tuple.f64_at(delta_i));
            buckets.push((tuple.u64_at(item_i), session), entry);
        }
        buckets.group();
        for ((item, session), deltas) in buckets.runs() {
            let key = session_key(&item_count(item), session);
            apply_counter_deltas(&self.store, &key, deltas, self.config.dedup_window)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// The pair layer: grouped by `(a, b)`, performs Algorithm 1 — pruning
/// check, `pairCount` update, similarity recomputation (Eq. 5/10), and
/// similar-items list maintenance with Hoeffding pruning.
pub struct CfPairBolt {
    store: TdStore,
    config: CfPipelineConfig,
    /// Local pruning state is safe: pairs are key-grouped, so one task
    /// owns any given pair for the topology's lifetime.
    pruning: Option<PruneState>,
    prune_obs: Option<PruneObs>,
    fields: FieldIndex<3>,
    /// One run's grouping, reused across runs.
    runs: PairRuns,
}

/// How [`CfPairBolt`] groups one run of pair blocks.
#[derive(Default)]
struct PairRuns {
    /// Per `(pair, session)` bucket: its `(src, delta)` run.
    buckets: Runs<(ItemPair, u64), (u64, f64)>,
    /// Per pair: its buckets, in the order they first arrived.
    pairs: Runs<ItemPair, usize>,
    /// Per item: the `(other, sim)` entries of the run, in the order
    /// per-tuple execution would have applied them.
    lists: Runs<ItemId, SimRecord>,
    /// Per pair: its similarity and the runs of its two items in `lists`.
    sims: Vec<(ItemPair, f64, [usize; 2])>,
    /// Per `(item, session)`: its windowed `itemCount`, read once.
    item_counts: FxHashMap<(ItemId, u64), f64>,
}

/// Mirrors one task's [`PruneState`] into shared registry metrics. The
/// gauge and counters are shared by all tasks, so each sync publishes only
/// the *change* since the last one — the registry then holds the
/// topology-wide totals.
struct PruneObs {
    tracked: obs::Gauge,
    pruned: obs::Counter,
    evicted: obs::Counter,
    last_tracked: usize,
    last_pruned: u64,
    last_evicted: u64,
}

impl PruneObs {
    fn new(registry: &obs::Registry) -> Self {
        let labels: &[(&str, &str)] = &[("component", "cf_pair")];
        PruneObs {
            tracked: registry.gauge(
                "tencentrec_pruning_tracked_pairs",
                labels,
                "Pairs with live Hoeffding observation counts, all tasks.",
            ),
            pruned: registry.counter(
                "tencentrec_pruning_pruned_pairs_total",
                labels,
                "Pairs pruned by the Hoeffding bound.",
            ),
            evicted: registry.counter(
                "tencentrec_pruning_evicted_pairs_total",
                labels,
                "Observation counts dropped by the tracking cap.",
            ),
            last_tracked: 0,
            last_pruned: 0,
            last_evicted: 0,
        }
    }

    fn sync(&mut self, state: &PruneState) {
        let tracked = state.tracked_pairs();
        self.tracked.add(tracked as f64 - self.last_tracked as f64);
        self.last_tracked = tracked;
        let pruned = state.pruned_pairs();
        self.pruned.add(pruned - self.last_pruned);
        self.last_pruned = pruned;
        let evicted = state.evicted_pairs();
        self.evicted.add(evicted - self.last_evicted);
        self.last_evicted = evicted;
    }
}

impl CfPairBolt {
    /// New bolt over the shared store.
    pub fn new(store: TdStore, config: CfPipelineConfig) -> Self {
        let pruning = config.pruning_delta.map(PruneState::new);
        let prune_obs = pruning.is_some().then(|| PruneObs::new(&config.registry));
        CfPairBolt {
            store,
            config,
            pruning,
            prune_obs,
            fields: FieldIndex::new(["pairs", "ts", "src"]),
            runs: PairRuns::default(),
        }
    }

    fn sync_prune_obs(&mut self) {
        if let (Some(obs), Some(state)) = (&mut self.prune_obs, &self.pruning) {
            obs.sync(state);
        }
    }
}

/// Folds a run of `(src, delta)` updates into one session bucket of a
/// pair's `pairCount` (one atomic ring-checked update) and returns the
/// bucket's new count.
fn apply_pair_deltas(
    store: &TdStore,
    config: &CfPipelineConfig,
    pair: ItemPair,
    session: u64,
    deltas: &[(u64, f64)],
) -> Result<f64, String> {
    let key = session_key(&pair_count(pair), session);
    apply_counter_deltas(store, &key, deltas, config.dedup_window)
        .map(|update| update.count)
        .map_err(|e| e.to_string())
}

/// The pair's similarity (Eq. 5/10) from the decomposed counts: `pc` as
/// the pair's writes just returned it, the two `itemCount`s read — the
/// 8-byte count only — at most once per item per run (`memo`).
fn similarity(
    store: &TdStore,
    config: &CfPipelineConfig,
    pair: ItemPair,
    pc: f64,
    current_session: u64,
    memo: &mut FxHashMap<(ItemId, u64), f64>,
) -> Result<f64, String> {
    let windows = config.window_sessions();
    let mut item_count = |item: ItemId| -> Result<f64, String> {
        if let Some(&count) = memo.get(&(item, current_session)) {
            return Ok(count);
        }
        let count = windowed_sum(store, &item_count(item), current_session, windows)
            .map_err(|e| e.to_string())?;
        memo.insert((item, current_session), count);
        Ok(count)
    };
    // The item-count stream runs in a parallel bolt with no ordering
    // against this one, so a read here may lag the increments for the very
    // actions that formed this pair. Once caught up, pairCount(a,b) ≤
    // itemCount(a), itemCount(b) always holds; reading less than `pc`
    // proves lag. Clamp so a lagging read degrades to a conservative
    // overestimate of similarity instead of sim = 0 — which would drop the
    // pair from both similar-items lists and, on the final update of a
    // pair, leave it dropped forever.
    let ic_a = item_count(pair.a)?.max(pc);
    let ic_b = item_count(pair.b)?.max(pc);
    Ok(if ic_a > 0.0 && ic_b > 0.0 {
        (pc / (ic_a.sqrt() * ic_b.sqrt())).max(0.0)
    } else {
        0.0
    })
}

impl Bolt for CfPairBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        self.execute_batch(std::slice::from_ref(tuple), collector)
    }

    fn supports_batch(&self) -> bool {
        true
    }

    /// Algorithm 1 over a run of pair blocks, paying per change: every
    /// pair's deltas land in its session buckets (one in-place update per
    /// bucket, which hands back the new count), each pair's similarity is
    /// recomputed once, and each *item* touched gets one conditional
    /// in-place update of its similar-items list carrying all of the
    /// run's entries for it — which, for the usual entry that scores
    /// below a full list's k-th, writes nothing.
    fn execute_batch(
        &mut self,
        tuples: &[Tuple],
        _collector: &mut BoltCollector,
    ) -> Result<(), String> {
        let CfPairBolt {
            store,
            config,
            pruning,
            fields,
            runs,
            ..
        } = self;
        let PairRuns {
            buckets,
            pairs,
            lists,
            sims,
            item_counts,
        } = runs;
        buckets.clear();
        pairs.clear();
        for tuple in tuples {
            let [pairs_i, ts_i, src_i] = *fields.resolve(tuple);
            let session = config.session_of(tuple.u64_at(ts_i));
            let src = tuple.u64_at(src_i);
            let block = tuple
                .get(pairs_i)
                .as_bytes()
                .ok_or("pairs is not a block")?;
            for (a, b, delta) in pair_block(block) {
                let pair = ItemPair::new(a, b);
                if pruning.as_ref().is_some_and(|p| p.is_pruned(pair)) {
                    continue;
                }
                let (bucket, new) = buckets.push((pair, session), (src, delta));
                if new {
                    pairs.push(pair, bucket);
                }
            }
        }
        buckets.group();
        pairs.group();

        let windows = config.window_sessions();
        item_counts.clear();
        lists.clear();
        sims.clear();
        let mut written: Vec<(u64, f64)> = Vec::new();
        for (pair, pair_buckets) in pairs.runs() {
            written.clear();
            let mut current_session = 0;
            for &bucket in pair_buckets {
                let ((_, session), deltas) = buckets.run(bucket);
                written.push((
                    session,
                    apply_pair_deltas(store, config, pair, session, deltas)?,
                ));
                current_session = session;
            }
            // One recompute at the run's final session for this pair:
            // the counts already include every delta above, so the result
            // matches what per-tuple execution would leave behind.
            let pc =
                windowed_sum_with(store, &pair_count(pair), current_session, windows, &written)
                    .map_err(|e| e.to_string())?;
            let sim = similarity(store, config, pair, pc, current_session, item_counts)?;
            let at = [(pair.a, pair.b), (pair.b, pair.a)]
                .map(|(item, other)| lists.push(item, (other, sim)).0);
            sims.push((pair, sim, at));
        }
        lists.group();

        // One conditional update per item; each returns its list's k-th
        // score afterwards, the Hoeffding pruning threshold
        // (bidirectional: the smaller of the pair's two lists).
        let mut thresholds: Vec<f64> = Vec::with_capacity(lists.len());
        for (item, entries) in lists.runs() {
            thresholds.push(
                update_sim_list(store, item, entries, config.top_k).map_err(|e| e.to_string())?,
            );
        }
        if let Some(pruning) = pruning {
            for &(pair, sim, [a, b]) in sims.iter() {
                pruning.observe(pair, sim, thresholds[a].min(thresholds[b]));
            }
        }
        self.sync_prune_obs();
        Ok(())
    }
}
