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

use crate::action::{ActionType, ActionWeights};
use crate::cf::counts::WindowConfig;
use crate::cf::pruning::PruneState;
use crate::fields::FieldIndex;
use crate::topology::replay::DEFAULT_MAX_PENDING;
use crate::topology::state::{
    apply_action_in_place, apply_counter_deltas, item_count, pair_count, session_key, session_of,
    update_sim_list, user_history, window_sessions, windowed_sum, windowed_sum_with, HistoryAction,
    HistoryEdit, HistoryLimits, KeyBuf, SimRecord,
};
use crate::types::{FxHashMap, ItemId, ItemPair};
use tdstore::TdStore;
use tstorm::prelude::*;

/// Same-key `(src, delta)` runs of one itemCount batch, in arrival order.
type CountGroups = Vec<(KeyBuf, Vec<(u64, f64)>)>;

/// Per pair: `(session, (src, delta) runs)` of one pairCount batch, in
/// arrival order.
type PairGroups = Vec<(ItemPair, Vec<(u64, Vec<(u64, f64)>)>)>;

/// Appends `entry` to `key`'s run in `runs`, opening a run for a new key,
/// and returns the run's index. Batches are small (≤ batch_size), so a
/// linear find keeps arrival order without hashing.
fn push_run<K: PartialEq, T>(runs: &mut Vec<(K, Vec<T>)>, key: K, entry: T) -> usize {
    match runs.iter().position(|(k, _)| *k == key) {
        Some(at) => {
            runs[at].1.push(entry);
            at
        }
        None => {
            runs.push((key, vec![entry]));
            runs.len() - 1
        }
    }
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
    /// Cap on live Hoeffding-pruning observation counts per pair-bolt
    /// task (see [`PruneState::with_cap`]).
    pub pruning_max_tracked: usize,
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
            pruning_max_tracked: crate::cf::pruning::DEFAULT_MAX_TRACKED,
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
        for &(a, b, delta) in &self.pair_deltas {
            collector.emit_values_on(
                PAIR_DELTA,
                &[
                    Value::U64(a),
                    Value::U64(b),
                    Value::F64(delta),
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
            StreamDef::new(PAIR_DELTA, ["a", "b", "delta", "ts", "src"]),
        ]
    }
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
}

impl ItemCountBolt {
    /// New bolt over the shared store.
    pub fn new(store: TdStore, config: CfPipelineConfig) -> Self {
        ItemCountBolt {
            store,
            config,
            fields: FieldIndex::new(["item", "delta", "ts", "src"]),
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
    /// `(src, delta)` pairs are grouped per key and applied in arrival
    /// order through one atomic ring-checked update.
    fn execute_batch(
        &mut self,
        tuples: &[Tuple],
        _collector: &mut BoltCollector,
    ) -> Result<(), String> {
        let mut groups: CountGroups = Vec::new();
        for tuple in tuples {
            let [item_i, delta_i, ts_i, src_i] = *self.fields.resolve(tuple);
            let item = tuple.u64_at(item_i);
            let delta = tuple.f64_at(delta_i);
            let session = self.config.session_of(tuple.u64_at(ts_i));
            let key = session_key(&item_count(item), session);
            push_run(&mut groups, key, (tuple.u64_at(src_i), delta));
        }
        for (key, deltas) in groups {
            apply_counter_deltas(&self.store, &key, &deltas, self.config.dedup_window)
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
    fields: FieldIndex<5>,
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
        let pruning = config
            .pruning_delta
            .map(|d| PruneState::with_cap(d, config.pruning_max_tracked));
        let prune_obs = pruning.is_some().then(|| PruneObs::new(&config.registry));
        CfPairBolt {
            store,
            config,
            pruning,
            prune_obs,
            fields: FieldIndex::new(["a", "b", "delta", "ts", "src"]),
        }
    }

    fn sync_prune_obs(&mut self) {
        if let (Some(obs), Some(state)) = (&mut self.prune_obs, &self.pruning) {
            obs.sync(state);
        }
    }
}

impl CfPairBolt {
    /// Folds a run of `(src, delta)` updates into one session bucket of a
    /// pair's `pairCount` (one atomic ring-checked update) and returns the
    /// bucket's new count.
    fn apply_pair_deltas(
        &self,
        pair: ItemPair,
        session: u64,
        deltas: &[(u64, f64)],
    ) -> Result<f64, String> {
        let key = session_key(&pair_count(pair), session);
        apply_counter_deltas(&self.store, &key, deltas, self.config.dedup_window)
            .map(|update| update.count)
            .map_err(|e| e.to_string())
    }

    /// The pair's similarity (Eq. 5/10) from the decomposed counts: `pc`
    /// as the pair's writes just returned it, the two `itemCount`s read —
    /// the 8-byte count only — at most once per item per batch (`memo`).
    fn similarity(
        &self,
        pair: ItemPair,
        pc: f64,
        current_session: u64,
        memo: &mut FxHashMap<(ItemId, u64), f64>,
    ) -> Result<f64, String> {
        let windows = self.config.window_sessions();
        let mut item_count = |item: ItemId| -> Result<f64, String> {
            if let Some(&count) = memo.get(&(item, current_session)) {
                return Ok(count);
            }
            let count = windowed_sum(&self.store, &item_count(item), current_session, windows)
                .map_err(|e| e.to_string())?;
            memo.insert((item, current_session), count);
            Ok(count)
        };
        // The item-count stream runs in a parallel bolt with no ordering
        // against this one, so a read here may lag the increments for the
        // very actions that formed this pair. Once caught up,
        // pairCount(a,b) ≤ itemCount(a), itemCount(b) always holds;
        // reading less than `pc` proves lag. Clamp so a lagging read
        // degrades to a conservative overestimate of similarity instead
        // of sim = 0 — which would drop the pair from both similar-items
        // lists and, on the final update of a pair, leave it dropped
        // forever.
        let ic_a = item_count(pair.a)?.max(pc);
        let ic_b = item_count(pair.b)?.max(pc);
        Ok(if ic_a > 0.0 && ic_b > 0.0 {
            (pc / (ic_a.sqrt() * ic_b.sqrt())).max(0.0)
        } else {
            0.0
        })
    }
}

impl Bolt for CfPairBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        self.execute_batch(std::slice::from_ref(tuple), collector)
    }

    fn supports_batch(&self) -> bool {
        true
    }

    /// Algorithm 1 over a run of pair deltas, paying per change: every
    /// pair's deltas land in its session buckets (one in-place update per
    /// bucket, which hands back the new count), each pair's similarity is
    /// recomputed once, and each *item* touched gets one conditional
    /// in-place update of its similar-items list carrying all of the
    /// batch's entries for it — which, for the usual entry that scores
    /// below a full list's k-th, writes nothing.
    fn execute_batch(
        &mut self,
        tuples: &[Tuple],
        _collector: &mut BoltCollector,
    ) -> Result<(), String> {
        // Per pair, per session bucket (in arrival order): src/delta runs.
        let mut groups: PairGroups = Vec::new();
        for tuple in tuples {
            let [a_i, b_i, delta_i, ts_i, src_i] = *self.fields.resolve(tuple);
            let pair = ItemPair::new(tuple.u64_at(a_i), tuple.u64_at(b_i));
            if self.pruning.as_ref().is_some_and(|p| p.is_pruned(pair)) {
                continue;
            }
            let session = self.config.session_of(tuple.u64_at(ts_i));
            let entry = (tuple.u64_at(src_i), tuple.f64_at(delta_i));
            match groups.iter_mut().find(|(p, _)| *p == pair) {
                Some((_, sessions)) => {
                    push_run(sessions, session, entry);
                }
                None => groups.push((pair, vec![(session, vec![entry])])),
            }
        }

        let windows = self.config.window_sessions();
        let mut item_counts = FxHashMap::default();
        // Per pair: its similarity and where its two items sit in `lists`.
        let mut sims: Vec<(ItemPair, f64, [usize; 2])> = Vec::with_capacity(groups.len());
        // Per item, the `(other, sim)` entries of this batch in the order
        // per-tuple execution would have applied them.
        let mut lists: Vec<(ItemId, Vec<SimRecord>)> = Vec::new();
        let mut written: Vec<(u64, f64)> = Vec::new();
        for (pair, sessions) in &groups {
            written.clear();
            let mut current_session = 0;
            for (session, deltas) in sessions {
                written.push((*session, self.apply_pair_deltas(*pair, *session, deltas)?));
                current_session = *session;
            }
            // One recompute at the batch's final session for this pair:
            // the counts already include every delta above, so the result
            // matches what per-tuple execution would leave behind.
            let pc = windowed_sum_with(
                &self.store,
                &pair_count(*pair),
                current_session,
                windows,
                &written,
            )
            .map_err(|e| e.to_string())?;
            let sim = self.similarity(*pair, pc, current_session, &mut item_counts)?;
            let at = [(pair.a, pair.b), (pair.b, pair.a)]
                .map(|(item, other)| push_run(&mut lists, item, (other, sim)));
            sims.push((*pair, sim, at));
        }

        // One conditional update per item; each returns its list's k-th
        // score afterwards, the Hoeffding pruning threshold
        // (bidirectional: the smaller of the pair's two lists).
        let mut thresholds: Vec<f64> = Vec::with_capacity(lists.len());
        for (item, entries) in &lists {
            thresholds.push(
                update_sim_list(&self.store, *item, entries, self.config.top_k)
                    .map_err(|e| e.to_string())?,
            );
        }
        if let Some(pruning) = &mut self.pruning {
            for (pair, sim, [a, b]) in sims {
                pruning.observe(pair, sim, thresholds[a].min(thresholds[b]));
            }
        }
        self.sync_prune_obs();
        Ok(())
    }
}
