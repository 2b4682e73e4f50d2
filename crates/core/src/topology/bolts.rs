//! The spout and bolts of the CF pipeline (Fig. 4 mapped onto Fig. 6).
//!
//! Every bolt is state-free: all cross-tuple state lives in TDStore, so a
//! restarted task resumes exactly where the store left off. Routing
//! guarantees make the store updates conflict-free: actions are grouped by
//! user (histories), item deltas by item (`itemCount`s), pair deltas by
//! pair (`pairCount`s and similarity), mirroring §4.1.3's "by the key
//! grouping, only a single worker node should operate over a specific item
//! pair".

use crate::action::{ActionType, ActionWeights, UserAction};
use crate::cf::counts::WindowConfig;
use crate::cf::pruning::PruneState;
use crate::fields::FieldIndex;
use crate::interner::Interner;
use crate::topology::replay::{encode_src, DEFAULT_MAX_PENDING};
use crate::topology::state::{
    apply_action_in_place, apply_counter_deltas, session_key, update_sim_list, windowed_sum,
    windowed_sum_with, HistoryAction, HistoryEdit, HistoryLimits, SimRecord,
};
use crate::types::keys::KeyBuf;
use crate::types::{keys, FxHashMap, ItemId, ItemPair};
use crossbeam::channel::Receiver;
use tdstore::TdStore;
use tstorm::prelude::*;

/// Same-key `(src, delta)` runs of one itemCount batch, in arrival order.
type CountGroups = Vec<(KeyBuf, Vec<(u64, f64)>)>;

/// Per pair: `(session, (src, delta) runs)` of one pairCount batch, in
/// arrival order.
type PairGroups = Vec<(ItemPair, Vec<(u64, Vec<(u64, f64)>)>)>;

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
    /// size, pruning state). [`build_cf_topology`] shares this registry
    /// with the tstorm runtime, so one exposition covers framework and
    /// application metrics.
    ///
    /// [`build_cf_topology`]: crate::topology::build_cf_topology
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
        self.window.map_or(u64::MAX, |w| w.session_of(ts))
    }

    /// Window length in sessions (0 = un-windowed).
    pub fn window_sessions(&self) -> usize {
        self.window.map_or(0, |w| w.sessions)
    }
}

/// Spout feeding user actions from a channel (in production, the consumer
/// side of TDAccess; in tests, a test fixture).
pub struct ActionSpout {
    source: Receiver<UserAction>,
    sources: ChannelSources,
}

impl ActionSpout {
    /// Spout reading from `source` until it disconnects.
    pub fn new(source: Receiver<UserAction>) -> Self {
        ActionSpout {
            source,
            sources: ChannelSources::default(),
        }
    }
}

/// Source ids for a channel spout, which has no durable source: the task
/// index stands in for the partition and the emit counter for the offset,
/// so two tasks of one spout never share a source id.
#[derive(Default)]
struct ChannelSources {
    task: u32,
    emitted: u64,
}

impl ChannelSources {
    fn open(&mut self, ctx: &TaskContext) {
        self.task = ctx.task_index as u32;
    }

    fn next(&mut self) -> u64 {
        self.emitted += 1;
        encode_src(self.task, self.emitted)
    }
}

impl Spout for ActionSpout {
    fn open(&mut self, ctx: &TaskContext) {
        self.sources.open(ctx);
    }

    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        match self.source.try_recv() {
            Ok(action) => {
                let src = self.sources.next();
                collector.emit(
                    vec![
                        Value::U64(action.user),
                        Value::U64(action.item),
                        Value::U64(action.action.code() as u64),
                        Value::U64(action.timestamp),
                        Value::U64(src),
                    ],
                    Some(src),
                );
                true
            }
            Err(_) => false,
        }
    }

    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(
            DEFAULT_STREAM,
            ["user", "item", "action", "ts", "src"],
        )]
    }
}

/// Pretreatment (§5.1): parses and validates raw tuples, dropping
/// unqualified ones, and forwards clean action tuples. With an
/// [`Interner`] attached, raw tuples carrying *string* user/item ids (the
/// form production front ends send) are translated to dense `u64`s here,
/// at the topology's edge — downstream groupings, bolts, and TDStore keys
/// only ever see integers.
pub struct PretreatmentBolt {
    dropped: u64,
    interner: Option<Interner>,
    fields: FieldIndex<5>,
}

impl PretreatmentBolt {
    /// New bolt for pre-interned (integer-keyed) feeds.
    pub fn new() -> Self {
        PretreatmentBolt {
            dropped: 0,
            interner: None,
            fields: FieldIndex::new(["user", "item", "action", "ts", "src"]),
        }
    }

    /// New bolt that interns string user/item ids through `interner`.
    /// Integer-keyed tuples still pass through unchanged, so mixed feeds
    /// work during a migration.
    pub fn with_interner(interner: Interner) -> Self {
        PretreatmentBolt {
            interner: Some(interner),
            ..Self::new()
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
        let [user_i, item_i, action_i, ts_i, src_i] = *self.fields.resolve(tuple);
        let values = tuple.values();
        let code = values[action_i].as_u64().unwrap_or(u64::MAX);
        if code > u8::MAX as u64 || ActionType::from_code(code as u8).is_none() {
            self.dropped += 1;
            return Ok(()); // unqualified tuple: filtered, still acked
        }
        let (user, item) = (&values[user_i], &values[item_i]);
        if user.as_str().is_some() || item.as_str().is_some() {
            // String-keyed raw tuple: both ids must be strings and an
            // interner must be attached, else the tuple is unqualified.
            let (Some(interner), Some(user), Some(item)) =
                (self.interner.as_ref(), user.as_str(), item.as_str())
            else {
                self.dropped += 1;
                return Ok(());
            };
            collector.emit_values(&[
                Value::U64(interner.intern(user)),
                Value::U64(interner.intern(item)),
                values[action_i].clone(),
                values[ts_i].clone(),
                values[src_i].clone(),
            ]);
        } else {
            collector.emit_values(values);
        }
        Ok(())
    }

    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(
            DEFAULT_STREAM,
            ["user", "item", "action", "ts", "src"],
        )]
    }
}

/// One raw, string-keyed user action as sent by a production front end,
/// before pretreatment assigns dense ids.
#[derive(Debug, Clone, PartialEq)]
pub struct RawAction {
    /// Frontend user key (cookie, account id, ...).
    pub user: String,
    /// Frontend item key (content url, SKU, ...).
    pub item: String,
    /// What the user did.
    pub action: ActionType,
    /// Event time in stream milliseconds.
    pub timestamp: u64,
}

/// Spout feeding raw string-keyed actions from a channel. Must be paired
/// with [`PretreatmentBolt::with_interner`], which assigns the dense ids
/// before the first fields-grouped edge.
pub struct RawActionSpout {
    source: Receiver<RawAction>,
    sources: ChannelSources,
}

impl RawActionSpout {
    /// Spout reading from `source` until it disconnects.
    pub fn new(source: Receiver<RawAction>) -> Self {
        RawActionSpout {
            source,
            sources: ChannelSources::default(),
        }
    }
}

impl Spout for RawActionSpout {
    fn open(&mut self, ctx: &TaskContext) {
        self.sources.open(ctx);
    }

    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        match self.source.try_recv() {
            Ok(action) => {
                let src = self.sources.next();
                collector.emit(
                    vec![
                        Value::from(action.user),
                        Value::from(action.item),
                        Value::U64(action.action.code() as u64),
                        Value::U64(action.timestamp),
                        Value::U64(src),
                    ],
                    Some(src),
                );
                true
            }
            Err(_) => false,
        }
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
            .modify(&keys::user_history(user), |slot| {
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
        // Batches are small (≤ batch_size); linear find keeps arrival
        // order without hashing.
        let mut groups: CountGroups = Vec::new();
        for tuple in tuples {
            let [item_i, delta_i, ts_i, src_i] = *self.fields.resolve(tuple);
            let item = tuple.u64_at(item_i);
            let delta = tuple.f64_at(delta_i);
            let session = self.config.session_of(tuple.u64_at(ts_i));
            let key = session_key(&keys::item_count(item), session);
            let entry = (tuple.u64_at(src_i), delta);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, deltas)) => deltas.push(entry),
                None => groups.push((key, vec![entry])),
            }
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
        let key = session_key(&keys::pair_count(pair), session);
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
            let count = windowed_sum(
                &self.store,
                &keys::item_count(item),
                current_session,
                windows,
            )
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
        // Batches are small (≤ batch_size); linear find keeps arrival
        // order without hashing.
        let mut groups: PairGroups = Vec::new();
        for tuple in tuples {
            let [a_i, b_i, delta_i, ts_i, src_i] = *self.fields.resolve(tuple);
            let pair = ItemPair::new(tuple.u64_at(a_i), tuple.u64_at(b_i));
            if self.pruning.as_ref().is_some_and(|p| p.is_pruned(pair)) {
                continue;
            }
            let session = self.config.session_of(tuple.u64_at(ts_i));
            let entry = (tuple.u64_at(src_i), tuple.f64_at(delta_i));
            let sessions = match groups.iter_mut().find(|(p, _)| *p == pair) {
                Some((_, sessions)) => sessions,
                None => {
                    groups.push((pair, Vec::new()));
                    &mut groups.last_mut().expect("just pushed").1
                }
            };
            match sessions.iter_mut().find(|(s, _)| *s == session) {
                Some((_, deltas)) => deltas.push(entry),
                None => sessions.push((session, vec![entry])),
            }
        }

        let windows = self.config.window_sessions();
        let mut item_counts = FxHashMap::default();
        let mut sims: Vec<(ItemPair, f64)> = Vec::with_capacity(groups.len());
        // Per item, the `(other, sim)` entries of this batch in the order
        // per-tuple execution would have applied them.
        let mut lists: Vec<(ItemId, Vec<SimRecord>)> = Vec::new();
        let mut written: Vec<(u64, f64)> = Vec::new();
        for (pair, sessions) in &groups {
            written.clear();
            for (session, deltas) in sessions {
                written.push((*session, self.apply_pair_deltas(*pair, *session, deltas)?));
            }
            // One recompute at the batch's final session for this pair:
            // the counts already include every delta above, so the result
            // matches what per-tuple execution would leave behind.
            let last_session = written.last().expect("non-empty group").0;
            let current_session = if windows == 0 { 0 } else { last_session };
            let pc = windowed_sum_with(
                &self.store,
                &keys::pair_count(*pair),
                current_session,
                windows,
                &written,
            )
            .map_err(|e| e.to_string())?;
            let sim = self.similarity(*pair, pc, current_session, &mut item_counts)?;
            sims.push((*pair, sim));
            for (item, other) in [(pair.a, pair.b), (pair.b, pair.a)] {
                match lists.iter_mut().find(|(i, _)| *i == item) {
                    Some((_, entries)) => entries.push((other, sim)),
                    None => lists.push((item, vec![(other, sim)])),
                }
            }
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
            let threshold = |item: ItemId| {
                let at = lists.iter().position(|(i, _)| *i == item);
                thresholds[at.expect("every pair's items have a list entry")]
            };
            for (pair, sim) in sims {
                pruning.observe(pair, sim, threshold(pair.a).min(threshold(pair.b)));
            }
        }
        self.sync_prune_obs();
        Ok(())
    }
}
