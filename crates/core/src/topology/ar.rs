//! The association-rule pipeline (the `ARBolt` of Fig. 6).
//!
//! Sessions are reconstructed per user (grouped by `user`, session state
//! in TDStore), producing *transaction increments*: each item counts once
//! per session, each co-session pair once per session. Item and pair
//! transaction counts accumulate in windowed TDStore buckets; the query
//! side mines `X → Y` rules from them by support and confidence.

use crate::action::ActionType;
use crate::topology::state::{
    ar_item, ar_pair, ar_session, decode_session, encode_session, session_key, session_of,
    window_sessions, windowed_sum, Family, KeyParts,
};
use crate::types::{ItemId, ItemPair};
use tdstore::TdStore;
use tstorm::prelude::*;

/// AR pipeline parameters.
#[derive(Debug, Clone)]
pub struct ArPipelineConfig {
    /// A new session starts after this much inactivity.
    pub session_gap_ms: u64,
    /// Sliding window over the transaction counts.
    pub window: Option<crate::cf::counts::WindowConfig>,
    /// Minimum pair support for a rule.
    pub min_support: f64,
    /// Minimum confidence for a rule.
    pub min_confidence: f64,
}

impl Default for ArPipelineConfig {
    fn default() -> Self {
        ArPipelineConfig {
            session_gap_ms: 30 * 60 * 1000,
            window: None,
            min_support: 2.0,
            min_confidence: 0.1,
        }
    }
}

/// Session-reconstruction bolt (grouped by `user`): emits each item once
/// per session on `txn` and each co-session pair once on `pair_txn`.
pub struct SessionBolt {
    store: TdStore,
    config: ArPipelineConfig,
}

impl SessionBolt {
    /// New bolt over the shared store.
    pub fn new(store: TdStore, config: ArPipelineConfig) -> Self {
        SessionBolt { store, config }
    }
}

/// Stream of item transaction increments.
pub const TXN: &str = "txn";
/// Stream of pair transaction increments.
pub const PAIR_TXN: &str = "pair_txn";

impl Bolt for SessionBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        let user = tuple.u64("user");
        let item = tuple.u64("item");
        let code = tuple.u64("action") as u8;
        let ts = tuple.u64("ts");
        // All action kinds participate in sessions, but codes must be valid.
        ActionType::from_code(code).ok_or("bad action code")?;

        let gap = self.config.session_gap_ms;
        let mut new_item = false;
        let mut co_items: Vec<ItemId> = Vec::new();
        self.store
            .update(&ar_session(user), |raw| {
                new_item = false;
                co_items.clear();
                let (last_ts, mut items) = raw.map(decode_session).unwrap_or((0, Vec::new()));
                if ts.saturating_sub(last_ts) > gap && !items.is_empty() {
                    items.clear(); // session expired
                }
                if !items.contains(&item) {
                    new_item = true;
                    co_items.extend(items.iter().copied());
                    items.push(item);
                }
                Some(encode_session(ts, &items))
            })
            .map_err(|e| e.to_string())?;
        if new_item {
            collector.emit_values_on(TXN, &[Value::U64(item), Value::U64(ts)]);
            for other in co_items {
                let pair = ItemPair::new(item, other);
                collector.emit_values_on(
                    PAIR_TXN,
                    &[Value::U64(pair.a), Value::U64(pair.b), Value::U64(ts)],
                );
            }
        }
        Ok(())
    }

    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![
            StreamDef::new(TXN, ["item", "ts"]),
            StreamDef::new(PAIR_TXN, ["a", "b", "ts"]),
        ]
    }
}

/// Item-transaction counting bolt (grouped by `item`).
pub struct ItemTxnBolt {
    store: TdStore,
    config: ArPipelineConfig,
}

impl ItemTxnBolt {
    /// New bolt over the shared store.
    pub fn new(store: TdStore, config: ArPipelineConfig) -> Self {
        ItemTxnBolt { store, config }
    }
}

impl Bolt for ItemTxnBolt {
    fn execute(&mut self, tuple: &Tuple, _c: &mut BoltCollector) -> Result<(), String> {
        let item = tuple.u64("item");
        let ts = tuple.u64("ts");
        self.store
            .incr_f64(
                &session_key(&ar_item(item), session_of(self.config.window, ts)),
                1.0,
            )
            .map_err(|e| e.to_string())?;
        Ok(())
    }
}

/// Pair-transaction counting bolt (grouped by `(a, b)`).
pub struct PairTxnBolt {
    store: TdStore,
    config: ArPipelineConfig,
}

impl PairTxnBolt {
    /// New bolt over the shared store.
    pub fn new(store: TdStore, config: ArPipelineConfig) -> Self {
        PairTxnBolt { store, config }
    }
}

impl Bolt for PairTxnBolt {
    fn execute(&mut self, tuple: &Tuple, _c: &mut BoltCollector) -> Result<(), String> {
        let pair = ItemPair::new(tuple.u64("a"), tuple.u64("b"));
        let ts = tuple.u64("ts");
        self.store
            .incr_f64(
                &session_key(&ar_pair(pair), session_of(self.config.window, ts)),
                1.0,
            )
            .map_err(|e| e.to_string())?;
        Ok(())
    }
}

/// Builds the AR topology over the spouts `spout` makes (a
/// [`ReplayableSpout`](crate::topology::ReplayableSpout) reading an
/// action topic).
pub fn build_ar_topology<S, F>(
    spout: F,
    store: TdStore,
    config: ArPipelineConfig,
    parallelism: usize,
) -> Result<tstorm::topology::Topology, TopologyError>
where
    S: Spout + 'static,
    F: Fn() -> S + Send + Sync + 'static,
{
    let mut builder = TopologyBuilder::new();
    builder.set_spout("spout", spout, 1);
    {
        let store = store.clone();
        let config = config.clone();
        builder
            .set_bolt(
                "session",
                move || SessionBolt::new(store.clone(), config.clone()),
                parallelism,
            )
            .fields_grouping("spout", ["user"]);
    }
    {
        let store = store.clone();
        let config = config.clone();
        builder
            .set_bolt(
                "item_txn",
                move || ItemTxnBolt::new(store.clone(), config.clone()),
                parallelism,
            )
            .grouping_on("session", TXN, Grouping::fields(["item"]));
    }
    builder
        .set_bolt(
            "pair_txn",
            move || PairTxnBolt::new(store.clone(), config.clone()),
            parallelism,
        )
        .grouping_on("session", PAIR_TXN, Grouping::fields(["a", "b"]));
    builder.build()
}

/// A mined rule (query side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredRule {
    /// Recommended item.
    pub consequent: ItemId,
    /// Sessions containing both items.
    pub support: f64,
    /// `support / support(antecedent)`.
    pub confidence: f64,
}

/// Mines rules fireable from `antecedent` out of the stored counts.
pub fn rules_from(
    store: &TdStore,
    config: &ArPipelineConfig,
    antecedent: ItemId,
    now: u64,
    n: usize,
) -> Vec<StoredRule> {
    let windows = window_sessions(config.window);
    let session = session_of(config.window, now);
    let Ok(sx) = windowed_sum(store, &ar_item(antecedent), session, windows) else {
        return Vec::new();
    };
    if sx <= 0.0 {
        return Vec::new();
    }
    // Enumerate candidate pairs containing the antecedent.
    let Ok(entries) = store.scan_prefix(Family::ArPair.tag().as_bytes()) else {
        return Vec::new();
    };
    let mut partners: Vec<ItemId> = Vec::new();
    for (key, _) in entries {
        let Some(KeyParts { ids: [a, b], .. }) = Family::ArPair.parse(&key) else {
            continue;
        };
        let other = match (a == antecedent, b == antecedent) {
            (true, false) => b,
            (false, true) => a,
            _ => continue,
        };
        if !partners.contains(&other) {
            partners.push(other);
        }
    }
    let mut rules: Vec<StoredRule> = partners
        .into_iter()
        .filter_map(|other| {
            let pair = ItemPair::new(antecedent, other);
            let support = windowed_sum(store, &ar_pair(pair), session, windows).ok()?;
            let confidence = support / sx;
            (support >= config.min_support && confidence >= config.min_confidence).then_some(
                StoredRule {
                    consequent: other,
                    support,
                    confidence,
                },
            )
        })
        .collect();
    rules.sort_by(|a, b| {
        b.confidence
            .total_cmp(&a.confidence)
            .then(b.support.total_cmp(&a.support))
            .then(a.consequent.cmp(&b.consequent))
    });
    rules.truncate(n);
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::UserAction;
    use crate::ar::{ArConfig, AssociationRules};
    use crate::topology::replay::test_feed::TopicFeed;
    use crate::types::UserId;
    use tdstore::StoreConfig;

    fn run(actions: Vec<UserAction>, config: ArPipelineConfig) -> TdStore {
        let store = TdStore::new(StoreConfig::default());
        let feed = TopicFeed::new(4, &actions);
        let topo =
            build_ar_topology(feed.spout(), store.clone(), config, 3).expect("valid topology");
        feed.drain(topo.launch());
        store
    }

    fn click(user: UserId, item: ItemId, ts: u64) -> UserAction {
        UserAction::new(user, item, ActionType::Click, ts)
    }

    #[test]
    fn distributed_counts_match_in_memory_ar() {
        let mut actions = Vec::new();
        for u in 1..=10u64 {
            actions.push(click(u, 1, u * 1_000));
            actions.push(click(u, 2, u * 1_000 + 10));
            if u % 2 == 0 {
                actions.push(click(u, 3, u * 1_000 + 20));
            }
            // A second session far later, bread only.
            actions.push(click(u, 1, u * 1_000 + 100_000_000));
        }
        let config = ArPipelineConfig::default();
        let store = run(actions.clone(), config.clone());

        let mut reference = AssociationRules::new(ArConfig::default());
        for a in &actions {
            reference.process(a.user, a.item, a.timestamp);
        }
        let session = 0;
        for item in [1u64, 2, 3] {
            let stored = windowed_sum(&store, &ar_item(item), session, 0).unwrap();
            assert_eq!(
                stored,
                reference.item_support(item),
                "item {item} txn count"
            );
        }
        for (a, b) in [(1u64, 2u64), (1, 3), (2, 3)] {
            let stored = windowed_sum(&store, &ar_pair(ItemPair::new(a, b)), session, 0).unwrap();
            assert_eq!(stored, reference.pair_support(a, b), "pair ({a},{b})");
        }
    }

    #[test]
    fn mined_rules_match_thresholds() {
        let mut actions = Vec::new();
        for u in 1..=6u64 {
            actions.push(click(u, 1, u));
            actions.push(click(u, 2, u + 1)); // 1→2 confidence 1.0
        }
        actions.push(click(99, 1, 50)); // one session with 1 only
        let config = ArPipelineConfig {
            min_support: 2.0,
            min_confidence: 0.5,
            ..Default::default()
        };
        let store = run(actions, config.clone());
        let rules = rules_from(&store, &config, 1, 1_000, 5);
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].consequent, 2);
        assert_eq!(rules[0].support, 6.0);
        assert!((rules[0].confidence - 6.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_antecedent_yields_no_rules() {
        let store = TdStore::new(StoreConfig::default());
        let config = ArPipelineConfig::default();
        assert!(rules_from(&store, &config, 42, 0, 5).is_empty());
    }
}
