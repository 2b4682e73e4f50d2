//! Test support shared by this crate's integration tests.

use tdstore::TdStore;
use tencentrec::topology::state::{self as keys, decode_sim_list, read_history};
use tencentrec::topology::CfPipelineConfig;
use tencentrec::types::{FxHashMap, FxHashSet, ItemId, UserId};

/// The store-backed query as it was before it read the store in place,
/// kept as the reference for `TopologyRecommender::recommend`: decode the
/// history, stable-sort it newest first, decode each similar-items list,
/// sum Eq. 2's numerator and denominator in two maps, and sort every
/// candidate.
pub fn oracle_recommend(
    store: &TdStore,
    config: &CfPipelineConfig,
    user: UserId,
    n: usize,
) -> Vec<(ItemId, f64)> {
    let Some(mut history) = store
        .read(&keys::user_history(user), |raw| raw.map(read_history))
        .ok()
        .flatten()
    else {
        return Vec::new();
    };
    let rated: FxHashSet<ItemId> = history.iter().map(|&(i, _, _)| i).collect();
    // Most recent first.
    history.sort_by_key(|&(_, _, ts)| std::cmp::Reverse(ts));
    history.truncate(config.recent_k);
    let mut num: FxHashMap<ItemId, f64> = FxHashMap::default();
    let mut den: FxHashMap<ItemId, f64> = FxHashMap::default();
    for &(recent_item, rating, _) in &history {
        let similar = store
            .read(&keys::similar_items(recent_item), |raw| {
                raw.map(decode_sim_list).unwrap_or_default()
            })
            .unwrap_or_default();
        for (candidate, sim) in similar {
            if rated.contains(&candidate) {
                continue;
            }
            *num.entry(candidate).or_insert(0.0) += sim * rating;
            *den.entry(candidate).or_insert(0.0) += sim;
        }
    }
    let mut recs: Vec<(ItemId, f64)> = num
        .into_iter()
        .map(|(item, numerator)| (item, numerator / den[&item]))
        .collect();
    recs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    recs.truncate(n);
    recs
}
