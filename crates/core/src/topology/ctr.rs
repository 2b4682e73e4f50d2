//! The situational-CTR topology — the paper's Fig. 7 example
//! (`spout → pretreatment → ctrStore → ctrBolt → resultStorage`),
//! constructible both programmatically and from the XML configuration
//! format via [`ctr_registry`].
//!
//! It reads the same [`UserAction`](crate::action::UserAction) topic as
//! every other algorithm: an `Impression` action counts one impression of
//! its item, a `Click` one click, so a producer logs both for a clicked
//! view. Pretreatment looks the situation (gender, age band) up in the
//! [`ProfileRegistry`].
//!
//! The decoupling of Fig. 6 is visible here: `CtrStoreBolt` is a *data
//! statistics* unit (it only maintains impression/click counts in
//! TDStore), `CtrBolt` is an *algorithm computation* unit (it reads the
//! statistics and recomputes the smoothed CTR), and `ResultStorageBolt`
//! persists the per-situation ranking that the query side serves.

use crate::action::ActionType;
use crate::db::DemographicProfile;
use crate::fields::FieldIndex;
use crate::topology::demographic::ProfileRegistry;
use crate::topology::state::{
    ctr_clicks, ctr_imps, ctr_rate, decode_scalar, encode_scalar, session_key, session_of,
    window_sessions, windowed_sum,
};
use crate::types::ItemId;
use tdstore::TdStore;
use tstorm::config::ComponentRegistry;
use tstorm::prelude::*;

/// CTR pipeline parameters.
#[derive(Debug, Clone)]
pub struct CtrPipelineConfig {
    /// Sliding window (None = unbounded counts).
    pub window: Option<crate::cf::counts::WindowConfig>,
    /// Smoothing pseudo-impressions per back-off level.
    pub smoothing: f64,
    /// Global prior CTR.
    pub prior_ctr: f64,
}

impl Default for CtrPipelineConfig {
    fn default() -> Self {
        CtrPipelineConfig {
            window: None,
            smoothing: 20.0,
            prior_ctr: 0.01,
        }
    }
}

/// Tuple fields of an ad event, as pretreatment emits them.
pub const AD_FIELDS: [&str; 5] = ["item", "gender", "age_band", "clicked", "ts"];

/// Pretreatment for ad events: keeps impressions and clicks, drops every
/// other action and every malformed tuple, and attaches the viewer's
/// situation from the profile registry.
pub struct AdPretreatmentBolt {
    profiles: ProfileRegistry,
    fields: FieldIndex<4>,
}

impl AdPretreatmentBolt {
    /// New bolt reading situations from `profiles`.
    pub fn new(profiles: ProfileRegistry) -> Self {
        AdPretreatmentBolt {
            profiles,
            fields: FieldIndex::new(["user", "item", "action", "ts"]),
        }
    }
}

impl Bolt for AdPretreatmentBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        let [user_i, item_i, action_i, ts_i] = *self.fields.resolve(tuple);
        let values = tuple.values();
        let (Some(user), Some(item), Some(code), Some(ts)) = (
            values[user_i].as_u64(),
            values[item_i].as_u64(),
            values[action_i].as_u64(),
            values[ts_i].as_u64(),
        ) else {
            return Ok(()); // filtered, still acked
        };
        let clicked = match u8::try_from(code).ok().and_then(ActionType::from_code) {
            Some(ActionType::Impression) => false,
            Some(ActionType::Click) => true,
            _ => return Ok(()),
        };
        let profile = self.profiles.get(user);
        collector.emit_values(&[
            Value::U64(item),
            Value::U64(profile.gender as u64),
            Value::U64(profile.age_band() as u64),
            Value::Bool(clicked),
            Value::U64(ts),
        ]);
        Ok(())
    }

    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, AD_FIELDS)]
    }
}

/// Data-statistics unit (`CtrStore` in Fig. 7): maintains windowed
/// impression/click counts per `(item, gender, age band)` cell in
/// TDStore — an impression adds one impression, a click one click — then
/// notifies the algorithm layer.
pub struct CtrStoreBolt {
    store: TdStore,
    config: CtrPipelineConfig,
    fields: FieldIndex<5>,
}

impl CtrStoreBolt {
    /// New bolt over the shared store.
    pub fn new(store: TdStore, config: CtrPipelineConfig) -> Self {
        CtrStoreBolt {
            store,
            config,
            fields: FieldIndex::new(["item", "gender", "age_band", "clicked", "ts"]),
        }
    }
}

impl Bolt for CtrStoreBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        let [item_i, gender_i, age_i, clicked_i, ts_i] = *self.fields.resolve(tuple);
        let item = tuple.u64_at(item_i);
        let gender = tuple.u64_at(gender_i) as u8;
        let age_band = tuple.u64_at(age_i) as u8;
        let clicked = tuple.values()[clicked_i]
            .as_bool()
            .ok_or("missing clicked flag")?;
        let ts = tuple.u64_at(ts_i);
        let session = session_of(self.config.window, ts);
        let counter = if clicked {
            ctr_clicks(item, gender, age_band)
        } else {
            ctr_imps(item, gender, age_band)
        };
        self.store
            .incr_f64(&session_key(&counter, session), 1.0)
            .map_err(|e| e.to_string())?;
        collector.emit_values(&[
            Value::U64(item),
            Value::U64(gender as u64),
            Value::U64(age_band as u64),
            Value::U64(ts),
        ]);
        Ok(())
    }

    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(
            DEFAULT_STREAM,
            ["item", "gender", "age_band", "ts"],
        )]
    }
}

/// Algorithm-computation unit (`CtrBolt` in Fig. 7): reads the statistics
/// back from TDStore and recomputes the smoothed CTR of the touched cell.
pub struct CtrBolt {
    store: TdStore,
    config: CtrPipelineConfig,
    fields: FieldIndex<4>,
}

impl CtrBolt {
    /// New bolt over the shared store.
    pub fn new(store: TdStore, config: CtrPipelineConfig) -> Self {
        CtrBolt {
            store,
            config,
            fields: FieldIndex::new(["item", "gender", "age_band", "ts"]),
        }
    }
}

impl Bolt for CtrBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        let [item_i, gender_i, age_i, ts_i] = *self.fields.resolve(tuple);
        let item = tuple.u64_at(item_i);
        let gender = tuple.u64_at(gender_i) as u8;
        let age_band = tuple.u64_at(age_i) as u8;
        let ts = tuple.u64_at(ts_i);
        let windows = window_sessions(self.config.window);
        let session = session_of(self.config.window, ts);
        let map_err = |e: tdstore::StoreError| e.to_string();
        let imps = windowed_sum(
            &self.store,
            &ctr_imps(item, gender, age_band),
            session,
            windows,
        )
        .map_err(map_err)?;
        let clicks = windowed_sum(
            &self.store,
            &ctr_clicks(item, gender, age_band),
            session,
            windows,
        )
        .map_err(map_err)?;
        let ctr = (clicks + self.config.smoothing * self.config.prior_ctr)
            / (imps + self.config.smoothing);
        collector.emit_values(&[
            Value::U64(item),
            Value::U64(gender as u64),
            Value::U64(age_band as u64),
            Value::F64(ctr),
        ]);
        Ok(())
    }

    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(
            DEFAULT_STREAM,
            ["item", "gender", "age_band", "ctr"],
        )]
    }
}

/// Storage-layer unit (`ResultStorage` in Fig. 7): persists computed CTRs
/// where the recommender engine can read them.
pub struct ResultStorageBolt {
    store: TdStore,
    fields: FieldIndex<4>,
}

impl ResultStorageBolt {
    /// New bolt over the shared store.
    pub fn new(store: TdStore) -> Self {
        ResultStorageBolt {
            store,
            fields: FieldIndex::new(["item", "gender", "age_band", "ctr"]),
        }
    }
}

impl Bolt for ResultStorageBolt {
    fn execute(&mut self, tuple: &Tuple, _collector: &mut BoltCollector) -> Result<(), String> {
        let [item_i, gender_i, age_i, ctr_i] = *self.fields.resolve(tuple);
        let item = tuple.u64_at(item_i);
        let gender = tuple.u64_at(gender_i) as u8;
        let age_band = tuple.u64_at(age_i) as u8;
        let ctr = tuple.f64_at(ctr_i);
        self.store
            .put(&ctr_rate(item, gender, age_band), encode_scalar(ctr))
            .map_err(|e| e.to_string())?;
        Ok(())
    }
}

/// The paper's Fig. 7 XML, adapted to this crate's configuration format.
pub const FIG7_XML: &str = r#"
<topology name="cf-test">
  <spout name="spout" class="Spout" parallelism="1"/>
  <bolts>
    <bolt name="pretreatment" class="Pretreatment" parallelism="2">
      <grouping type="field">
        <source>spout</source>
        <fields>item</fields>
      </grouping>
    </bolt>
    <bolt name="ctrStore" class="CtrStore" parallelism="4">
      <grouping type="field">
        <source>pretreatment</source>
        <fields>item, gender, age_band</fields>
      </grouping>
    </bolt>
    <bolt name="ctrBolt" class="CtrBolt" parallelism="4">
      <grouping type="field">
        <source>ctrStore</source>
        <fields>item, gender, age_band</fields>
      </grouping>
    </bolt>
    <bolt name="resultStorage" class="ResultStorage" parallelism="2">
      <grouping type="field">
        <source>ctrBolt</source>
        <fields>item, gender, age_band</fields>
      </grouping>
    </bolt>
  </bolts>
</topology>
"#;

/// Builds the class registry for the Fig. 7 topology over the spouts
/// `spout` makes (a [`ReplayableSpout`](crate::topology::ReplayableSpout)
/// reading an action topic), with situations from `profiles`. "To
/// generate topology for a specific application, we just need to rewrite
/// the XML file."
pub fn ctr_registry<S, F>(
    spout: F,
    profiles: ProfileRegistry,
    store: TdStore,
    config: CtrPipelineConfig,
) -> ComponentRegistry
where
    S: Spout + 'static,
    F: Fn() -> S + Send + Sync + 'static,
{
    let mut registry = ComponentRegistry::new();
    registry.register_spout("Spout", spout);
    registry.register_bolt("Pretreatment", move || {
        AdPretreatmentBolt::new(profiles.clone())
    });
    {
        let store = store.clone();
        let config = config.clone();
        registry.register_bolt("CtrStore", move || {
            CtrStoreBolt::new(store.clone(), config.clone())
        });
    }
    {
        let store = store.clone();
        let config = config.clone();
        registry.register_bolt("CtrBolt", move || {
            CtrBolt::new(store.clone(), config.clone())
        });
    }
    registry.register_bolt("ResultStorage", move || {
        ResultStorageBolt::new(store.clone())
    });
    registry
}

/// Query side: the stored smoothed CTR of a cell.
pub fn stored_ctr(store: &TdStore, item: ItemId, profile: &DemographicProfile) -> Option<f64> {
    store
        .read(&ctr_rate(item, profile.gender, profile.age_band()), |raw| {
            raw.and_then(decode_scalar)
        })
        .ok()
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::UserAction;
    use crate::topology::replay::test_feed::TopicFeed;
    use tdstore::StoreConfig;
    use tstorm::config::topology_from_xml;

    fn profile(gender: u8, age: u8) -> DemographicProfile {
        DemographicProfile {
            gender,
            age,
            region: 0,
        }
    }

    /// Logs one view of `item` by `user`: an impression, and a click
    /// after it when `clicked`.
    fn view(log: &mut Vec<UserAction>, user: u64, item: u64, clicked: bool, ts: u64) {
        log.push(UserAction::new(user, item, ActionType::Impression, ts));
        if clicked {
            log.push(UserAction::new(user, item, ActionType::Click, ts));
        }
    }

    /// User 1 is a man in his twenties, user 2 a woman.
    fn profiles() -> ProfileRegistry {
        let profiles = ProfileRegistry::new();
        profiles.set(1, profile(1, 25));
        profiles.set(2, profile(0, 25));
        profiles
    }

    #[test]
    fn fig7_topology_from_xml_computes_ctr() {
        let store = TdStore::new(StoreConfig::default());
        let mut log = Vec::new();
        // Ad 1: 25% CTR for men, 0% for women.
        for i in 0..200u64 {
            view(&mut log, 1, 1, i % 4 == 0, i);
            view(&mut log, 2, 1, false, i);
        }
        let feed = TopicFeed::new(4, &log);
        let registry = ctr_registry(
            feed.spout(),
            profiles(),
            store.clone(),
            CtrPipelineConfig::default(),
        );
        let topo = topology_from_xml(FIG7_XML, &registry).expect("Fig. 7 XML builds");
        feed.drain(topo.launch());

        let men = stored_ctr(&store, 1, &profile(1, 25)).expect("cell computed");
        let women = stored_ctr(&store, 1, &profile(0, 25)).expect("cell computed");
        assert!(
            (men - 0.25).abs() < 0.05,
            "male cell should be near 25%, got {men}"
        );
        assert!(women < 0.05, "female cell should be near 0, got {women}");
    }

    #[test]
    fn windowed_ctr_forgets() {
        let store = TdStore::new(StoreConfig::default());
        let config = CtrPipelineConfig {
            window: Some(crate::cf::counts::WindowConfig {
                session_ms: 1_000,
                sessions: 2,
            }),
            smoothing: 0.001, // near-raw for the assertion
            prior_ctr: 0.0,
        };
        // Early burst of clicked views, then a late impression far outside
        // the window.
        let mut log = Vec::new();
        for i in 0..50u64 {
            view(&mut log, 1, 7, true, i);
        }
        view(&mut log, 1, 7, false, 100_000);
        let feed = TopicFeed::new(4, &log);
        let registry = ctr_registry(feed.spout(), profiles(), store.clone(), config);
        // Single-task pretreatment keeps event order end-to-end so the
        // late impression is guaranteed to be the last computation.
        let xml = FIG7_XML.replace(
            r#"class="Pretreatment" parallelism="2""#,
            r#"class="Pretreatment" parallelism="1""#,
        );
        let topo = topology_from_xml(&xml, &registry).unwrap();
        feed.drain(topo.launch());
        let ctr = stored_ctr(&store, 7, &profile(1, 25)).unwrap();
        assert!(
            ctr < 0.01,
            "after the window expired only the late impression counts: {ctr}"
        );
    }

    #[test]
    fn pretreatment_keeps_only_impressions_and_clicks() {
        // A purchase is no ad event: it reaches pretreatment, and no cell.
        let store = TdStore::new(StoreConfig::default());
        let feed = TopicFeed::new(1, &[UserAction::new(1, 3, ActionType::Purchase, 0)]);
        let registry = ctr_registry(
            feed.spout(),
            profiles(),
            store.clone(),
            CtrPipelineConfig::default(),
        );
        let topo = topology_from_xml(FIG7_XML, &registry).unwrap();
        let metrics = feed.drain(topo.launch());
        let executed = |name: &str| {
            metrics
                .iter()
                .find(|m| m.component == name)
                .unwrap()
                .executed
        };
        assert_eq!((executed("pretreatment"), executed("ctrStore")), (1, 0));
        assert_eq!(stored_ctr(&store, 3, &profile(1, 25)), None);
    }

    #[test]
    fn fig7_xml_is_well_formed() {
        let doc = tstorm::xml::parse(FIG7_XML).expect("valid XML");
        assert_eq!(doc.name, "topology");
        assert_eq!(doc.children_named("spout").count(), 1);
        assert_eq!(doc.child("bolts").expect("bolts element").children.len(), 4);
    }
}
