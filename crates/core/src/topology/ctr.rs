//! The situational-CTR topology — the paper's Fig. 7 example
//! (`spout → pretreatment → ctrStore → ctrBolt → resultStorage`),
//! constructible both programmatically and from the XML configuration
//! format via [`ctr_registry`].
//!
//! The decoupling of Fig. 6 is visible here: `CtrStoreBolt` is a *data
//! statistics* unit (it only maintains impression/click counts in
//! TDStore), `CtrBolt` is an *algorithm computation* unit (it reads the
//! statistics and recomputes the smoothed CTR), and `ResultStorageBolt`
//! persists the per-situation ranking that the query side serves.

use crate::db::DemographicProfile;
use crate::fields::FieldIndex;
use crate::topology::state::{
    ctr_clicks, ctr_imps, ctr_rate, decode_scalar, encode_scalar, session_key, session_of,
    window_sessions, windowed_sum,
};
use crate::types::ItemId;
use crossbeam::channel::Receiver;
use tdstore::TdStore;
use tstorm::config::ComponentRegistry;
use tstorm::prelude::*;

/// One ad event on the wire: an impression or a click of `item` in a
/// demographic situation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdEvent {
    /// Shown/clicked item (advertisement).
    pub item: ItemId,
    /// Viewer demographics.
    pub profile: DemographicProfile,
    /// Placement position.
    pub position: u8,
    /// Whether this event is a click (false = impression).
    pub clicked: bool,
    /// Event time.
    pub timestamp: u64,
}

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

/// Spout feeding [`AdEvent`]s from a channel.
pub struct AdEventSpout {
    source: Receiver<AdEvent>,
    emitted: u64,
}

impl AdEventSpout {
    /// Spout reading from `source`.
    pub fn new(source: Receiver<AdEvent>) -> Self {
        AdEventSpout { source, emitted: 0 }
    }
}

/// Tuple fields emitted by [`AdEventSpout`].
pub const AD_FIELDS: [&str; 6] = ["item", "gender", "age_band", "position", "clicked", "ts"];

impl Spout for AdEventSpout {
    fn next_tuple(&mut self, collector: &mut SpoutCollector) -> bool {
        match self.source.try_recv() {
            Ok(ev) => {
                self.emitted += 1;
                collector.emit(
                    vec![
                        Value::U64(ev.item),
                        Value::U64(ev.profile.gender as u64),
                        Value::U64(ev.profile.age_band() as u64),
                        Value::U64(ev.position as u64),
                        Value::Bool(ev.clicked),
                        Value::U64(ev.timestamp),
                    ],
                    Some(self.emitted),
                );
                true
            }
            Err(_) => false,
        }
    }

    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, AD_FIELDS)]
    }
}

/// Pretreatment for ad events: drops malformed tuples, forwards the rest.
pub struct AdPretreatmentBolt;

impl Bolt for AdPretreatmentBolt {
    fn execute(&mut self, tuple: &Tuple, collector: &mut BoltCollector) -> Result<(), String> {
        if tuple.u64("gender") > u8::MAX as u64 || tuple.u64("age_band") > u8::MAX as u64 {
            return Ok(()); // filtered, still acked
        }
        collector.emit_values(tuple.values());
        Ok(())
    }

    fn declare_outputs(&self) -> Vec<StreamDef> {
        vec![StreamDef::new(DEFAULT_STREAM, AD_FIELDS)]
    }
}

/// Data-statistics unit (`CtrStore` in Fig. 7): maintains windowed
/// impression/click counts per `(item, gender, age band)` cell in
/// TDStore, then notifies the algorithm layer.
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
        let map_err = |e: tdstore::StoreError| e.to_string();
        self.store
            .incr_f64(
                &session_key(&ctr_imps(item, gender, age_band), session),
                1.0,
            )
            .map_err(map_err)?;
        if clicked {
            self.store
                .incr_f64(
                    &session_key(&ctr_clicks(item, gender, age_band), session),
                    1.0,
                )
                .map_err(map_err)?;
        }
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

/// Builds the class registry for the Fig. 7 topology. "To generate
/// topology for a specific application, we just need to rewrite the XML
/// file."
pub fn ctr_registry(
    source: Receiver<AdEvent>,
    store: TdStore,
    config: CtrPipelineConfig,
) -> ComponentRegistry {
    let mut registry = ComponentRegistry::new();
    registry.register_spout("Spout", move || AdEventSpout::new(source.clone()));
    registry.register_bolt("Pretreatment", || AdPretreatmentBolt);
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
    use crossbeam::channel::unbounded;
    use std::time::Duration;
    use tdstore::StoreConfig;
    use tstorm::config::topology_from_xml;

    fn profile(gender: u8, age: u8) -> DemographicProfile {
        DemographicProfile {
            gender,
            age,
            region: 0,
        }
    }

    fn event(item: u64, gender: u8, clicked: bool, ts: u64) -> AdEvent {
        AdEvent {
            item,
            profile: profile(gender, 25),
            position: 0,
            clicked,
            timestamp: ts,
        }
    }

    #[test]
    fn fig7_topology_from_xml_computes_ctr() {
        let store = TdStore::new(StoreConfig::default());
        let (tx, rx) = unbounded();
        // Ad 1: 25% CTR for men, 0% for women.
        for i in 0..200u64 {
            tx.send(event(1, 1, i % 4 == 0, i)).unwrap();
            tx.send(event(1, 0, false, i)).unwrap();
        }
        drop(tx);
        let registry = ctr_registry(rx, store.clone(), CtrPipelineConfig::default());
        let topo = topology_from_xml(FIG7_XML, &registry).expect("Fig. 7 XML builds");
        let handle = topo.launch();
        assert!(handle.wait_idle(Duration::from_secs(30)));
        handle.shutdown(Duration::from_secs(5));

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
        let (tx, rx) = unbounded();
        let config = CtrPipelineConfig {
            window: Some(crate::cf::counts::WindowConfig {
                session_ms: 1_000,
                sessions: 2,
            }),
            smoothing: 0.001, // near-raw for the assertion
            prior_ctr: 0.0,
        };
        // Early burst of clicks, then a late impression far outside the
        // window.
        for i in 0..50u64 {
            tx.send(event(7, 1, true, i)).unwrap();
        }
        tx.send(event(7, 1, false, 100_000)).unwrap();
        drop(tx);
        let registry = ctr_registry(rx, store.clone(), config);
        // Single-task pretreatment keeps event order end-to-end so the
        // late impression is guaranteed to be the last computation.
        let xml = FIG7_XML.replace(
            r#"class="Pretreatment" parallelism="2""#,
            r#"class="Pretreatment" parallelism="1""#,
        );
        let topo = topology_from_xml(&xml, &registry).unwrap();
        let handle = topo.launch();
        assert!(handle.wait_idle(Duration::from_secs(30)));
        handle.shutdown(Duration::from_secs(5));
        let ctr = stored_ctr(&store, 7, &profile(1, 25)).unwrap();
        assert!(
            ctr < 0.01,
            "after the window expired only the late impression counts: {ctr}"
        );
    }

    #[test]
    fn fig7_xml_is_well_formed() {
        let doc = tstorm::xml::parse(FIG7_XML).expect("valid XML");
        assert_eq!(doc.name, "topology");
        assert_eq!(doc.children_named("spout").count(), 1);
        assert_eq!(doc.child("bolts").expect("bolts element").children.len(), 4);
    }
}
