//! Declarative topology deployment — the paper's Fig. 7: "to deploy
//! different topologies easily, we implement a module to generate Storm
//! topologies from XML configuration files."
//!
//! This example builds the situational-CTR topology from the checked-in
//! Fig. 7 XML, logs ad impressions and clicks to a TDAccess topic that
//! the topology's replayable spout reads, and answers per-demographic CTR
//! queries from TDStore. It asserts that every logged action committed
//! and that the male cell's CTR lies above the female cell's.
//!
//! ```sh
//! cargo run --example xml_topology
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};
use tdaccess::{AccessCluster, ClusterConfig};
use tdstore::{StoreConfig, TdStore};
use tencentrec::action::{ActionType, UserAction};
use tencentrec::db::DemographicProfile;
use tencentrec::topology::ctr::{ctr_registry, stored_ctr, CtrPipelineConfig, FIG7_XML};
use tencentrec::topology::demographic::ProfileRegistry;
use tencentrec::topology::{produce_actions, ReplayProgress, ReplayableSpout};
use tstorm::config::topology_from_xml;

fn main() {
    println!("Fig. 7 topology XML:\n{FIG7_XML}");

    // Two demographics react differently to ad 1: user 1 is a man in his
    // twenties, user 2 a woman.
    let men = DemographicProfile {
        gender: 1,
        age: 25,
        region: 10,
    };
    let women = DemographicProfile {
        gender: 0,
        age: 25,
        region: 10,
    };
    let profiles = ProfileRegistry::new();
    profiles.set(1, men);
    profiles.set(2, women);

    // Every view logs an impression, and a clicked view a click after it.
    let mut log = Vec::new();
    for i in 0..500u64 {
        for (user, clicked) in [(1, i % 5 == 0), (2, i % 50 == 0)] {
            log.push(UserAction::new(user, 1, ActionType::Impression, i));
            if clicked {
                log.push(UserAction::new(user, 1, ActionType::Click, i));
            }
        }
    }
    let access = AccessCluster::new(ClusterConfig::default());
    access.create_topic("ad_actions", 4).expect("create topic");
    produce_actions(&access.producer("ad_actions").expect("producer"), &log).expect("send");

    let store = TdStore::new(StoreConfig::default());
    let progress = Arc::new(ReplayProgress::default());
    let spout = {
        let progress = Arc::clone(&progress);
        move || ReplayableSpout::new(access.clone(), "ad_actions", "ctr", Arc::clone(&progress))
    };
    let registry = ctr_registry(spout, profiles, store.clone(), CtrPipelineConfig::default());
    let topology = topology_from_xml(FIG7_XML, &registry).expect("XML builds");
    let handle = topology.launch();
    let deadline = Instant::now() + Duration::from_secs(30);
    while progress.committed() < log.len() as u64 {
        assert!(
            Instant::now() < deadline,
            "stalled: {} of {} offsets committed",
            progress.committed(),
            log.len()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    println!("committed all {} logged actions", log.len());

    let (male, female) = (
        stored_ctr(&store, 1, &men).expect("male cell computed"),
        stored_ctr(&store, 1, &women).expect("female cell computed"),
    );
    assert!(male > female, "male CTR {male} not above female {female}");
    println!("smoothed CTR of ad 1 (male, 20s):   {:.1}%", male * 100.0);
    println!("smoothed CTR of ad 1 (female, 20s): {:.1}%", female * 100.0);

    let metrics = handle.shutdown(Duration::from_secs(5));
    println!("\ntopology (from XML) metrics:");
    for m in metrics {
        println!("  {:<14} executed {:>6}", m.component, m.executed);
    }
}
