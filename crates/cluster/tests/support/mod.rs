//! A worker slice for tuple-frame tests. Nothing runs locally: a frame
//! injected for `sink` lands in one of its task queues, that task's
//! egress pump drains it, and the test's egress callback sees the
//! runtime batches — the whole worker data plane minus the socket.
//!
//! Streams the slice declares, as `(source, stream, width)`: see
//! [`SOURCES`]. The non-ASCII stream name keeps the codec honest about
//! byte lengths.

#![allow(dead_code)]

use bytes::BytesMut;
use tcluster::protocol::{self, Msg};
use tstorm::ack::AckRoute;
use tstorm::prelude::*;
use tstorm::remote::{EgressFn, SliceSpec, TupleBatch, WireTuple};

/// Every `(source, stream, width)` the slice declares.
pub const SOURCES: [(&str, &str, usize); 3] = [
    ("numbers", DEFAULT_STREAM, 2),
    ("numbers", "größe", 3),
    ("relay", DEFAULT_STREAM, 1),
];

/// Tasks of the `sink` component.
pub const SINK_TASKS: usize = 2;

fn fields(width: usize) -> Vec<String> {
    (0..width).map(|i| format!("f{i}")).collect()
}

fn streams_of(component: &str) -> Vec<StreamDef> {
    SOURCES
        .iter()
        .filter(|(src, _, _)| *src == component)
        .map(|&(_, stream, width)| StreamDef::new(stream, fields(width)))
        .collect()
}

struct Silent;

impl Spout for Silent {
    fn next_tuple(&mut self, _: &mut SpoutCollector) -> bool {
        false
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        streams_of("numbers")
    }
}

struct Relay;

impl Bolt for Relay {
    fn execute(&mut self, _: &Tuple, _: &mut BoltCollector) -> Result<(), String> {
        Ok(())
    }
    fn declare_outputs(&self) -> Vec<StreamDef> {
        streams_of("relay")
    }
}

/// Launches the slice with `egress` receiving every batch bound for
/// `sink`. Queues and drains are sized so one injected frame leaves as
/// one egress call.
pub fn launch(egress: EgressFn) -> TopologyHandle {
    let mut builder = TopologyBuilder::new().with_config(TopologyConfig {
        queue_capacity: 4096,
        batch_size: 1024,
        ..TopologyConfig::default()
    });
    builder.set_spout("numbers", || Silent, 1);
    builder
        .set_bolt("relay", || Relay, 1)
        .shuffle_grouping("numbers");
    let mut sink = builder.set_bolt(
        "sink",
        || |_: &Tuple, _: &mut BoltCollector| Ok(()),
        SINK_TASKS,
    );
    for (src, stream, _) in SOURCES {
        sink.grouping_on(src, stream, Grouping::Shuffle);
    }
    builder.build().unwrap().launch_slice(SliceSpec {
        local: Default::default(),
        ack_route: AckRoute::local(std::time::Duration::from_secs(30)),
        egress,
    })
}

/// The owned form of `batches`' tuples, in batch order.
pub fn owned(batches: &[TupleBatch]) -> Vec<WireTuple> {
    batches
        .iter()
        .flat_map(|b| {
            b.tuples().map(|(values, anchors)| WireTuple {
                stream: b.stream().to_string(),
                src_component: b.src_component().to_string(),
                src_task: b.src_task(),
                values: values.to_vec(),
                anchors: anchors.to_vec(),
            })
        })
        .collect()
}

/// The whole frame [`protocol::encode`] writes for `tuples`.
pub fn encode_owned(id: u64, dest: &str, task: usize, tuples: Vec<WireTuple>) -> BytesMut {
    let mut buf = BytesMut::new();
    protocol::encode(
        &mut buf,
        id,
        &Msg::TupleBatch {
            dest_component: dest.to_string(),
            dest_task: task,
            tuples,
        },
    );
    buf
}

/// The body of the frame [`encode_owned`] writes.
pub fn body(dest: &str, task: usize, tuples: Vec<WireTuple>) -> BytesMut {
    let mut buf = encode_owned(0, dest, task, tuples);
    wire::split_frame(&mut buf).unwrap().unwrap().2
}
