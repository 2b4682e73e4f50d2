//! Topology definition and validation.
//!
//! A topology is a DAG of spouts and bolts connected by subscriptions, each
//! with a [`Grouping`]. Building validates the graph (names, streams,
//! grouping fields, acyclicity); [`Topology::launch`] starts the threads.

use crate::component::{Bolt, Spout, StreamDef};
use crate::grouping::Grouping;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Duration;

/// Factory producing one spout instance per task.
pub type SpoutFactory = std::sync::Arc<dyn Fn() -> Box<dyn Spout> + Send + Sync>;
/// Factory producing one bolt instance per task (shared so the runtime
/// can rebuild a bolt after a panic).
pub type BoltFactory = std::sync::Arc<dyn Fn() -> Box<dyn Bolt> + Send + Sync>;

/// Errors detected while building a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Two components share a name.
    DuplicateComponent(String),
    /// A subscription references an unknown source component.
    UnknownSource {
        /// The subscribing bolt.
        bolt: String,
        /// The missing source.
        src: String,
    },
    /// A subscription references a stream the source does not declare.
    UnknownStream {
        /// The subscribing bolt.
        bolt: String,
        /// The source component.
        src: String,
        /// The undeclared stream.
        stream: String,
    },
    /// A fields grouping names a field absent from the stream schema.
    BadGroupingField {
        /// The subscribing bolt.
        bolt: String,
        /// The source component.
        src: String,
        /// The subscribed stream.
        stream: String,
        /// The unknown field.
        field: String,
    },
    /// The component graph has a cycle.
    Cycle(String),
    /// The topology has no spouts.
    NoSpouts,
    /// A component has zero parallelism.
    ZeroParallelism(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DuplicateComponent(n) => write!(f, "duplicate component `{n}`"),
            TopologyError::UnknownSource { bolt, src } => {
                write!(f, "bolt `{bolt}` subscribes to unknown component `{src}`")
            }
            TopologyError::UnknownStream { bolt, src, stream } => write!(
                f,
                "bolt `{bolt}` subscribes to undeclared stream `{src}:{stream}`"
            ),
            TopologyError::BadGroupingField {
                bolt,
                src,
                stream,
                field,
            } => write!(
                f,
                "bolt `{bolt}`: grouping field `{field}` is not in schema of `{src}:{stream}`"
            ),
            TopologyError::Cycle(n) => write!(f, "topology contains a cycle through `{n}`"),
            TopologyError::NoSpouts => write!(f, "topology has no spouts"),
            TopologyError::ZeroParallelism(n) => {
                write!(f, "component `{n}` has parallelism 0")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Runtime knobs.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Bounded capacity of each task's input queue; full queues block
    /// producers (backpressure).
    pub queue_capacity: usize,
    /// Tuple trees older than this are failed back to their spout.
    pub message_timeout: Duration,
    /// Fault-injection schedule (executor panics, tuple drops/delays).
    /// [`tchaos::FaultPlan::none`] — the default — injects nothing.
    pub fault_plan: tchaos::FaultPlan,
    /// Clock driving the acker's timeout sweep; a mock clock lets tests
    /// expire tuple trees in logical time.
    pub clock: tchaos::Clock,
    /// Batch transport knob: the maximum tuples per emit buffer before it
    /// flushes to the downstream queue, and the maximum run handed to one
    /// bolt invocation. `1` disables batching (every emit is delivered
    /// immediately, every tuple executes alone) — the pre-batching
    /// behaviour.
    pub batch_size: usize,
    /// Upper bound on how long a spout-side emit buffer may age before it
    /// is flushed even when below `batch_size`. Bolt-side buffers flush at
    /// the end of every execute run and on ticks, so this interval is the
    /// extra latency batching can add to a trickle of tuples.
    pub flush_interval: Duration,
    /// Exposition registry every runtime metric attaches to (component
    /// counters, queue depths, backpressure stalls, batch sizes, pipeline
    /// latency). Share one registry across topologies and other subsystems
    /// to render a single combined text exposition.
    pub registry: obs::Registry,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            queue_capacity: 1024,
            message_timeout: Duration::from_secs(30),
            fault_plan: tchaos::FaultPlan::none(),
            clock: tchaos::Clock::system(),
            batch_size: 64,
            flush_interval: Duration::from_millis(1),
            registry: obs::Registry::new(),
        }
    }
}

pub(crate) struct Subscription {
    pub(crate) src: String,
    pub(crate) stream: String,
    pub(crate) grouping: Grouping,
}

pub(crate) struct SpoutDef {
    pub(crate) name: String,
    pub(crate) factory: SpoutFactory,
    pub(crate) parallelism: usize,
    pub(crate) outputs: Vec<StreamDef>,
}

pub(crate) struct BoltDef {
    pub(crate) name: String,
    pub(crate) factory: BoltFactory,
    pub(crate) parallelism: usize,
    pub(crate) subscriptions: Vec<Subscription>,
    pub(crate) tick: Option<Duration>,
    pub(crate) outputs: Vec<StreamDef>,
}

/// Incrementally assembles a topology. See the crate docs for an example.
pub struct TopologyBuilder {
    pub(crate) config: TopologyConfig,
    pub(crate) spouts: Vec<SpoutDef>,
    pub(crate) bolts: Vec<BoltDef>,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TopologyBuilder {
    /// Empty builder with default config.
    pub fn new() -> Self {
        TopologyBuilder {
            config: TopologyConfig::default(),
            spouts: Vec::new(),
            bolts: Vec::new(),
        }
    }

    /// Overrides the runtime configuration.
    pub fn with_config(mut self, config: TopologyConfig) -> Self {
        self.config = config;
        self
    }

    /// Registers a spout. `factory` is invoked once per task.
    pub fn set_spout<S, F>(&mut self, name: &str, factory: F, parallelism: usize)
    where
        S: Spout + 'static,
        F: Fn() -> S + Send + Sync + 'static,
    {
        let probe = factory();
        let outputs = probe.declare_outputs();
        self.spouts.push(SpoutDef {
            name: name.to_string(),
            factory: std::sync::Arc::new(move || Box::new(factory())),
            parallelism,
            outputs,
        });
    }

    /// Registers a bolt and returns a declarer for its subscriptions.
    pub fn set_bolt<B, F>(&mut self, name: &str, factory: F, parallelism: usize) -> BoltDeclarer<'_>
    where
        B: Bolt + 'static,
        F: Fn() -> B + Send + Sync + 'static,
    {
        let probe = factory();
        let outputs = probe.declare_outputs();
        self.bolts.push(BoltDef {
            name: name.to_string(),
            factory: std::sync::Arc::new(move || Box::new(factory())),
            parallelism,
            subscriptions: Vec::new(),
            tick: None,
            outputs,
        });
        let idx = self.bolts.len() - 1;
        BoltDeclarer { builder: self, idx }
    }

    /// Validates and freezes the topology.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if self.spouts.is_empty() {
            return Err(TopologyError::NoSpouts);
        }
        let mut names: HashSet<&str> = HashSet::new();
        let mut outputs_of: HashMap<&str, &[StreamDef]> = HashMap::new();
        for s in &self.spouts {
            if s.parallelism == 0 {
                return Err(TopologyError::ZeroParallelism(s.name.clone()));
            }
            if !names.insert(&s.name) {
                return Err(TopologyError::DuplicateComponent(s.name.clone()));
            }
            outputs_of.insert(&s.name, &s.outputs);
        }
        for b in &self.bolts {
            if b.parallelism == 0 {
                return Err(TopologyError::ZeroParallelism(b.name.clone()));
            }
            if !names.insert(&b.name) {
                return Err(TopologyError::DuplicateComponent(b.name.clone()));
            }
            outputs_of.insert(&b.name, &b.outputs);
        }
        for b in &self.bolts {
            for sub in &b.subscriptions {
                let Some(streams) = outputs_of.get(sub.src.as_str()) else {
                    return Err(TopologyError::UnknownSource {
                        bolt: b.name.clone(),
                        src: sub.src.clone(),
                    });
                };
                let Some(def) = streams.iter().find(|d| d.id == sub.stream) else {
                    return Err(TopologyError::UnknownStream {
                        bolt: b.name.clone(),
                        src: sub.src.clone(),
                        stream: sub.stream.clone(),
                    });
                };
                if let Grouping::Fields(fields) = &sub.grouping {
                    for field in fields {
                        if def.schema.index_of(field).is_none() {
                            return Err(TopologyError::BadGroupingField {
                                bolt: b.name.clone(),
                                src: sub.src.clone(),
                                stream: sub.stream.clone(),
                                field: field.clone(),
                            });
                        }
                    }
                }
            }
        }
        // Cycle detection over the component graph (DFS three-colour).
        let mut adj: HashMap<&str, Vec<&str>> = HashMap::new();
        for b in &self.bolts {
            for sub in &b.subscriptions {
                adj.entry(sub.src.as_str()).or_default().push(&b.name);
            }
        }
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour: HashMap<&str, Colour> = names.iter().map(|&n| (n, Colour::White)).collect();
        fn dfs<'a>(
            node: &'a str,
            adj: &HashMap<&'a str, Vec<&'a str>>,
            colour: &mut HashMap<&'a str, Colour>,
        ) -> Result<(), String> {
            colour.insert(node, Colour::Grey);
            for &next in adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]) {
                match colour[next] {
                    Colour::Grey => return Err(next.to_string()),
                    Colour::White => dfs(next, adj, colour)?,
                    Colour::Black => {}
                }
            }
            colour.insert(node, Colour::Black);
            Ok(())
        }
        let all: Vec<&str> = names.iter().copied().collect();
        for n in all {
            if colour[n] == Colour::White {
                dfs(n, &adj, &mut colour).map_err(TopologyError::Cycle)?;
            }
        }
        Ok(Topology {
            config: self.config,
            spouts: self.spouts,
            bolts: self.bolts,
        })
    }
}

/// Fluent subscription declaration for one bolt.
pub struct BoltDeclarer<'a> {
    builder: &'a mut TopologyBuilder,
    idx: usize,
}

impl BoltDeclarer<'_> {
    fn push(&mut self, src: &str, stream: &str, grouping: Grouping) -> &mut Self {
        self.builder.bolts[self.idx]
            .subscriptions
            .push(Subscription {
                src: src.to_string(),
                stream: stream.to_string(),
                grouping,
            });
        self
    }

    /// Subscribe to `src`'s default stream with shuffle grouping.
    pub fn shuffle_grouping(&mut self, src: &str) -> &mut Self {
        self.push(src, crate::tuple::DEFAULT_STREAM, Grouping::Shuffle)
    }

    /// Subscribe to `src`'s default stream with fields grouping.
    pub fn fields_grouping<I, S>(&mut self, src: &str, fields: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.push(src, crate::tuple::DEFAULT_STREAM, Grouping::fields(fields))
    }

    /// Subscribe to a named stream with an explicit grouping.
    pub fn grouping_on(&mut self, src: &str, stream: &str, grouping: Grouping) -> &mut Self {
        self.push(src, stream, grouping)
    }

    /// Enables tick callbacks at the given interval for this bolt.
    pub fn tick_interval(&mut self, interval: Duration) -> &mut Self {
        self.builder.bolts[self.idx].tick = Some(interval);
        self
    }
}

/// A validated topology, ready to launch.
pub struct Topology {
    pub(crate) config: TopologyConfig,
    pub(crate) spouts: Vec<SpoutDef>,
    pub(crate) bolts: Vec<BoltDef>,
}

/// One row of [`Topology::components`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentInfo {
    /// Component name.
    pub name: String,
    /// Number of parallel tasks.
    pub parallelism: usize,
    /// Whether the component is a spout.
    pub is_spout: bool,
}

impl Topology {
    /// Components in definition order, spouts first. Spout tasks own
    /// acker slots in exactly this order (slot 0 is the first task of the
    /// first spout), so a placement layer can compute global slot
    /// assignments from this listing alone.
    pub fn components(&self) -> Vec<ComponentInfo> {
        self.spouts
            .iter()
            .map(|s| ComponentInfo {
                name: s.name.clone(),
                parallelism: s.parallelism,
                is_spout: true,
            })
            .chain(self.bolts.iter().map(|b| ComponentInfo {
                name: b.name.clone(),
                parallelism: b.parallelism,
                is_spout: false,
            }))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::{BoltCollector, SpoutCollector};
    use crate::tuple::Tuple;

    struct NullSpout;
    impl Spout for NullSpout {
        fn next_tuple(&mut self, _c: &mut SpoutCollector) -> bool {
            false
        }
        fn declare_outputs(&self) -> Vec<StreamDef> {
            vec![StreamDef::new("default", ["user", "item"])]
        }
    }

    struct NullBolt;
    impl Bolt for NullBolt {
        fn execute(&mut self, _t: &Tuple, _c: &mut BoltCollector) -> Result<(), String> {
            Ok(())
        }
        fn declare_outputs(&self) -> Vec<StreamDef> {
            vec![StreamDef::new("default", ["user", "item"])]
        }
    }

    #[test]
    fn valid_topology_builds() {
        let mut b = TopologyBuilder::new();
        b.set_spout("spout", || NullSpout, 2);
        b.set_bolt("bolt", || NullBolt, 3)
            .fields_grouping("spout", ["user"]);
        assert!(b.build().is_ok());
    }

    #[test]
    fn no_spouts_rejected() {
        let mut b = TopologyBuilder::new();
        b.set_bolt("bolt", || NullBolt, 1);
        assert_eq!(b.build().err(), Some(TopologyError::NoSpouts));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = TopologyBuilder::new();
        b.set_spout("x", || NullSpout, 1);
        b.set_bolt("x", || NullBolt, 1).shuffle_grouping("x");
        assert_eq!(
            b.build().err(),
            Some(TopologyError::DuplicateComponent("x".into()))
        );
    }

    #[test]
    fn unknown_source_rejected() {
        let mut b = TopologyBuilder::new();
        b.set_spout("spout", || NullSpout, 1);
        b.set_bolt("bolt", || NullBolt, 1).shuffle_grouping("ghost");
        assert!(matches!(
            b.build().err(),
            Some(TopologyError::UnknownSource { .. })
        ));
    }

    #[test]
    fn unknown_stream_rejected() {
        let mut b = TopologyBuilder::new();
        b.set_spout("spout", || NullSpout, 1);
        b.set_bolt("bolt", || NullBolt, 1)
            .grouping_on("spout", "sidestream", Grouping::Shuffle);
        assert!(matches!(
            b.build().err(),
            Some(TopologyError::UnknownStream { .. })
        ));
    }

    #[test]
    fn bad_grouping_field_rejected() {
        let mut b = TopologyBuilder::new();
        b.set_spout("spout", || NullSpout, 1);
        b.set_bolt("bolt", || NullBolt, 1)
            .fields_grouping("spout", ["nonexistent"]);
        assert!(matches!(
            b.build().err(),
            Some(TopologyError::BadGroupingField { .. })
        ));
    }

    #[test]
    fn cycle_rejected() {
        let mut b = TopologyBuilder::new();
        b.set_spout("spout", || NullSpout, 1);
        b.set_bolt("a", || NullBolt, 1)
            .shuffle_grouping("spout")
            .shuffle_grouping("b");
        b.set_bolt("b", || NullBolt, 1).shuffle_grouping("a");
        assert!(matches!(b.build().err(), Some(TopologyError::Cycle(_))));
    }

    #[test]
    fn zero_parallelism_rejected() {
        let mut b = TopologyBuilder::new();
        b.set_spout("spout", || NullSpout, 0);
        assert!(matches!(
            b.build().err(),
            Some(TopologyError::ZeroParallelism(_))
        ));
    }
}
