//! Data tuples flowing through a topology.
//!
//! A [`Tuple`] is a named list of [`Value`]s. The field names live in a
//! shared [`Schema`] so that cloning a tuple (which happens on every fan-out
//! edge) never copies the field-name strings.
//!
//! Tuples are carried in *batch arenas*: the emit path accumulates the
//! values of consecutive tuples bound for the same consumer task in one
//! `BatchShared` buffer, and every tuple of the batch is a `(start, len)`
//! window into it plus its own anchor set. One `Arc` bump materializes a
//! tuple out of a batch; the per-tuple schema/stream/source handles of the
//! old layout (four `Arc` clones and a fresh `Arc<[Value]>` per tuple) are
//! shared batch-wide instead.

use std::fmt;
use std::sync::Arc;

/// A dynamically typed value carried inside a [`Tuple`].
///
/// Strings and byte payloads are reference counted so that cloning a tuple
/// along a broadcast edge is cheap.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent value.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed 64-bit integer.
    I64(i64),
    /// Unsigned 64-bit integer (ids).
    U64(u64),
    /// 64-bit float (weights, scores).
    F64(f64),
    /// Shared immutable string.
    Str(Arc<str>),
    /// Shared immutable byte payload: a packed run of fixed-width records
    /// that travels as one tuple (its layout is the emitter's business).
    Bytes(Arc<[u8]>),
}

impl Value {
    /// Returns the value as `u64` if it is an integer of either sign that
    /// fits.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Returns the value as `i64` if it is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::U64(v) if *v <= i64::MAX as u64 => Some(*v as i64),
            _ => None,
        }
    }

    /// Returns the value as `f64` (integers are widened).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::I64(v) => Some(*v as f64),
            Value::U64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the value as a byte slice if it is a byte payload.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the value as a bool if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Feeds the value into `h` for grouping purposes. `F64` is hashed by
    /// bit pattern; `I64`/`U64` hash identically when they represent the
    /// same non-negative number so that mixed-width ids group together.
    pub fn hash_into(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        match self {
            Value::Null => 0u8.hash(h),
            Value::Bool(b) => {
                1u8.hash(h);
                b.hash(h);
            }
            Value::I64(v) => {
                if *v >= 0 {
                    2u8.hash(h);
                    (*v as u64).hash(h);
                } else {
                    3u8.hash(h);
                    v.hash(h);
                }
            }
            Value::U64(v) => {
                2u8.hash(h);
                v.hash(h);
            }
            Value::F64(v) => {
                4u8.hash(h);
                v.to_bits().hash(h);
            }
            Value::Str(s) => {
                5u8.hash(h);
                s.as_bytes().hash(h);
            }
            Value::Bytes(b) => {
                6u8.hash(h);
                b.hash(h);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Str(v)
    }
}

/// An ordered list of field names shared between all tuples of one output
/// stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Arc<[String]>,
}

impl Schema {
    /// Builds a schema from field names.
    pub fn new<I, S>(fields: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Schema {
            fields: fields.into_iter().map(Into::into).collect(),
        }
    }

    /// Position of `name`, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f == name)
    }

    /// Field names in declaration order.
    pub fn fields(&self) -> &[String] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// A cheap identity token for this schema's shared field table: two
    /// schemas cloned from the same declaration share it. Bolts use it to
    /// cache resolved field indices across tuples (see
    /// `tencentrec`'s `FieldIndex`) without re-scanning names.
    pub fn identity(&self) -> usize {
        Arc::as_ptr(&self.fields) as *const u8 as usize
    }
}

/// Identifies an output stream of a component. Components may emit on
/// multiple named streams; `"default"` is used when none is specified.
pub const DEFAULT_STREAM: &str = "default";

/// Anchor bookkeeping for the XOR ack tracker: the `(root id, edge id)`
/// pairs a tuple is tied to. The overwhelmingly common cases — untracked
/// (zero pairs) and a single tracked root — are stored inline; only
/// multi-root tuples (batch-path unions, fan-in joins) pay an allocation.
#[derive(Debug, Clone, Default)]
pub enum AnchorSet {
    /// Untracked tuple: no ack bookkeeping.
    #[default]
    None,
    /// Tracked under exactly one root (the spout fast path).
    One((u64, u64)),
    /// Tracked under several roots.
    Many(Arc<[(u64, u64)]>),
}

impl AnchorSet {
    /// The anchor pairs as a slice.
    pub fn pairs(&self) -> &[(u64, u64)] {
        match self {
            AnchorSet::None => &[],
            AnchorSet::One(p) => std::slice::from_ref(p),
            AnchorSet::Many(ps) => ps,
        }
    }

    /// Builds the smallest representation of `pairs`.
    pub fn from_pairs(pairs: Vec<(u64, u64)>) -> Self {
        match pairs.len() {
            0 => AnchorSet::None,
            1 => AnchorSet::One(pairs[0]),
            _ => AnchorSet::Many(pairs.into()),
        }
    }

    /// Number of anchor pairs.
    pub fn len(&self) -> usize {
        self.pairs().len()
    }

    /// True when the tuple is untracked.
    pub fn is_empty(&self) -> bool {
        matches!(self, AnchorSet::None)
    }
}

impl FromIterator<(u64, u64)> for AnchorSet {
    fn from_iter<I: IntoIterator<Item = (u64, u64)>>(iter: I) -> Self {
        let mut it = iter.into_iter();
        let Some(first) = it.next() else {
            return AnchorSet::None;
        };
        let Some(second) = it.next() else {
            return AnchorSet::One(first);
        };
        let mut pairs = vec![first, second];
        pairs.extend(it);
        AnchorSet::Many(pairs.into())
    }
}

/// The parts of a tuple batch shared by every tuple in it: one value arena
/// plus the schema/stream/source handles that used to be cloned per tuple.
#[derive(Debug)]
pub(crate) struct BatchShared {
    /// Concatenated field values of every tuple in the batch.
    pub(crate) values: Box<[Value]>,
    /// Schema of the stream the batch was emitted on.
    pub(crate) schema: Schema,
    /// Stream id.
    pub(crate) stream: Arc<str>,
    /// Emitting component.
    pub(crate) src_component: Arc<str>,
    /// Emitting task index.
    pub(crate) src_task: usize,
}

/// A unit of data flowing along a stream: a window into its batch's value
/// arena plus its own anchors. Cloning bumps one `Arc`.
#[derive(Clone)]
pub struct Tuple {
    pub(crate) shared: Arc<BatchShared>,
    pub(crate) start: u32,
    pub(crate) len: u32,
    pub(crate) anchors: AnchorSet,
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tuple")
            .field("values", &self.values())
            .field("stream", &self.stream())
            .field("src_component", &self.src_component())
            .field("src_task", &self.src_task())
            .field("anchors", &self.anchors)
            .finish()
    }
}

impl Tuple {
    /// Builds a standalone single-tuple batch. This is the slow
    /// constructor (one arena allocation per tuple) used by tests;
    /// runtime tuples go through the collector's arenas.
    #[cfg(test)]
    pub(crate) fn new(
        values: Vec<Value>,
        schema: Schema,
        stream: Arc<str>,
        src_component: Arc<str>,
        src_task: usize,
        anchors: AnchorSet,
    ) -> Self {
        debug_assert_eq!(
            values.len(),
            schema.len(),
            "tuple arity must match stream schema"
        );
        let len = values.len() as u32;
        Tuple {
            shared: Arc::new(BatchShared {
                values: values.into_boxed_slice(),
                schema,
                stream,
                src_component,
                src_task,
            }),
            start: 0,
            len,
            anchors,
        }
    }

    /// Builds a standalone, unanchored single-tuple batch — the slow
    /// constructor (one arena allocation per tuple) for unit-testing
    /// bolts outside the runtime. Runtime tuples go through the
    /// collector's shared arenas.
    pub fn standalone(
        stream: &str,
        schema: Schema,
        src_component: &str,
        src_task: usize,
        values: Vec<Value>,
    ) -> Self {
        debug_assert_eq!(
            values.len(),
            schema.len(),
            "tuple arity must match stream schema"
        );
        let len = values.len() as u32;
        Tuple {
            shared: Arc::new(BatchShared {
                values: values.into_boxed_slice(),
                schema,
                stream: stream.into(),
                src_component: src_component.into(),
                src_task,
            }),
            start: 0,
            len,
            anchors: AnchorSet::None,
        }
    }

    /// Materializes the window `[start, start + len)` of a shared batch.
    #[inline]
    pub(crate) fn from_batch(
        shared: &Arc<BatchShared>,
        start: u32,
        len: u32,
        anchors: AnchorSet,
    ) -> Self {
        debug_assert!((start + len) as usize <= shared.values.len());
        Tuple {
            shared: Arc::clone(shared),
            start,
            len,
            anchors,
        }
    }

    /// Value at position `idx`. Panics when out of range.
    #[inline]
    pub fn get(&self, idx: usize) -> &Value {
        &self.values()[idx]
    }

    /// Value of the field called `name`, if the schema declares it.
    pub fn get_by_name(&self, name: &str) -> Option<&Value> {
        self.shared.schema.index_of(name).map(|i| &self.values()[i])
    }

    /// Convenience: required `u64` field.
    pub fn u64(&self, name: &str) -> u64 {
        self.get_by_name(name)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("tuple field `{name}` missing or not a u64: {self:?}"))
    }

    /// Convenience: required `f64` field.
    pub fn f64(&self, name: &str) -> f64 {
        self.get_by_name(name)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("tuple field `{name}` missing or not an f64: {self:?}"))
    }

    /// Convenience: required string field.
    pub fn str(&self, name: &str) -> &str {
        self.get_by_name(name)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("tuple field `{name}` missing or not a string: {self:?}"))
    }

    /// Required `u64` field by position — the no-scan accessor for bolts
    /// that cache resolved field indices (see [`Schema::identity`]).
    #[inline]
    pub fn u64_at(&self, idx: usize) -> u64 {
        self.values()[idx]
            .as_u64()
            .unwrap_or_else(|| panic!("tuple field #{idx} not a u64: {self:?}"))
    }

    /// Required `f64` field by position (integers widen).
    #[inline]
    pub fn f64_at(&self, idx: usize) -> f64 {
        self.values()[idx]
            .as_f64()
            .unwrap_or_else(|| panic!("tuple field #{idx} not an f64: {self:?}"))
    }

    /// All values in order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.shared.values[self.start as usize..(self.start + self.len) as usize]
    }

    /// The stream this tuple was emitted on.
    pub fn stream(&self) -> &str {
        &self.shared.stream
    }

    /// The component that emitted this tuple.
    pub fn src_component(&self) -> &str {
        &self.shared.src_component
    }

    /// The task index (within the source component) that emitted this tuple.
    pub fn src_task(&self) -> usize {
        self.shared.src_task
    }

    /// The tuple's schema.
    pub fn schema(&self) -> &Schema {
        &self.shared.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::Hasher;

    fn hash_value(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash_into(&mut h);
        h.finish()
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3u64).as_u64(), Some(3));
        assert_eq!(Value::from(-3i64).as_u64(), None);
        assert_eq!(Value::from(3i64).as_u64(), Some(3));
        assert_eq!(Value::from(2.5f64).as_f64(), Some(2.5));
        assert_eq!(Value::from(7u64).as_f64(), Some(7.0));
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::Null.as_u64(), None);
        let bytes = Value::Bytes(Arc::from(&[1u8, 2][..]));
        assert_eq!(bytes.as_bytes(), Some(&[1u8, 2][..]));
        assert_eq!((bytes.as_u64(), Value::U64(1).as_bytes()), (None, None));
    }

    #[test]
    fn mixed_width_ids_hash_identically() {
        assert_eq!(hash_value(&Value::I64(42)), hash_value(&Value::U64(42)));
        assert_ne!(hash_value(&Value::I64(-42)), hash_value(&Value::U64(42)));
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::new(["user", "item", "action"]);
        assert_eq!(s.index_of("item"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn schema_identity_shared_by_clones() {
        let s = Schema::new(["a", "b"]);
        let t = s.clone();
        assert_eq!(s.identity(), t.identity());
        let other = Schema::new(["a", "b"]);
        assert_ne!(
            s.identity(),
            other.identity(),
            "independent declarations get distinct identities"
        );
    }

    #[test]
    fn anchor_set_representations() {
        assert_eq!(AnchorSet::None.pairs(), &[]);
        assert!(AnchorSet::None.is_empty());
        let one = AnchorSet::One((1, 2));
        assert_eq!(one.pairs(), &[(1, 2)]);
        assert_eq!(one.len(), 1);
        let many = AnchorSet::from_pairs(vec![(1, 2), (3, 4)]);
        assert_eq!(many.pairs(), &[(1, 2), (3, 4)]);
        assert!(matches!(
            AnchorSet::from_pairs(vec![(9, 9)]),
            AnchorSet::One((9, 9))
        ));
        assert!(matches!(AnchorSet::from_pairs(Vec::new()), AnchorSet::None));
        let collected: AnchorSet = [(5u64, 6u64)].into_iter().collect();
        assert!(matches!(collected, AnchorSet::One((5, 6))));
    }

    #[test]
    fn tuple_field_access() {
        let schema = Schema::new(["user", "weight", "kind"]);
        let t = Tuple::new(
            vec![Value::U64(9), Value::F64(1.5), Value::from("click")],
            schema,
            Arc::from(DEFAULT_STREAM),
            Arc::from("spout"),
            0,
            AnchorSet::None,
        );
        assert_eq!(t.u64("user"), 9);
        assert_eq!(t.f64("weight"), 1.5);
        assert_eq!(t.str("kind"), "click");
        assert_eq!(t.u64_at(0), 9);
        assert_eq!(t.f64_at(1), 1.5);
        assert_eq!(t.stream(), DEFAULT_STREAM);
        assert_eq!(t.src_component(), "spout");
        assert_eq!(t.get(0), &Value::U64(9));
        assert!(t.get_by_name("nope").is_none());
    }

    #[test]
    fn batch_windows_share_one_arena() {
        let shared = Arc::new(BatchShared {
            values: vec![Value::U64(1), Value::U64(10), Value::U64(2), Value::U64(20)]
                .into_boxed_slice(),
            schema: Schema::new(["k", "v"]),
            stream: Arc::from(DEFAULT_STREAM),
            src_component: Arc::from("spout"),
            src_task: 3,
        });
        let a = Tuple::from_batch(&shared, 0, 2, AnchorSet::One((7, 8)));
        let b = Tuple::from_batch(&shared, 2, 2, AnchorSet::None);
        assert_eq!(a.u64("k"), 1);
        assert_eq!(b.u64("v"), 20);
        assert_eq!(a.src_task(), 3);
        assert_eq!(a.anchors.pairs(), &[(7, 8)]);
        assert_eq!(Arc::strong_count(&shared), 3);
    }

    #[test]
    #[should_panic(expected = "missing or not a u64")]
    fn tuple_typed_access_panics_on_wrong_type() {
        let t = Tuple::new(
            vec![Value::from("x")],
            Schema::new(["user"]),
            Arc::from(DEFAULT_STREAM),
            Arc::from("spout"),
            0,
            AnchorSet::None,
        );
        t.u64("user");
    }
}
