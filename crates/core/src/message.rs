//! The write-message format (Fig. 6(b)).
//!
//! A write message carries every operation of one unit of work (a single
//! write, or all writes of one transaction — "all writes within a single
//! transaction are combined into a single message"), the dependency map
//! produced by the version-store bump, the publisher's generation number,
//! and a publication timestamp. It is encoded as canonical JSON through
//! [`synapse_model::wire`], the same format the figure shows.

use std::borrow::{Borrow, Cow};
use std::collections::BTreeMap;
use std::ops::Range;
use synapse_model::wire::{self, ReadError, Reader};
use synapse_model::{Id, ModelError, Record, Value};
use synapse_versionstore::{DepKey, Stamp};

/// One replicated operation within a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// `create`, `update`, or `destroy`.
    pub operation: String,
    /// Complete inheritance chain, most-derived first (§4.1: "Synapse also
    /// includes each object's complete inheritance tree, allowing
    /// subscribers to consume polymorphic models").
    pub types: Vec<String>,
    /// Object primary key.
    pub id: Id,
    /// Published attributes. For `destroy`, the pre-image's published
    /// attributes: the paper's text ships only deleted ids (§4.1), but its
    /// own Example 2 (Fig. 5) has an observer's `after_destroy` read
    /// `user1`/`user2` off the destroyed object, which requires them —
    /// DESIGN.md records the deviation.
    pub attributes: BTreeMap<String, Value>,
}

impl Operation {
    /// The most-derived model name.
    pub fn model(&self) -> &str {
        self.types.first().map(String::as_str).unwrap_or("")
    }

    /// Builds the operation from a marshalled record, which it takes over.
    pub fn from_record(operation: &str, record: Record) -> Self {
        Operation {
            operation: operation.to_owned(),
            types: record.types,
            id: record.id,
            attributes: record.attrs,
        }
    }
}

/// A complete write message.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WriteMessage {
    /// Publishing application.
    pub app: String,
    /// Operations in execution order.
    pub operations: Vec<Operation>,
    /// Dependency map: effective dependency key → required version
    /// (Fig. 6(b)'s `dependencies` object).
    pub dependencies: BTreeMap<DepKey, u64>,
    /// Publication wall-clock time, microseconds since the Unix epoch.
    pub published_at: u64,
    /// Publisher generation (§4.4 recovery).
    pub generation: u64,
    /// The last-writer-wins [`Stamp`] of each written object, under its
    /// mesh name's key — only populated for bidirectional (multi-writer)
    /// models, whose writers' scalar dependency values never meet.
    /// Empty for single-writer messages, and *omitted from the wire* when
    /// empty, so single-writer encodings stay byte-identical to the scalar
    /// era (old payloads in WAL segments decode as an empty map).
    pub stamps: BTreeMap<DepKey, Stamp>,
}

impl WriteMessage {
    /// Encodes to canonical JSON.
    pub fn encode(&self) -> String {
        let mut out = String::with_capacity(128);
        self.encode_into(&mut out);
        out
    }

    /// Encodes to canonical JSON into an existing buffer, through the same
    /// two encoders a live publish writes with (`encode_message`,
    /// `encode_operation`).
    pub fn encode_into(&self, out: &mut String) {
        encode_message(
            out,
            &self.app,
            &mut self.dep_list(),
            self.generation,
            |out| {
                for (i, op) in self.operations.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_operation(out, &op.operation, &op.types, op.id, &op.attributes);
                }
            },
            self.published_at,
            &self.stamps,
        );
    }

    /// Decodes from JSON: the message's envelope, as a subscriber reads it
    /// in place, then each operation's attributes into its map — the one
    /// read of a message, whose verdict on every text is that of parsing
    /// it into a [`Value`] tree and reading the fields off with
    /// `get(key).as_*()`: nothing for a key that is missing or of another
    /// type, the last occurrence of a repeated key.
    pub fn decode(text: &str) -> Result<WriteMessage, ModelError> {
        let envelope = Envelope::read(text)?;
        let mut operations = Vec::with_capacity(envelope.ops.len());
        for op in envelope.ops(text) {
            let mut attributes = BTreeMap::new();
            op.attributes(|r, key| {
                attributes.insert(key.into_owned(), r.value()?);
                Ok(())
            })?;
            let mut types = Vec::new();
            op.each_type(|t| types.push(t.into_owned()));
            operations.push(Operation {
                operation: op.kind().to_owned(),
                types,
                id: op.id(),
                attributes,
            });
        }
        Ok(WriteMessage {
            app: envelope.app(text).to_owned(),
            operations,
            dependencies: envelope.deps.into_iter().collect(),
            published_at: envelope.published_at,
            generation: envelope.generation,
            stamps: envelope.stamps.into_iter().collect(),
        })
    }

    /// Dependency list in `(key, required_version)` form for the version
    /// store wait.
    pub fn dep_list(&self) -> Vec<(DepKey, u64)> {
        self.dependencies.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Dependency keys only (for the subscriber's post-processing apply).
    pub fn dep_keys(&self) -> Vec<DepKey> {
        self.dependencies.keys().copied().collect()
    }
}

fn malformed(what: &str) -> ModelError {
    ModelError::Malformed(what.to_owned())
}

/// A message read in place: every field but the operations' attributes,
/// held as offsets into the text it was read from (which the caller keeps
/// and hands back to each accessor), and each operation's attributes as
/// the span of their object, parsed only by whoever uses them. Reading it
/// checks the whole text, attribute spans included, so a message that
/// reads is one [`WriteMessage::decode`] accepts.
pub(crate) struct Envelope {
    app: Text,
    pub(crate) generation: u64,
    pub(crate) published_at: u64,
    /// The dependency map, by key.
    pub(crate) deps: Vec<(DepKey, u64)>,
    /// The stamps, by key.
    pub(crate) stamps: Vec<(DepKey, Stamp)>,
    ops: Vec<OpSpan>,
}

/// One operation of an [`Envelope`].
struct OpSpan {
    kind: Text,
    /// The most-derived type.
    model: Text,
    /// Where its `types` array lies.
    types: Range<usize>,
    id: Id,
    /// Where its attributes object lies; `None` when it has none, or one
    /// that is no object (which reads as empty).
    attributes: Option<Range<usize>>,
}

/// A string of a message: where it lies in the text, or, when it holds an
/// escape, its unescaped copy.
enum Text {
    At(Range<usize>),
    Owned(Box<str>),
}

impl Text {
    /// Reads the next value as a string; `None` if it is no string.
    fn read(r: &mut Reader<'_>) -> Result<Option<Text>, ReadError> {
        let at = r.offset() + 1;
        Ok(r.string()?.map(|s| Text::of(at, s)))
    }

    /// The string `s` read at offset `at` of the text.
    fn of(at: usize, s: Cow<'_, str>) -> Text {
        match s {
            Cow::Borrowed(s) => Text::At(at..at + s.len()),
            Cow::Owned(s) => Text::Owned(s.into_boxed_str()),
        }
    }

    fn get<'t>(&'t self, text: &'t str) -> &'t str {
        match self {
            Text::At(at) => &text[at.clone()],
            Text::Owned(s) => s,
        }
    }
}

/// One operation of an [`Envelope`], beside the text it was read from.
#[derive(Clone, Copy)]
pub(crate) struct OpRef<'t> {
    text: &'t str,
    op: &'t OpSpan,
}

impl<'t> OpRef<'t> {
    /// `create`, `update` or `destroy`.
    pub(crate) fn kind(&self) -> &'t str {
        self.op.kind.get(self.text)
    }

    /// The most-derived model name.
    pub(crate) fn model(&self) -> &'t str {
        self.op.model.get(self.text)
    }

    /// Calls `each` with every name of the inheritance chain, most-derived
    /// first, read again from the text.
    pub(crate) fn each_type(&self, mut each: impl FnMut(Cow<'t, str>)) {
        let mut r = Reader::new(&self.text[self.op.types.clone()]);
        // The envelope read checked this array, so the read cannot fail.
        let _ = r.array(|r| {
            each_string(r, &mut each)?;
            Ok(())
        });
    }

    /// Whether `model` is in the inheritance chain.
    pub(crate) fn has_type(&self, model: &str) -> bool {
        let mut found = self.model() == model;
        if !found {
            self.each_type(|t| found |= t == model);
        }
        found
    }

    pub(crate) fn id(&self) -> Id {
        self.op.id
    }

    /// Parses the attributes, calling `entry` with each key at its value
    /// (in text order, repeats included) to consume it.
    pub(crate) fn attributes(
        &self,
        entry: impl FnMut(&mut Reader<'t>, Cow<'t, str>) -> Result<(), ReadError>,
    ) -> Result<(), ModelError> {
        let Some(span) = &self.op.attributes else {
            return Ok(());
        };
        let mut r = Reader::new(&self.text[span.clone()]);
        r.object(entry)?;
        Ok(r.finish()?)
    }
}

impl Envelope {
    /// Reads `text`'s envelope, checking all of it.
    pub(crate) fn read(text: &str) -> Result<Envelope, ModelError> {
        let mut r = Reader::new(text);
        let (mut app, mut ops) = (None, Vec::new());
        // `None` until an `operations` array is read; then its verdict.
        let mut operations: Option<Result<(), &'static str>> = None;
        let (mut deps, mut stamps) = (Keyed::default(), Keyed::default());
        let (mut published_at, mut generation) = (None, None);
        r.object(|r, key| {
            match &*key {
                "app" => app = Text::read(r)?,
                "operations" => {
                    ops.clear();
                    let mut verdict = Ok(());
                    let is_array = r.array(|r| {
                        match read_operation(r)?.check() {
                            Ok(op) => ops.push(op),
                            Err(what) => verdict = verdict.and(Err(what)),
                        }
                        Ok(())
                    })?;
                    operations = is_array.then_some(verdict);
                }
                "dependencies" => deps.read(r, |r| Ok(r.int()?.map(|v| v as u64)))?,
                "stamps" => stamps.read(r, read_stamp)?,
                "published_at" => published_at = r.int()?,
                "generation" => generation = r.int()?,
                _ => r.skip()?,
            }
            Ok(())
        })?;
        r.finish()?;

        let app = app.ok_or_else(|| malformed("missing app"))?;
        operations
            .unwrap_or(Err("missing operations"))
            .map_err(malformed)?;
        Ok(Envelope {
            app,
            generation: generation.unwrap_or(1) as u64,
            published_at: published_at.unwrap_or(0) as u64,
            deps: deps.finish("bad dependency key", "bad dependency version")?,
            stamps: stamps.finish("bad stamp key", "bad stamp")?,
            ops,
        })
    }

    pub(crate) fn app<'t>(&'t self, text: &'t str) -> &'t str {
        self.app.get(text)
    }

    /// The operations in execution order, each beside `text`.
    pub(crate) fn ops<'t>(&'t self, text: &'t str) -> impl Iterator<Item = OpRef<'t>> {
        self.ops.iter().map(move |op| OpRef { text, op })
    }

    /// The version the dependency map requires of `key`.
    pub(crate) fn dependency(&self, key: DepKey) -> Option<u64> {
        let at = self.deps.binary_search_by_key(&key, |(k, _)| *k).ok()?;
        Some(self.deps[at].1)
    }

    /// The stamp carried under `key`.
    pub(crate) fn stamp(&self, key: DepKey) -> Option<Stamp> {
        let at = self.stamps.binary_search_by_key(&key, |(k, _)| *k).ok()?;
        Some(self.stamps[at].1)
    }
}

/// One element of `operations` as read, each field as `get(key).as_*()`
/// answers it on a tree.
#[derive(Default)]
struct OpFields {
    kind: Option<Text>,
    /// The array's span and its first string, if any.
    types: Option<(Range<usize>, Option<Text>)>,
    id: Option<i64>,
    attributes: Option<Range<usize>>,
}

impl OpFields {
    fn check(self) -> Result<OpSpan, &'static str> {
        match (self.kind, self.types, self.id) {
            (None, ..) => Err("missing operation kind"),
            (_, None, _) => Err("missing types"),
            (_, Some((_, None)), _) => Err("empty type chain"),
            (.., None) => Err("missing id"),
            (Some(kind), Some((types, Some(model))), Some(id)) => Ok(OpSpan {
                kind,
                model,
                types,
                id: Id(id as u64),
                attributes: self.attributes,
            }),
        }
    }
}

/// Reads one element of `operations`.
fn read_operation(r: &mut Reader<'_>) -> Result<OpFields, ReadError> {
    let mut op = OpFields::default();
    r.object(|r, key| {
        match &*key {
            "operation" => op.kind = Text::read(r)?,
            "types" => {
                // The chain's strings, the others dropped as a tree's
                // reader would; only the first is kept.
                let (start, mut model) = (r.offset(), None);
                let is_array = r.array(|r| {
                    let at = r.offset() + 1;
                    each_string(r, |t| {
                        if model.is_none() {
                            model = Some(Text::of(at, t));
                        }
                    })
                })?;
                op.types = is_array.then(|| (start..r.offset(), model));
            }
            "id" => op.id = r.int()?,
            "attributes" => {
                let start = r.offset();
                let is_object = r.object(|r, _| r.skip())?;
                op.attributes = is_object.then_some(start..r.offset());
            }
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(op)
}

/// Reads the next value, handing it to `each` if it is a string.
fn each_string<'a>(r: &mut Reader<'a>, each: impl FnOnce(Cow<'a, str>)) -> Result<(), ReadError> {
    r.string().map(|s| s.map(each).unwrap_or_default())
}

/// Reads a stamp, `[clock, writer]`: `None` unless the value is an array
/// of exactly two integers.
fn read_stamp(r: &mut Reader<'_>) -> Result<Option<Stamp>, ReadError> {
    let (mut parts, mut n) = ([None; 2], 0);
    let is_array = r.array(|r| {
        let part = r.int()?;
        if let Some(slot) = parts.get_mut(n) {
            *slot = part;
        }
        n += 1;
        Ok(())
    })?;
    Ok(match parts {
        [Some(clock), Some(writer)] if is_array && n == 2 => Some((clock as u64, writer as u64)),
        _ => None,
    })
}

/// A `dependencies` or `stamps` object as read: its entries in text order,
/// each key parsed from its string. A tree holds such an object by
/// *string* key — the last of a repeated key, in string order — so `"07"`
/// and `"7"` are two entries until their keys are parsed, and then the
/// later one in string order stands.
#[derive(Default)]
struct Keyed<V> {
    /// Whether the last such field was an object.
    present: bool,
    /// Whether one of its keys was no number.
    bad_key: bool,
    entries: Vec<KeyEntry<V>>,
}

struct KeyEntry<V> {
    key: u64,
    /// Where its string sorts among the strings of the same number.
    spelling: (bool, usize),
    /// Its place in the text.
    at: usize,
    value: Option<V>,
}

impl<V: Copy> Keyed<V> {
    /// Reads the next value, which replaces what an earlier field of the
    /// same name read.
    fn read<'a>(
        &mut self,
        r: &mut Reader<'a>,
        mut value: impl FnMut(&mut Reader<'a>) -> Result<Option<V>, ReadError>,
    ) -> Result<(), ReadError> {
        self.entries.clear();
        self.bad_key = false;
        let (entries, bad_key) = (&mut self.entries, &mut self.bad_key);
        self.present = r.object(|r, key| {
            let value = value(r)?;
            match key.parse::<u64>() {
                Ok(k) => entries.push(KeyEntry {
                    key: k,
                    spelling: spelling(&key, k),
                    at: entries.len(),
                    value,
                }),
                Err(_) => *bad_key = true,
            }
            Ok(())
        })?;
        Ok(())
    }

    /// The map a tree's entries parse into, by key: each string's last
    /// value must be there, and of the strings of one number the greatest
    /// stands. Empty when the field is missing or no object.
    fn finish(self, bad_key: &str, bad_value: &str) -> Result<Vec<(DepKey, V)>, ModelError> {
        if !self.present {
            return Ok(Vec::new());
        }
        if self.bad_key {
            return Err(malformed(bad_key));
        }
        let mut entries = self.entries;
        entries.sort_unstable_by_key(|e| (e.key, e.spelling, e.at));
        // Drop every value but each number's winner, once checked.
        for i in 0..entries.len() {
            let next = entries.get(i + 1).map(|n| (n.key, n.spelling));
            let e = &mut entries[i];
            if next == Some((e.key, e.spelling)) {
                e.value = None; // a later occurrence of its string stands
            } else if e.value.is_none() {
                return Err(malformed(bad_value));
            } else if next.is_some_and(|(key, _)| key == e.key) {
                e.value = None; // a later string of its number stands
            }
        }
        // Collected in place: the map takes over the entries' buffer.
        Ok(entries
            .into_iter()
            .filter_map(|e| Some((e.key, e.value?)))
            .collect())
    }
}

/// Orders the strings that parse to `n` as strings sort: `u64`'s parser
/// takes an optional `+` and leading zeros, and `'+' < '0'`; more zeros
/// sort first before a nonzero digit, and later for zero itself (`"0" <
/// "00"`).
fn spelling(s: &str, n: u64) -> (bool, usize) {
    let digits = s.trim_start_matches('+');
    let zeros = digits.len() - digits.trim_start_matches('0').len();
    (
        digits.len() == s.len(),
        if n == 0 { zeros } else { usize::MAX - zeros },
    )
}

/// Writes one message as canonical JSON (Fig. 6(b)) — the one envelope
/// encoder, for [`WriteMessage::encode_into`], a live publish, a
/// transaction and a bootstrap copy. `dependencies` holds each key once, in
/// any order (sorted here); `operations` writes the array's elements,
/// comma-separated, each by [`encode_operation`]. The bytes are pinned to
/// the historical `vmap!` tree's, whose `BTreeMap<String, _>` keys sort by
/// decimal text (`"10" < "9"`), not numerically.
pub(crate) fn encode_message(
    out: &mut String,
    app: &str,
    dependencies: &mut [(DepKey, u64)],
    generation: u64,
    operations: impl FnOnce(&mut String),
    published_at: u64,
    stamps: &BTreeMap<DepKey, Stamp>,
) {
    out.push_str("{\"app\":");
    wire::encode_str(app, out);
    out.push_str(",\"dependencies\":{");
    dependencies.sort_unstable_by_key(|(key, _)| decimal_order(*key));
    for (i, (key, version)) in dependencies.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        wire::encode_u64(*key, out);
        out.push_str("\":");
        wire::encode_i64(*version as i64, out);
    }
    out.push_str("},\"generation\":");
    wire::encode_i64(generation as i64, out);
    out.push_str(",\"operations\":[");
    operations(out);
    out.push_str("],\"published_at\":");
    wire::encode_i64(published_at as i64, out);
    if !stamps.is_empty() {
        // "stamps" sorts after "published_at", so appending it here keeps
        // the canonical key order — and omitting it when empty keeps
        // single-writer messages byte-identical to the scalar format.
        out.push_str(",\"stamps\":{");
        let mut keys: Vec<DepKey> = stamps.keys().copied().collect();
        keys.sort_unstable_by_key(|key| decimal_order(*key));
        for (i, key) in keys.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            wire::encode_u64(*key, out);
            out.push_str("\":[");
            let (clock, writer) = stamps[key];
            wire::encode_i64(clock as i64, out);
            out.push(',');
            wire::encode_i64(writer as i64, out);
            out.push(']');
        }
        out.push('}');
    }
    out.push('}');
}

/// Writes one element of a message's `operations` array — the one
/// operation encoder. `attributes` yields each attribute once, in name
/// order; a publish passes them straight off the written record.
pub(crate) fn encode_operation<K: AsRef<str>, V: Borrow<Value>>(
    out: &mut String,
    operation: &str,
    types: &[String],
    id: Id,
    attributes: impl IntoIterator<Item = (K, V)>,
) {
    out.push_str("{\"attributes\":{");
    for (i, (name, value)) in attributes.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        wire::encode_str(name.as_ref(), out);
        out.push(':');
        wire::encode_into(value.borrow(), out);
    }
    out.push_str("},\"id\":");
    wire::encode_i64(id.raw() as i64, out);
    out.push_str(",\"operation\":");
    wire::encode_str(operation, out);
    out.push_str(",\"types\":[");
    for (i, t) in types.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        wire::encode_str(t, out);
    }
    out.push_str("]}");
}

/// A key under which `v` orders as its decimal text does (`10 < 100 < 9`):
/// the digits left-aligned in twenty places, then the digit count, which
/// puts a prefix first (`1 < 10`). Nothing is rendered.
fn decimal_order(v: u64) -> (u128, u32) {
    let digits = v.checked_ilog10().unwrap_or(0) + 1;
    (u128::from(v) * 10u128.pow(20 - digits), digits)
}

/// Current wall-clock in microseconds since the Unix epoch.
pub(crate) fn now_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use synapse_model::{varray, vmap};

    fn fig6b_message() -> WriteMessage {
        // The Fig. 6(b) sample: pub3 updates User#100's interests.
        let mut attributes = BTreeMap::new();
        attributes.insert("interests".to_owned(), varray!["cats", "dogs"]);
        let mut dependencies = BTreeMap::new();
        dependencies.insert(77_u64, 42_u64); // hash("pub3/users/id/100") → 42
        WriteMessage {
            app: "pub3".into(),
            operations: vec![Operation {
                operation: "update".into(),
                types: vec!["User".into()],
                id: Id(100),
                attributes,
            }],
            dependencies,
            published_at: 1_413_014_340_000_000,
            generation: 1,
            stamps: BTreeMap::new(),
        }
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let msg = fig6b_message();
        let decoded = WriteMessage::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn encoding_contains_fig6b_fields() {
        let text = fig6b_message().encode();
        for needle in [
            r#""app":"pub3""#,
            r#""operation":"update""#,
            r#""types":["User"]"#,
            r#""id":100"#,
            r#""interests":["cats","dogs"]"#,
            r#""dependencies":{"77":42}"#,
            r#""generation":1"#,
        ] {
            assert!(text.contains(needle), "{text} should contain {needle}");
        }
    }

    #[test]
    fn destroy_operations_carry_the_pre_image() {
        // Required by Fig. 5's observer `after_destroy` callbacks, which
        // read the destroyed object's attributes.
        let mut r = Record::new("User", Id(5));
        r.set("name", "x");
        let op = Operation::from_record("destroy", r);
        assert_eq!(op.attributes.get("name"), Some(&Value::from("x")));
        assert_eq!(op.id, Id(5));
    }

    #[test]
    fn polymorphic_type_chains_roundtrip() {
        let mut msg = fig6b_message();
        msg.operations[0].types = vec!["AdminUser".into(), "User".into()];
        let decoded = WriteMessage::decode(&msg.encode()).unwrap();
        assert_eq!(decoded.operations[0].model(), "AdminUser");
        assert_eq!(decoded.operations[0].types.len(), 2);
    }

    #[test]
    fn decode_rejects_malformed_messages() {
        for bad in [
            "{}",
            r#"{"app":"a"}"#,
            r#"{"app":"a","operations":[{"operation":"create"}]}"#,
            r#"{"app":"a","operations":[{"operation":"create","types":[],"id":1}]}"#,
            "not json",
        ] {
            assert!(WriteMessage::decode(bad).is_err(), "should reject {bad}");
        }
    }

    /// The historical decoder: parse the whole text into a `Value` tree,
    /// then clone the message out of it. The direct reader must accept and
    /// reject exactly what this does, with the same result.
    fn reference_decode(text: &str) -> Result<WriteMessage, ModelError> {
        let v = wire::decode(text)?;
        let app = v
            .get("app")
            .as_str()
            .ok_or_else(|| ModelError::Malformed("missing app".into()))?
            .to_owned();
        let mut operations = Vec::new();
        for op in v
            .get("operations")
            .as_array()
            .ok_or_else(|| ModelError::Malformed("missing operations".into()))?
        {
            let operation = op
                .get("operation")
                .as_str()
                .ok_or_else(|| ModelError::Malformed("missing operation kind".into()))?
                .to_owned();
            let types: Vec<String> = op
                .get("types")
                .as_array()
                .ok_or_else(|| ModelError::Malformed("missing types".into()))?
                .iter()
                .filter_map(|t| t.as_str().map(str::to_owned))
                .collect();
            if types.is_empty() {
                return Err(ModelError::Malformed("empty type chain".into()));
            }
            let id = op
                .get("id")
                .as_int()
                .ok_or_else(|| ModelError::Malformed("missing id".into()))?;
            let attributes = op.get("attributes").as_map().cloned().unwrap_or_default();
            operations.push(Operation {
                operation,
                types,
                id: Id(id as u64),
                attributes,
            });
        }
        let mut dependencies = BTreeMap::new();
        if let Some(deps) = v.get("dependencies").as_map() {
            for (k, val) in deps {
                let key: DepKey = k
                    .parse()
                    .map_err(|_| ModelError::Malformed(format!("bad dependency key {k}")))?;
                let version = val
                    .as_int()
                    .ok_or_else(|| ModelError::Malformed("bad dependency version".into()))?;
                dependencies.insert(key, version as u64);
            }
        }
        let mut stamps = BTreeMap::new();
        if let Some(map) = v.get("stamps").as_map() {
            for (k, val) in map {
                let key: DepKey = k
                    .parse()
                    .map_err(|_| ModelError::Malformed(format!("bad stamp key {k}")))?;
                let stamp = match val.as_array() {
                    Some([clock, writer]) => clock.as_int().zip(writer.as_int()),
                    _ => None,
                };
                let (clock, writer) =
                    stamp.ok_or_else(|| ModelError::Malformed("bad stamp".into()))?;
                stamps.insert(key, (clock as u64, writer as u64));
            }
        }
        let published_at = v.get("published_at").as_int().unwrap_or(0) as u64;
        let generation = v.get("generation").as_int().unwrap_or(1) as u64;
        Ok(WriteMessage {
            app,
            operations,
            dependencies,
            published_at,
            generation,
            stamps,
        })
    }

    /// The historical encoder: build the full `Value` tree (dependency keys
    /// as decimal strings in `BTreeMap<String, _>`s) and
    /// encode that. The direct writer must reproduce its bytes exactly.
    fn reference_encode(msg: &WriteMessage) -> String {
        let ops: Vec<Value> = msg
            .operations
            .iter()
            .map(|op| {
                vmap! {
                    "operation" => op.operation.clone(),
                    "types" => Value::Array(
                        op.types.iter().map(|t| Value::from(t.clone())).collect()
                    ),
                    "id" => op.id.raw(),
                    "attributes" => Value::Map(op.attributes.clone()),
                }
            })
            .collect();
        let deps: BTreeMap<String, Value> = msg
            .dependencies
            .iter()
            .map(|(k, v)| (k.to_string(), Value::from(*v)))
            .collect();
        let mut tree = vmap! {
            "app" => msg.app.clone(),
            "operations" => Value::Array(ops),
            "dependencies" => Value::Map(deps),
            "published_at" => msg.published_at,
            "generation" => msg.generation,
        };
        if !msg.stamps.is_empty() {
            let stamps = msg.stamps.iter().map(|(k, &(clock, writer))| {
                let pair = vec![Value::from(clock), Value::from(writer)];
                (k.to_string(), Value::Array(pair))
            });
            if let Value::Map(fields) = &mut tree {
                fields.insert("stamps".to_owned(), Value::Map(stamps.collect()));
            }
        }
        wire::encode(&tree)
    }

    #[test]
    fn direct_encoder_matches_value_tree_reference() {
        let mut msg = fig6b_message();
        // Keys 9/10/100 pin the lexicographic-decimal ordering ("10" and
        // "100" sort before "9"); the huge key pins the u64→i64 value cast.
        msg.dependencies.insert(9, 1);
        msg.dependencies.insert(10, 2);
        msg.dependencies.insert(100, 3);
        msg.dependencies.insert(u64::MAX, u64::MAX);
        msg.operations.push(Operation {
            operation: "destroy".into(),
            types: vec!["AdminUser".into(), "User".into()],
            id: Id(u64::MAX),
            attributes: BTreeMap::new(),
        });
        assert_eq!(msg.encode(), reference_encode(&msg));
        assert!(msg
            .encode()
            .contains(r#""10":2,"100":3,"18446744073709551615":-1,"77":42,"9":1"#));
    }

    #[test]
    fn empty_containers_encode_like_the_reference() {
        let msg = WriteMessage {
            app: String::new(),
            operations: Vec::new(),
            dependencies: BTreeMap::new(),
            published_at: 0,
            generation: 0,
            stamps: BTreeMap::new(),
        };
        assert_eq!(msg.encode(), reference_encode(&msg));
    }

    #[test]
    fn dep_list_matches_map() {
        let msg = fig6b_message();
        assert_eq!(msg.dep_list(), vec![(77, 42)]);
        assert_eq!(msg.dep_keys(), vec![77]);
    }

    /// Multi-writer stamps ride an optional trailing field: present only
    /// when non-empty, so a single-writer message's bytes are exactly the
    /// scalar-era encoding.
    #[test]
    fn vectors_roundtrip_and_stay_off_single_writer_wire() {
        let plain = fig6b_message();
        assert!(!plain.encode().contains("stamps"));

        let mut msg = fig6b_message();
        msg.stamps.insert(77, (5, 10));
        msg.stamps.insert(9, (2, u64::MAX));
        let text = msg.encode();
        // Keys sort lexicographically by decimal, like dep keys; a writer
        // id rides as the i64 of its bits.
        assert!(
            text.contains(r#""stamps":{"77":[5,10],"9":[2,-1]}"#),
            "unexpected encoding: {text}"
        );
        let decoded = WriteMessage::decode(&text).unwrap();
        assert_eq!(decoded, msg);
    }

    /// `decode` — the envelope, then each operation's attributes — against
    /// the tree decoder it replaced: the same verdict on every text and,
    /// where that is `Ok`, the same message. The envelope alone already
    /// gives the verdict: a subscriber applies nothing of a message that
    /// would fail past it.
    fn assert_decodes_like_reference(text: &str) {
        let (direct, reference) = (WriteMessage::decode(text), reference_decode(text));
        assert_eq!(
            Envelope::read(text).is_ok(),
            direct.is_ok(),
            "the envelope's verdict on {text}"
        );
        match (&direct, &reference) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "decoders disagree on the value of {text}"),
            (Err(_), Err(_)) => {}
            _ => panic!("decoders disagree on {text}: {direct:?} vs {reference:?}"),
        }
    }

    #[test]
    fn decode_matches_reference_on_hand_cases() {
        let op =
            r#"{"attributes":{"a":[1,2.5,{"b":null}]},"id":7,"operation":"create","types":["T"]}"#;
        let whole = |fields: &str| format!(r#"{{"app":"a","operations":[{op}]{fields}}}"#);
        let one_op = |op: &str| format!(r#"{{"app":"a","operations":[{op}]}}"#);
        let cases = [
            whole(""),
            // Unknown keys and whitespace anywhere the grammar allows it.
            whole(r#","extra":{"deep":[1,{"x":"y"}]},"zzz":null"#),
            format!(" {{ \"app\" :\t\"a\" ,\n\"operations\" : [ {op} ] \r}} "),
            format!("{} x", whole("")),
            // Repeated keys: the last one counts, whatever came before it.
            whole(r#","app":"b""#),
            whole(r#","app":5"#),
            format!(r#"{{"app":5,"app":"a","operations":[{op}]}}"#),
            whole(r#","operations":[]"#),
            whole(r#","operations":"none""#),
            format!(r#"{{"app":"a","operations":[{{}}],"operations":[{op}]}}"#),
            format!(r#"{{"app":"a","operations":[{op}],"operations":[{{}}]}}"#),
            whole(r#","dependencies":{"x":1},"dependencies":{"1":2}"#),
            whole(r#","dependencies":{"1":2},"dependencies":{"x":1}"#),
            whole(r#","generation":3,"generation":"x""#),
            // Keys compare after unescaping.
            whole(r#","\u0061pp":"escaped""#),
            // Fields of the wrong shape.
            r#"{"app":"a","operations":{"0":1}}"#.to_owned(),
            r#"{"app":"a","operations":[1,"x",null]}"#.to_owned(),
            r#"[{"app":"a","operations":[]}]"#.to_owned(),
            r#""app""#.to_owned(),
            whole(r#","dependencies":[1,2]"#),
            whole(r#","stamps":7"#),
            whole(r#","published_at":1.5,"generation":null"#),
            whole(r#","published_at":-1,"generation":-1"#),
            whole(r#","published_at":92233720368547758080"#),
            // Operations.
            one_op(r#"{"id":1.0,"operation":"create","types":["T"]}"#),
            one_op(r#"{"id":1e3,"operation":"create","types":["T"]}"#),
            one_op(r#"{"id":92233720368547758080,"operation":"create","types":["T"]}"#),
            one_op(r#"{"id":-1,"operation":"create","types":["T"]}"#),
            one_op(r#"{"id":1,"operation":"create"}"#),
            one_op(r#"{"id":1,"operation":"create","types":"T"}"#),
            one_op(r#"{"id":1,"operation":"create","types":[]}"#),
            one_op(r#"{"id":1,"operation":"create","types":[1,null]}"#),
            one_op(r#"{"id":1,"operation":"create","types":[1,"T",["U"],"V"]}"#),
            one_op(r#"{"id":1,"operation":7,"types":["T"]}"#),
            one_op(r#"{"operation":"create","types":["T"]}"#),
            one_op(r#"{"id":1,"operation":"create","types":["T"],"attributes":[1]}"#),
            one_op(r#"{"id":1,"operation":"create","types":["T"],"attributes":{"a":1,"a":2}}"#),
            one_op(r#"{"id":1,"id":2,"operation":"x","operation":"y","types":[],"types":["T"]}"#),
            one_op(r#"{"id":1,"operation":"create","types":["T"],"more":[{"id":2}]}"#),
            // Dependency and stamp keys are parsed from their *strings*.
            whole(r#","dependencies":{"7":1,"07":2,"+7":3}"#),
            whole(r#","dependencies":{"07":2,"7":1}"#),
            whole(r#","dependencies":{"0":1,"00":2}"#),
            whole(r#","dependencies":{"7":"x","7":1}"#),
            whole(r#","dependencies":{"7":1,"7":"x"}"#),
            whole(r#","dependencies":{"7":1.0}"#),
            whole(r#","dependencies":{"":1}"#),
            whole(r#","dependencies":{"-1":1}"#),
            whole(r#","dependencies":{"18446744073709551616":1}"#),
            whole(r#","dependencies":{"18446744073709551615":-1}"#),
            whole(r#","dependencies":{"\u0037":1,"7":2}"#),
            whole(r#","stamps":{"7":[1,2],"07":[3,4]}"#),
            whole(r#","stamps":{"7":[1,2],"+7":[3,4]}"#),
            whole(r#","stamps":{"7":[1]}"#),
            whole(r#","stamps":{"7":[1,2,3]}"#),
            whole(r#","stamps":{"7":[]}"#),
            whole(r#","stamps":{"7":{"1":2}}"#),
            whole(r#","stamps":{"7":[1,null]}"#),
            whole(r#","stamps":{"7":[1.5,2]}"#),
            whole(r#","stamps":{"7":[1,-2]}"#),
            whole(r#","stamps":{"x":[1,2]}"#),
            whole(r#","stamps":{"7":[1,2]},"stamps":{}"#),
            whole(r#","stamps":{},"stamps":{"7":[1]}"#),
            // Malformed JSON past a point that already decided the verdict.
            whole(r#","app":5"#) + "]",
            r#"{"app":"a","operations":[{}],"x":tru}"#.to_owned(),
            r#"{"app":"a","operations":[{"id":"\ud800"}]}"#.to_owned(),
            r#"{"app":"a\q","operations":[]}"#.to_owned(),
            "{\"app\":\"a\u{1}\",\"operations\":[]}".to_owned(),
            String::new(),
            "{".to_owned(),
            r#"{"app""#.to_owned(),
            r#"{"app":"a","operations":[],}"#.to_owned(),
        ];
        for text in &cases {
            assert_decodes_like_reference(text);
        }
        // The list is not all rejections, nor all acceptances.
        let accepted = cases
            .iter()
            .filter(|t| WriteMessage::decode(t).is_ok())
            .count();
        assert!(
            accepted >= 20 && cases.len() - accepted >= 20,
            "{accepted} of {}",
            cases.len()
        );
        // And the string-keyed corner: "07" sorts before "7", so "7" is
        // read last and its value stands.
        let msg = WriteMessage::decode(&whole(r#","dependencies":{"7":1,"07":2}"#)).unwrap();
        assert_eq!(msg.dep_list(), vec![(7, 1)]);
    }

    /// Attributes as the tree reads them, whatever their shape.
    #[test]
    fn attributes_decode_like_the_reference() {
        let op = |attributes: &str| {
            format!(r#"{{"attributes":{attributes},"id":7,"operation":"update","types":["T"]}}"#)
        };
        let one = |attributes: &str| format!(r#"{{"app":"a","operations":[{}]}}"#, op(attributes));
        let two = |first: &str, second: &str| {
            format!(
                r#"{{"app":"a","operations":[{},{}]}}"#,
                op(first),
                op(second)
            )
        };
        let cases = [
            // Whitespace inside the object and its values.
            one(" {\n\t\"a\" : [ 1 ,\r 2 ] , \"b\" : { \"c\" : null } } "),
            // Escaped keys and values.
            one(r#"{"k\"eyé":"v\\al\nue","b":"😀"}"#),
            // A repeated key: the last one stands.
            one(r#"{"a":1,"b":2,"a":"last"}"#),
            one(r#"{"a":{"x":1},"a":[2]}"#),
            // Floats, exponents and integers beyond i64 (read as floats).
            one(r#"{"f":1.5,"e":-2E-3,"g":1e300,"z":-0.0,"h":92233720368547758080}"#),
            one(r#"{"min":-9223372036854775808,"max":9223372036854775807}"#),
            // Nested arrays and maps.
            one(r#"{"n":[[],[[1],{"m":{"o":[true,false,null]}}],{}]}"#),
            // Not an object: reads as empty.
            one("[1,2]"),
            one(r#""text""#),
            one("null"),
            one("{}"),
            // A repeated `attributes` field: the last one stands, even when
            // it is no object.
            r#"{"app":"a","operations":[{"attributes":{"a":1},"id":7,"operation":"update","types":["T"],"attributes":{"b":2}}]}"#.to_owned(),
            r#"{"app":"a","operations":[{"attributes":{"a":1},"id":7,"operation":"update","types":["T"],"attributes":5}]}"#.to_owned(),
            // A malformed value deep in the second operation fails the whole
            // message, the first operation's good attributes included.
            two(r#"{"a":1}"#, r#"{"b":[1,{"c":[tru]}]}"#),
            two(r#"{"a":1}"#, r#"{"b":{"c":"\x"}}"#),
            two(r#"{"a":1}"#, r#"{"b":[1,2}"#),
            one(r#"{"a":1,}"#),
            one(r#"{"a" 1}"#),
        ];
        for text in &cases {
            assert_decodes_like_reference(text);
        }
        let attributes = |text: &str| {
            let mut msg = WriteMessage::decode(text).expect("decodes");
            msg.operations.remove(0).attributes
        };
        assert_eq!(attributes(&cases[1])["k\"eyé"], Value::from("v\\al\nue"));
        assert_eq!(attributes(&cases[2])["a"], Value::from("last"));
        assert_eq!(
            attributes(&cases[4])["h"],
            Value::Float(92233720368547758080.0)
        );
        assert!(attributes(&cases[7]).is_empty());
        assert_eq!(attributes(&cases[11])["b"], Value::Int(2));
        for bad in &cases[13..] {
            assert!(WriteMessage::decode(bad).is_err(), "{bad}");
        }
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            any::<f64>()
                .prop_filter("finite", |f| f.is_finite())
                .prop_map(Value::Float),
            arb_text().prop_map(Value::from),
        ];
        leaf.prop_recursive(3, 24, 6, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
                prop::collection::btree_map(arb_text(), inner, 0..4).prop_map(Value::Map),
            ]
        })
    }

    /// Text that exercises every escape the encoder writes (quote,
    /// backslash, `\n`/`\t`, `\u00XX`) beside multi-byte characters.
    fn arb_text() -> impl Strategy<Value = String> {
        "[a-zA-Z0-9 _äö❤😀\\\\\"\n\t\u{1}\u{1f}]{0,10}"
    }

    fn arb_key() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..12, any::<u64>(), Just(u64::MAX)]
    }

    fn arb_message() -> impl Strategy<Value = WriteMessage> {
        let op = (
            prop_oneof![Just("create"), Just("update"), Just("destroy")],
            prop::collection::vec("[A-Z][a-z]{0,6}", 1..3),
            arb_key(),
            prop::collection::btree_map(arb_text(), arb_value(), 0..4),
        )
            .prop_map(|(operation, types, id, attributes)| Operation {
                operation: operation.to_owned(),
                types,
                id: Id(id),
                attributes,
            });
        (
            arb_text(),
            prop::collection::vec(op, 0..4),
            prop::collection::btree_map(arb_key(), arb_key(), 0..4),
            any::<u64>(),
            any::<u64>(),
            prop::collection::btree_map(arb_key(), (arb_key(), arb_key()), 0..3),
        )
            .prop_map(
                |(app, operations, dependencies, published_at, generation, stamps)| WriteMessage {
                    app,
                    operations,
                    dependencies,
                    published_at,
                    generation,
                    stamps,
                },
            )
    }

    /// One random edit of an encoding: cut it short, drop, overwrite or
    /// insert a character that means something to the grammar, repeat a
    /// slice of it (repeated keys), or rename one field to another
    /// (missing, repeated and wrongly typed fields).
    fn mutate(text: &str, rng: &mut proptest::TestRng) -> String {
        const ALPHABET: &[char] = &[
            '{', '}', '[', ']', '"', ':', ',', '\\', ' ', '\n', '0', '7', '9', '-', '+', '.', 'e',
            'n', 't', 'f', 'u', 'x', 'é', '\u{1}',
        ];
        const KEYS: &[&str] = &[
            "app",
            "operations",
            "dependencies",
            "stamps",
            "generation",
            "published_at",
            "operation",
            "types",
            "id",
            "attributes",
        ];
        let mut chars: Vec<char> = text.chars().collect();
        let at = rng.below(chars.len() as u64 + 1) as usize;
        let pick = ALPHABET[rng.below(ALPHABET.len() as u64) as usize];
        match rng.below(6) {
            0 => chars.truncate(at),
            1 if at < chars.len() => drop(chars.remove(at)),
            2 if at < chars.len() => chars[at] = pick,
            3 => chars.insert(at, pick),
            4 => {
                let end = (at + rng.below(40) as usize).min(chars.len());
                let slice = chars[at..end].to_vec();
                chars.splice(at..at, slice);
            }
            _ => {
                let from = KEYS[rng.below(KEYS.len() as u64) as usize];
                let to = KEYS[rng.below(KEYS.len() as u64) as usize];
                return text.replacen(&format!("\"{from}\""), &format!("\"{to}\""), 1);
            }
        }
        chars.into_iter().collect()
    }

    proptest! {
        /// Generated messages encode like the value tree; they, and a few
        /// hundred edits of each one's encoding, decode alike; the untouched
        /// encoding round-trips.
        #[test]
        fn decode_matches_reference_on_generated_and_mutated_encodings(
            msg in arb_message(),
            seed in any::<u64>(),
        ) {
            let text = msg.encode();
            prop_assert_eq!(&text, &reference_encode(&msg));
            assert_decodes_like_reference(&text);
            prop_assert_eq!(WriteMessage::decode(&text).expect("own encoding"), msg);
            let mut rng = proptest::TestRng::new(seed);
            for _ in 0..200 {
                let mut edited = mutate(&text, &mut rng);
                assert_decodes_like_reference(&edited);
                // A second edit on top reaches texts one edit cannot.
                edited = mutate(&edited, &mut rng);
                assert_decodes_like_reference(&edited);
            }
        }
    }
}
