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
use synapse_model::{wire, Id, ModelError, Record, Value};
use synapse_versionstore::{DepKey, VersionVector};

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
    /// Per-object version vectors for written dependencies — only
    /// populated for bidirectional (multi-writer) models, where the
    /// scalar dependency value cannot express which foreign writes this
    /// one causally follows. Empty for single-writer messages, and
    /// *omitted from the wire* when empty, so single-writer encodings
    /// stay byte-identical to the scalar era (old payloads in WAL
    /// segments decode as an empty map).
    pub vectors: BTreeMap<DepKey, VersionVector>,
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
            &self.vectors,
        );
    }

    /// Decodes from JSON, reading the text straight into the message over
    /// [`wire::Reader`] — no [`Value`] tree in between; only attribute
    /// values are built as `Value`s. Every field slot holds what
    /// `get(key).as_*()` answers on the parsed tree: nothing for a key that
    /// is missing or of another type, the last occurrence of a repeated
    /// key. Malformed JSON fails where it is met; a field the message
    /// cannot do without fails once the whole text has been read, since a
    /// later repeat of its key may still replace it.
    pub fn decode(text: &str) -> Result<WriteMessage, ModelError> {
        let mut r = wire::Reader::new(text);
        let (mut app, mut operations) = (None, None);
        let (mut dependencies, mut vectors) = (None, None);
        let (mut published_at, mut generation) = (None, None);
        r.object(|r, key| {
            match &*key {
                "app" => app = into_string(r.value()?),
                "operations" => {
                    let mut ops = Ok(Vec::new());
                    let is_array = r.array(|r| {
                        let op = read_operation(r)?;
                        if let Ok(list) = &mut ops {
                            match op {
                                Ok(op) => list.push(op),
                                Err(e) => ops = Err(e),
                            }
                        }
                        Ok(())
                    })?;
                    operations = is_array.then_some(ops);
                }
                "dependencies" => dependencies = read_by_key(r, |r| Ok(r.value()?.as_int()))?,
                "vectors" => {
                    vectors = read_by_key(r, |r| read_by_key(r, |r| Ok(r.value()?.as_int())))?
                }
                "published_at" => published_at = r.value()?.as_int(),
                "generation" => generation = r.value()?.as_int(),
                _ => drop(r.value()?),
            }
            Ok(())
        })?;
        r.finish()?;

        let app = app.ok_or_else(|| malformed("missing app"))?;
        let operations = operations.ok_or_else(|| malformed("missing operations"))??;
        let mut msg = WriteMessage {
            app,
            operations,
            published_at: published_at.unwrap_or(0) as u64,
            generation: generation.unwrap_or(1) as u64,
            ..WriteMessage::default()
        };
        for (k, version) in dependencies.unwrap_or_default() {
            let key: DepKey = k
                .parse()
                .map_err(|_| malformed(&format!("bad dependency key {k}")))?;
            let version = version.ok_or_else(|| malformed("bad dependency version"))?;
            msg.dependencies.insert(key, version as u64);
        }
        for (k, components) in vectors.unwrap_or_default() {
            let key: DepKey = k
                .parse()
                .map_err(|_| malformed(&format!("bad vector key {k}")))?;
            let mut vector = VersionVector::new();
            for (writer, counter) in components.ok_or_else(|| malformed("bad vector entry"))? {
                let writer: u64 = writer
                    .parse()
                    .map_err(|_| malformed(&format!("bad writer id {writer}")))?;
                let counter = counter.ok_or_else(|| malformed("bad vector counter"))?;
                vector.set(writer, counter as u64);
            }
            msg.vectors.insert(key, vector);
        }
        Ok(msg)
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

fn into_string(value: Value) -> Option<String> {
    match value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Reads one element of `operations`. The outer error is malformed JSON;
/// the inner one a well-formed element that is not an operation, which
/// fails the message only if this `operations` array is the one kept.
fn read_operation(r: &mut wire::Reader<'_>) -> Result<Result<Operation, ModelError>, ModelError> {
    let (mut operation, mut types) = (None, None);
    let (mut id, mut attributes) = (None, None);
    r.object(|r, key| {
        match &*key {
            "operation" => operation = into_string(r.value()?),
            "types" => {
                let mut chain = Vec::new();
                let is_array = r.array(|r| {
                    chain.extend(into_string(r.value()?));
                    Ok(())
                })?;
                types = is_array.then_some(chain);
            }
            "id" => id = r.value()?.as_int(),
            "attributes" => {
                attributes = match r.value()? {
                    Value::Map(map) => Some(map),
                    _ => None,
                }
            }
            _ => drop(r.value()?),
        }
        Ok(())
    })?;
    Ok(match (operation, types, id) {
        (None, ..) => Err(malformed("missing operation kind")),
        (_, None, _) => Err(malformed("missing types")),
        (_, Some(types), _) if types.is_empty() => Err(malformed("empty type chain")),
        (.., None) => Err(malformed("missing id")),
        (Some(operation), Some(types), Some(id)) => Ok(Operation {
            operation,
            types,
            id: Id(id as u64),
            attributes: attributes.unwrap_or_default(),
        }),
    })
}

/// Reads an object into its entries by *string* key, as a parsed tree
/// holds them: the last of a repeated key, in string order — so that
/// `"07"` and `"7"` stay two entries until the caller parses them, and the
/// later one in this order wins there. `None` if the value is no object.
fn read_by_key<'a, T>(
    r: &mut wire::Reader<'a>,
    mut read: impl FnMut(&mut wire::Reader<'a>) -> Result<T, ModelError>,
) -> Result<Option<BTreeMap<Cow<'a, str>, T>>, ModelError> {
    let mut entries = BTreeMap::new();
    let is_object = r.object(|r, key| {
        entries.insert(key, read(r)?);
        Ok(())
    })?;
    Ok(is_object.then_some(entries))
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
    vectors: &BTreeMap<DepKey, VersionVector>,
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
    if !vectors.is_empty() {
        // "vectors" sorts after "published_at", so appending it here
        // keeps the canonical key order — and omitting it when empty
        // keeps single-writer messages byte-identical to the scalar
        // format.
        out.push_str(",\"vectors\":{");
        let mut keys: Vec<DepKey> = vectors.keys().copied().collect();
        keys.sort_unstable_by_key(|key| decimal_order(*key));
        for (i, key) in keys.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            wire::encode_u64(*key, out);
            out.push_str("\":{");
            let mut writers: Vec<(u64, u64)> = vectors[key].components().to_vec();
            writers.sort_unstable_by_key(|(writer, _)| decimal_order(*writer));
            for (j, (writer, counter)) in writers.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                wire::encode_u64(*writer, out);
                out.push_str("\":");
                wire::encode_i64(*counter as i64, out);
            }
            out.push('}');
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
            vectors: BTreeMap::new(),
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
        let mut vectors = BTreeMap::new();
        if let Some(vecs) = v.get("vectors").as_map() {
            for (k, val) in vecs {
                let key: DepKey = k
                    .parse()
                    .map_err(|_| ModelError::Malformed(format!("bad vector key {k}")))?;
                let comps = val
                    .as_map()
                    .ok_or_else(|| ModelError::Malformed("bad vector entry".into()))?;
                let mut vector = VersionVector::new();
                for (writer, counter) in comps {
                    let writer: u64 = writer
                        .parse()
                        .map_err(|_| ModelError::Malformed(format!("bad writer id {writer}")))?;
                    let counter = counter
                        .as_int()
                        .ok_or_else(|| ModelError::Malformed("bad vector counter".into()))?;
                    vector.set(writer, counter as u64);
                }
                vectors.insert(key, vector);
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
            vectors,
        })
    }

    /// The historical encoder: build the full `Value` tree (dependency keys
    /// and vector writers as decimal strings in `BTreeMap<String, _>`s) and
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
        if !msg.vectors.is_empty() {
            let vectors = msg.vectors.iter().map(|(k, vector)| {
                let writers = vector.components().iter();
                let writers = writers.map(|(w, c)| (w.to_string(), Value::from(*c)));
                (k.to_string(), Value::Map(writers.collect()))
            });
            if let Value::Map(fields) = &mut tree {
                fields.insert("vectors".to_owned(), Value::Map(vectors.collect()));
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
            vectors: BTreeMap::new(),
        };
        assert_eq!(msg.encode(), reference_encode(&msg));
    }

    #[test]
    fn dep_list_matches_map() {
        let msg = fig6b_message();
        assert_eq!(msg.dep_list(), vec![(77, 42)]);
        assert_eq!(msg.dep_keys(), vec![77]);
    }

    /// Multi-writer vectors ride an optional trailing field: present only
    /// when non-empty, so a single-writer message's bytes are exactly the
    /// scalar-era encoding.
    #[test]
    fn vectors_roundtrip_and_stay_off_single_writer_wire() {
        let plain = fig6b_message();
        assert!(!plain.encode().contains("vectors"));

        let mut msg = fig6b_message();
        msg.vectors
            .insert(77, VersionVector::from_components(&[(9, 2), (10, 5)]));
        let text = msg.encode();
        // Writer keys sort lexicographically by decimal, like dep keys.
        assert!(
            text.contains(r#""vectors":{"77":{"10":5,"9":2}}"#),
            "unexpected encoding: {text}"
        );
        let decoded = WriteMessage::decode(&text).unwrap();
        assert_eq!(decoded, msg);
    }

    /// `decode` against the tree decoder it replaced: the same verdict on
    /// every text and, where that is `Ok`, the same message.
    fn assert_decodes_like_reference(text: &str) {
        let (direct, reference) = (WriteMessage::decode(text), reference_decode(text));
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
            whole(r#","vectors":7"#),
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
            // Dependency and vector keys are parsed from their *strings*.
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
            whole(r#","vectors":{"7":{"1":2,"01":3,"+1":4}}"#),
            whole(r#","vectors":{"7":{"1":2},"07":{"3":4}}"#),
            whole(r#","vectors":{"7":[1]}"#),
            whole(r#","vectors":{"7":{"x":1}}"#),
            whole(r#","vectors":{"7":{"1":null}}"#),
            whole(r#","vectors":{"x":{}}"#),
            whole(r#","vectors":{"7":{}},"vectors":{}"#),
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
        let vector = prop::collection::vec((arb_key(), 1u64..50), 0..3)
            .prop_map(|components| VersionVector::from_components(&components));
        (
            arb_text(),
            prop::collection::vec(op, 0..4),
            prop::collection::btree_map(arb_key(), arb_key(), 0..4),
            any::<u64>(),
            any::<u64>(),
            prop::collection::btree_map(arb_key(), vector, 0..3),
        )
            .prop_map(
                |(app, operations, dependencies, published_at, generation, vectors)| WriteMessage {
                    app,
                    operations,
                    dependencies,
                    published_at,
                    generation,
                    vectors,
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
            "vectors",
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
