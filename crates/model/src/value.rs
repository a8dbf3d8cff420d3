//! Runtime-typed attribute values.
//!
//! [`Value`] plays the role that Ruby objects play in the original Synapse:
//! every attribute of every model instance is one of a small set of dynamic
//! types that all database engines and ORM adapters understand. Engines with
//! richer native types (e.g. MongoDB arrays, Elasticsearch analyzed text)
//! map onto [`Value::Array`] / [`Value::Str`]; engines with poorer types
//! (e.g. SQL without arrays) translate in their adapters, exactly as the
//! paper's Example 3 (§3.3) describes.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

/// A dynamically typed attribute value.
///
/// `Value` implements a *total* order (floats via [`f64::total_cmp`]) so it
/// can serve as a key in ordered secondary indexes inside the engines.
///
/// # Examples
///
/// ```
/// use synapse_model::Value;
///
/// let interests = Value::from(vec![Value::from("cats"), Value::from("dogs")]);
/// assert_eq!(interests.as_array().unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// Absent / SQL NULL / Ruby nil.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered list of values (MongoDB array type, Example 3 in the paper).
    Array(Vec<Value>),
    /// String-keyed map (document/embedded object).
    Map(BTreeMap<String, Value>),
}

impl Value {
    /// Returns a short name for the value's runtime type, for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Map(_) => "map",
        }
    }

    /// Returns `true` if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the boolean payload, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer payload, if this is a [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the array payload, if this is a [`Value::Array`].
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Returns the map payload, if this is a [`Value::Map`].
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Looks up a key in a [`Value::Map`], returning [`Value::Null`] when
    /// absent or when `self` is not a map (Ruby `obj[key]` semantics).
    pub fn get(&self, key: &str) -> &Value {
        const NULL: Value = Value::Null;
        match self {
            Value::Map(m) => m.get(key).unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// Approximate in-memory footprint in bytes, used by engines to report
    /// storage statistics.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len() + 8,
            Value::Array(a) => a.iter().map(Value::approx_size).sum::<usize>() + 16,
            Value::Map(m) => {
                m.iter()
                    .map(|(k, v)| k.len() + v.approx_size())
                    .sum::<usize>()
                    + 16
            }
        }
    }

    /// Rank used to order values of different runtime types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
            Value::Array(_) => 5,
            Value::Map(_) => 6,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            // Mixed numeric comparison keeps `1` and `1.0` distinct in
            // indexes but numerically ordered relative to each other.
            (Float(a), Float(b)) => a.total_cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Array(a), Array(b)) => a.cmp(b),
            (Map(a), Map(b)) => a.iter().cmp(b.iter()),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(x) => x.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Array(a) => a.hash(state),
            Value::Map(m) => {
                for (k, v) in m {
                    k.hash(state);
                    v.hash(state);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    /// Delegates to the canonical wire encoding so logs show the same JSON
    /// the broker ships.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::wire::encode(self))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<u64> for Value {
    fn from(i: u64) -> Self {
        Value::Int(i as i64)
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<Vec<Value>> for Value {
    fn from(a: Vec<Value>) -> Self {
        Value::Array(a)
    }
}

impl From<BTreeMap<String, Value>> for Value {
    fn from(m: BTreeMap<String, Value>) -> Self {
        Value::Map(m)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        o.map(Into::into).unwrap_or(Value::Null)
    }
}

/// Builds a [`Value::Map`] from `key => value` pairs.
///
/// # Examples
///
/// ```
/// use synapse_model::{vmap, Value};
///
/// let user = vmap! { "name" => "alice", "age" => 30 };
/// assert_eq!(user.get("name").as_str(), Some("alice"));
/// ```
#[macro_export]
macro_rules! vmap {
    () => { $crate::Value::Map(std::collections::BTreeMap::new()) };
    ( $( $k:expr => $v:expr ),+ $(,)? ) => {{
        let mut m = std::collections::BTreeMap::new();
        $( m.insert($k.to_string(), $crate::Value::from($v)); )+
        $crate::Value::Map(m)
    }};
}

/// Builds a [`Value::Array`] from elements convertible to [`Value`].
#[macro_export]
macro_rules! varray {
    ( $( $v:expr ),* $(,)? ) => {
        $crate::Value::Array(vec![ $( $crate::Value::from($v) ),* ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_default() {
        assert!(Value::default().is_null());
    }

    #[test]
    fn accessors_return_expected_payloads() {
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(42i64).as_int(), Some(42));
        assert_eq!(Value::from("hi").as_str(), Some("hi"));
        assert!(Value::Null.as_str().is_none());
    }

    #[test]
    fn map_get_returns_null_for_missing_keys() {
        let m = vmap! { "a" => 1i64 };
        assert_eq!(m.get("a").as_int(), Some(1));
        assert!(m.get("b").is_null());
        assert!(Value::from(3i64).get("a").is_null());
    }

    #[test]
    fn ordering_is_total_across_types() {
        let vals = [
            Value::Null,
            Value::from(false),
            Value::from(-3i64),
            Value::from(1.5),
            Value::from("a"),
            varray![1i64],
            vmap! { "k" => 1i64 },
        ];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                assert_eq!(a.cmp(b), i.cmp(&j), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn float_ordering_handles_nan() {
        let nan = Value::from(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_ne!(nan.cmp(&Value::from(0.0)), Ordering::Equal);
    }

    #[test]
    fn approx_size_grows_with_content() {
        let small = vmap! { "a" => 1i64 };
        let big = vmap! { "a" => "a long string value stored inline" };
        assert!(big.approx_size() > small.approx_size());
    }

    #[test]
    fn type_names_cover_all_variants() {
        assert_eq!(Value::Null.type_name(), "null");
        assert_eq!(varray![].type_name(), "array");
        assert_eq!(vmap! {}.type_name(), "map");
    }
}
