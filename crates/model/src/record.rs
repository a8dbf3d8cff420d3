//! Model instances.

use crate::id::Id;
use crate::value::Value;
use std::collections::BTreeMap;

/// A model instance: the unit of replication in Synapse.
///
/// A `Record` corresponds to one Ruby object (one row / document / node).
/// It is what the publisher marshals into a write message and what the
/// subscriber re-materializes through its own ORM.
///
/// # Examples
///
/// ```
/// use synapse_model::{Id, Record, Value};
///
/// let mut user = Record::new("User", Id(100));
/// user.set("name", "alice");
/// assert_eq!(user.get("name").as_str(), Some("alice"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Model name, e.g. `User`.
    pub model: String,
    /// Primary key.
    pub id: Id,
    /// Attribute values by name. The primary key is *not* stored here.
    pub attrs: BTreeMap<String, Value>,
    /// Full inheritance chain, most-derived first (`["AdminUser", "User"]`).
    /// Lets subscribers consume polymorphic models (§4.1).
    pub types: Vec<String>,
}

impl Record {
    /// Creates an empty record of the given model.
    pub fn new(model: impl Into<String>, id: Id) -> Self {
        let model = model.into();
        Record {
            types: vec![model.clone()],
            model,
            id,
            attrs: BTreeMap::new(),
        }
    }

    /// Creates a record with an explicit attribute map.
    pub fn with_attrs(model: impl Into<String>, id: Id, attrs: BTreeMap<String, Value>) -> Self {
        let mut r = Self::new(model, id);
        r.attrs = attrs;
        r
    }

    /// Reads an attribute; returns [`Value::Null`] when absent.
    pub fn get(&self, field: &str) -> &Value {
        const NULL: Value = Value::Null;
        self.attrs.get(field).unwrap_or(&NULL)
    }

    /// Sets an attribute.
    pub fn set(&mut self, field: impl Into<String>, value: impl Into<Value>) -> &mut Self {
        self.attrs.insert(field.into(), value.into());
        self
    }

    /// Builder-style [`Record::set`].
    pub fn with(mut self, field: impl Into<String>, value: impl Into<Value>) -> Self {
        self.set(field, value);
        self
    }

    /// Restricts the record to a subset of attributes, dropping the rest.
    /// Used by publishers to marshal only the *published* attributes.
    pub fn project(&self, fields: &[&str]) -> Record {
        let mut out = Record::new(self.model.clone(), self.id);
        out.types.clone_from(&self.types);
        for f in fields {
            if let Some(v) = self.attrs.get(*f) {
                out.attrs.insert((*f).to_owned(), v.clone());
            }
        }
        out
    }

    /// Converts the record's attributes (plus id) into a [`Value::Map`].
    pub fn to_value(&self) -> Value {
        let mut m = self.attrs.clone();
        m.insert("id".to_owned(), Value::Int(self.id.raw() as i64));
        Value::Map(m)
    }

    /// Approximate marshalled size in bytes.
    pub fn approx_size(&self) -> usize {
        self.attrs
            .iter()
            .map(|(k, v)| k.len() + v.approx_size())
            .sum::<usize>()
            + self.model.len()
            + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{varray, vmap};

    #[test]
    fn get_missing_attribute_is_null() {
        let r = Record::new("User", Id(1));
        assert!(r.get("name").is_null());
    }

    #[test]
    fn set_and_with_are_equivalent() {
        let mut a = Record::new("User", Id(1));
        a.set("name", "x");
        let b = Record::new("User", Id(1)).with("name", "x");
        assert_eq!(a, b);
    }

    #[test]
    fn project_keeps_only_requested_fields() {
        let r = Record::new("User", Id(1))
            .with("name", "alice")
            .with("email", "a@example.com")
            .with("secret", "hunter2");
        let p = r.project(&["name", "email"]);
        assert_eq!(p.attrs.len(), 2);
        assert!(p.get("secret").is_null());
        assert_eq!(p.id, r.id);
    }

    #[test]
    fn project_skips_absent_fields() {
        let r = Record::new("User", Id(1)).with("name", "alice");
        let p = r.project(&["name", "missing"]);
        assert_eq!(p.attrs.len(), 1);
    }

    #[test]
    fn to_value_includes_id() {
        let r = Record::new("User", Id(7)).with("tags", varray!["a"]);
        assert_eq!(r.to_value(), vmap! { "id" => 7, "tags" => varray!["a"] });
    }
}
