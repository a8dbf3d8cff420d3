//! Model schemas: field declarations, types, and associations.
//!
//! A [`ModelSchema`] is the Rust equivalent of a Rails model class body: the
//! set of persisted fields (with optional types — document stores are
//! schemaless and accept anything), the associations (`belongs_to` /
//! `has_many`), and the inheritance chain used for polymorphic replication
//! (§4.1: "Synapse also includes each object's complete inheritance tree").

use crate::error::ModelError;
use crate::value::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Runtime type expected for a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// No constraint — any [`Value`] is accepted (schemaless stores).
    Any,
    /// [`Value::Bool`].
    Bool,
    /// [`Value::Int`].
    Int,
    /// [`Value::Float`] (or an [`Value::Int`], widened).
    Float,
    /// [`Value::Str`].
    Str,
    /// [`Value::Array`] (MongoDB array type, Example 3 in the paper).
    Array,
    /// [`Value::Map`] (embedded document).
    Map,
}

impl FieldType {
    /// Checks whether `v` conforms to this type. `Null` conforms to every
    /// type (fields are nullable, as in Rails).
    pub fn accepts(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (FieldType::Any, _)
                | (FieldType::Bool, Value::Bool(_))
                | (FieldType::Int, Value::Int(_))
                | (FieldType::Float, Value::Float(_) | Value::Int(_))
                | (FieldType::Str, Value::Str(_))
                | (FieldType::Array, Value::Array(_))
                | (FieldType::Map, Value::Map(_))
        )
    }

    /// Human-readable name used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            FieldType::Any => "any",
            FieldType::Bool => "bool",
            FieldType::Int => "int",
            FieldType::Float => "float",
            FieldType::Str => "string",
            FieldType::Array => "array",
            FieldType::Map => "map",
        }
    }
}

/// A declared persisted field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Expected runtime type.
    pub ty: FieldType,
    /// Whether the engine should maintain a secondary index on this field.
    pub indexed: bool,
}

/// Kind of association between models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssociationKind {
    /// This model holds a `<name>_id` foreign key to the target.
    BelongsTo,
    /// The target holds a foreign key back to this model.
    HasMany,
}

/// A declared association (`belongs_to :user`, `has_many :comments`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Association {
    /// Association name (e.g. `user1`, `friendships`).
    pub name: String,
    /// Target model name (e.g. `User`).
    pub target: String,
    /// Kind of the association.
    pub kind: AssociationKind,
}

impl Association {
    /// The foreign-key field implied by a `belongs_to` association.
    pub fn foreign_key(&self) -> String {
        format!("{}_id", self.name)
    }
}

/// Schema of a single model.
#[derive(Debug, Clone)]
pub struct ModelSchema {
    /// Model name, e.g. `User`.
    pub name: String,
    /// Inheritance chain above this model, closest ancestor first (e.g.
    /// `AdminUser` might have `["User"]`). Used to serve polymorphic
    /// subscriptions.
    pub ancestors: Vec<String>,
    /// Declared fields by name.
    pub fields: BTreeMap<String, FieldDef>,
    /// Declared associations by name.
    pub associations: BTreeMap<String, Association>,
    /// Whether undeclared attributes are accepted (document stores).
    pub open: bool,
}

impl ModelSchema {
    /// Creates a closed (strict) schema with no fields.
    pub fn new(name: impl Into<String>) -> Self {
        ModelSchema {
            name: name.into(),
            ancestors: Vec::new(),
            fields: BTreeMap::new(),
            associations: BTreeMap::new(),
            open: false,
        }
    }

    /// Creates an open (schemaless) schema, as used by document stores.
    pub fn open(name: impl Into<String>) -> Self {
        let mut s = Self::new(name);
        s.open = true;
        s
    }

    /// Declares a field with [`FieldType::Any`].
    pub fn field(self, name: impl Into<String>) -> Self {
        self.typed_field(name, FieldType::Any)
    }

    /// Declares a field with an explicit type.
    pub fn typed_field(mut self, name: impl Into<String>, ty: FieldType) -> Self {
        let name = name.into();
        self.fields.insert(
            name.clone(),
            FieldDef {
                name,
                ty,
                indexed: false,
            },
        );
        self
    }

    /// Declares an indexed field with an explicit type.
    pub fn indexed_field(mut self, name: impl Into<String>, ty: FieldType) -> Self {
        let name = name.into();
        self.fields.insert(
            name.clone(),
            FieldDef {
                name,
                ty,
                indexed: true,
            },
        );
        self
    }

    /// Declares a `belongs_to` association; also declares the implied
    /// indexed foreign-key field.
    pub fn belongs_to(mut self, name: impl Into<String>, target: impl Into<String>) -> Self {
        let assoc = Association {
            name: name.into(),
            target: target.into(),
            kind: AssociationKind::BelongsTo,
        };
        let fk = assoc.foreign_key();
        self.associations.insert(assoc.name.clone(), assoc);
        self.indexed_field(fk, FieldType::Int)
    }

    /// Declares a `has_many` association (no local field is created; the
    /// target model holds the foreign key).
    pub fn has_many(mut self, name: impl Into<String>, target: impl Into<String>) -> Self {
        let assoc = Association {
            name: name.into(),
            target: target.into(),
            kind: AssociationKind::HasMany,
        };
        self.associations.insert(assoc.name.clone(), assoc);
        self
    }

    /// Sets the inheritance chain above this model, closest ancestor first.
    pub fn inherits(mut self, ancestors: &[&str]) -> Self {
        self.ancestors = ancestors.iter().map(|s| (*s).to_owned()).collect();
        self
    }

    /// Validates one attribute assignment against the schema.
    pub fn check_attr(&self, field: &str, value: &Value) -> Result<(), ModelError> {
        match self.fields.get(field) {
            Some(def) => {
                if def.ty.accepts(value) {
                    Ok(())
                } else {
                    Err(ModelError::TypeMismatch {
                        model: self.name.clone(),
                        field: field.to_owned(),
                        expected: def.ty.name(),
                        actual: value.type_name().to_owned(),
                    })
                }
            }
            None if self.open => Ok(()),
            None => Err(ModelError::UnknownField {
                model: self.name.clone(),
                field: field.to_owned(),
            }),
        }
    }

    /// Validates a whole attribute map.
    pub fn check_attrs<'a>(
        &self,
        attrs: impl IntoIterator<Item = (&'a String, &'a Value)>,
    ) -> Result<(), ModelError> {
        for (k, v) in attrs {
            self.check_attr(k, v)?;
        }
        Ok(())
    }
}

/// A set of model schemas forming one service's data model. Schemas are
/// held by `Arc`: a caller that needs one beyond the set's borrow (the ORM,
/// on every call) copies the pointer, not the schema.
#[derive(Debug, Clone, Default)]
pub struct SchemaSet {
    models: BTreeMap<String, Arc<ModelSchema>>,
}

impl SchemaSet {
    /// Creates an empty schema set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds or replaces a model schema.
    pub fn define(&mut self, schema: ModelSchema) -> &mut Self {
        self.models.insert(schema.name.clone(), Arc::new(schema));
        self
    }

    /// Looks up a model schema.
    pub fn get(&self, model: &str) -> Result<&Arc<ModelSchema>, ModelError> {
        self.models
            .get(model)
            .ok_or_else(|| ModelError::UnknownModel(model.to_owned()))
    }

    /// Returns `true` if the model is defined.
    pub fn contains(&self, model: &str) -> bool {
        self.models.contains_key(model)
    }

    /// Iterates over all model schemas in name order.
    pub fn iter(&self) -> impl Iterator<Item = &ModelSchema> {
        self.models.values().map(|schema| &**schema)
    }

    /// Names of all defined models.
    pub fn model_names(&self) -> Vec<&str> {
        self.models.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vmap;

    fn user_schema() -> ModelSchema {
        ModelSchema::new("User")
            .typed_field("name", FieldType::Str)
            .typed_field("age", FieldType::Int)
            .has_many("friendships", "Friendship")
    }

    #[test]
    fn field_types_accept_conforming_values() {
        assert!(FieldType::Str.accepts(&Value::from("x")));
        assert!(FieldType::Float.accepts(&Value::from(3i64)));
        assert!(FieldType::Int.accepts(&Value::Null), "fields are nullable");
        assert!(!FieldType::Int.accepts(&Value::from("x")));
        assert!(FieldType::Any.accepts(&vmap! {"a" => 1}));
    }

    #[test]
    fn closed_schema_rejects_unknown_fields() {
        let s = user_schema();
        assert!(s.check_attr("name", &Value::from("alice")).is_ok());
        let err = s.check_attr("nope", &Value::from(1)).unwrap_err();
        assert!(matches!(err, ModelError::UnknownField { .. }));
    }

    #[test]
    fn open_schema_accepts_anything() {
        let s = ModelSchema::open("Doc");
        assert!(s.check_attr("whatever", &vmap! {"x" => 1}).is_ok());
    }

    #[test]
    fn type_mismatch_is_reported() {
        let s = user_schema();
        let err = s.check_attr("age", &Value::from("old")).unwrap_err();
        assert!(matches!(err, ModelError::TypeMismatch { .. }));
    }

    #[test]
    fn belongs_to_declares_indexed_foreign_key() {
        let s = ModelSchema::new("Comment").belongs_to("post", "Post");
        let fk = s.fields.get("post_id").expect("foreign key field");
        assert!(fk.indexed);
        assert_eq!(fk.ty, FieldType::Int);
        assert_eq!(
            s.associations.get("post").unwrap().kind,
            AssociationKind::BelongsTo
        );
    }

    #[test]
    fn schema_set_lookup() {
        let mut set = SchemaSet::new();
        set.define(user_schema());
        assert!(set.get("User").is_ok());
        assert!(matches!(
            set.get("Ghost").unwrap_err(),
            ModelError::UnknownModel(_)
        ));
        assert_eq!(set.model_names(), vec!["User"]);
    }
}
