//! Virtual attributes: programmer-provided getters and setters for
//! attributes that are not in the DB schema (§3.1).
//!
//! The paper's Example 3 (Sub3b) subscribes to MongoDB's array-typed
//! `interests` field through a virtual attribute whose setter explodes the
//! array into rows of a separate SQL `interests` table. On the publisher
//! side, virtual attribute *getters* let services publish computed fields.

use crate::error::OrmError;
use crate::orm::Orm;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use synapse_model::{Record, Value};

/// Getter: computes the published value from the record.
pub type VirtualGetter = Arc<dyn Fn(&Orm, &Record) -> Value + Send + Sync>;
/// Setter: consumes an incoming value on the subscriber (may perform its
/// own ORM writes, like Sub3b's `Interest.add_or_remove`).
pub type VirtualSetter =
    Arc<dyn Fn(&Orm, &mut Record, Value) -> Result<(), OrmError> + Send + Sync>;

/// A virtual attribute definition (getter, setter, or both).
#[derive(Clone, Default)]
pub struct VirtualAttr {
    /// Optional getter.
    pub getter: Option<VirtualGetter>,
    /// Optional setter.
    pub setter: Option<VirtualSetter>,
}

/// Per-model registry of virtual attributes.
#[derive(Default)]
pub struct VirtualRegistry {
    attrs: RwLock<HashMap<(String, String), VirtualAttr>>,
}

impl VirtualRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a getter for `model.field`.
    pub fn getter<F>(&self, model: &str, field: &str, f: F)
    where
        F: Fn(&Orm, &Record) -> Value + Send + Sync + 'static,
    {
        let mut attrs = self.attrs.write();
        attrs
            .entry((model.to_owned(), field.to_owned()))
            .or_default()
            .getter = Some(Arc::new(f));
    }

    /// Registers a setter for `model.field`.
    pub fn setter<F>(&self, model: &str, field: &str, f: F)
    where
        F: Fn(&Orm, &mut Record, Value) -> Result<(), OrmError> + Send + Sync + 'static,
    {
        let mut attrs = self.attrs.write();
        attrs
            .entry((model.to_owned(), field.to_owned()))
            .or_default()
            .setter = Some(Arc::new(f));
    }

    /// Looks up the getter for `model.field`.
    pub fn get_getter(&self, model: &str, field: &str) -> Option<VirtualGetter> {
        self.attrs
            .read()
            .get(&(model.to_owned(), field.to_owned()))
            .and_then(|a| a.getter.clone())
    }

    /// Looks up the setter for `model.field`.
    pub fn get_setter(&self, model: &str, field: &str) -> Option<VirtualSetter> {
        self.attrs
            .read()
            .get(&(model.to_owned(), field.to_owned()))
            .and_then(|a| a.setter.clone())
    }
}
