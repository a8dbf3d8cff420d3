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

/// One model's virtual attributes, by field.
#[derive(Clone, Default)]
pub struct ModelVirtuals {
    attrs: HashMap<String, VirtualAttr>,
}

impl ModelVirtuals {
    /// The getter registered for `field`.
    pub fn getter(&self, field: &str) -> Option<&VirtualGetter> {
        self.attrs.get(field)?.getter.as_ref()
    }

    /// The setter registered for `field`.
    pub fn setter(&self, field: &str) -> Option<&VirtualSetter> {
        self.attrs.get(field)?.setter.as_ref()
    }
}

/// Per-model registry of virtual attributes.
#[derive(Default)]
pub struct VirtualRegistry {
    /// A model's attributes are handed out by pointer, so no lock is held
    /// while a getter or setter runs (a setter may write through the ORM).
    models: RwLock<HashMap<String, Arc<ModelVirtuals>>>,
}

impl VirtualRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&self, model: &str, field: &str, set: impl FnOnce(&mut VirtualAttr)) {
        let mut models = self.models.write();
        let virtuals = Arc::make_mut(models.entry(model.to_owned()).or_default());
        set(virtuals.attrs.entry(field.to_owned()).or_default());
    }

    /// Registers a getter for `model.field`.
    pub fn getter<F>(&self, model: &str, field: &str, f: F)
    where
        F: Fn(&Orm, &Record) -> Value + Send + Sync + 'static,
    {
        self.register(model, field, |attr| attr.getter = Some(Arc::new(f)));
    }

    /// Registers a setter for `model.field`.
    pub fn setter<F>(&self, model: &str, field: &str, f: F)
    where
        F: Fn(&Orm, &mut Record, Value) -> Result<(), OrmError> + Send + Sync + 'static,
    {
        self.register(model, field, |attr| attr.setter = Some(Arc::new(f)));
    }

    /// The virtual attributes of `model`, `None` when it has none: the one
    /// lookup a record costs, whatever its field count.
    pub fn model(&self, model: &str) -> Option<Arc<ModelVirtuals>> {
        self.models.read().get(model).cloned()
    }
}
