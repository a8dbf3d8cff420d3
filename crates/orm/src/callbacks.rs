//! Active-model callbacks.
//!
//! MVC frameworks let developers hook `before`/`after` callbacks on every
//! persistence operation (§2: "active models"). Synapse re-purposes them on
//! subscribers for application-specific processing of replicated updates
//! (§3.1) — e.g. a mailer's `after_create`, or an observer translating a
//! replicated `Friendship` row into graph edges (Example 2).

use crate::error::OrmError;
use crate::orm::Orm;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use synapse_model::Record;

/// When a callback fires relative to the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallbackPoint {
    /// Before the object is persisted.
    BeforeCreate,
    /// After the object is persisted.
    AfterCreate,
    /// Before an update is applied.
    BeforeUpdate,
    /// After an update is applied.
    AfterUpdate,
    /// Before an object is destroyed.
    BeforeDestroy,
    /// After an object is destroyed.
    AfterDestroy,
}

/// Context passed to callbacks.
pub struct CallbackCtx<'a> {
    /// The ORM the operation runs on, for further reads/writes (e.g. the
    /// Example 2 observer adds graph edges from its callback).
    pub orm: &'a Orm,
    /// `true` while the Synapse subscriber is bootstrapping (§4.4) — the
    /// paper's `Synapse.bootstrap?` predicate, used to suppress effects
    /// like welcome emails during catch-up (Fig. 2).
    pub bootstrap: bool,
}

/// A registered callback body.
pub type Callback =
    Arc<dyn for<'a> Fn(&mut CallbackCtx<'a>, &mut Record) -> Result<(), OrmError> + Send + Sync>;

/// Per-model callback registry.
#[derive(Default)]
pub struct CallbackRegistry {
    hooks: RwLock<HashMap<(String, CallbackPoint), Vec<Callback>>>,
}

impl CallbackRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `f` to run at `point` for `model`.
    pub fn register<F>(&self, model: &str, point: CallbackPoint, f: F)
    where
        F: for<'a> Fn(&mut CallbackCtx<'a>, &mut Record) -> Result<(), OrmError>
            + Send
            + Sync
            + 'static,
    {
        self.hooks
            .write()
            .entry((model.to_owned(), point))
            .or_default()
            .push(Arc::new(f));
    }

    /// Runs all callbacks for `(model, point)` in registration order.
    pub fn run(
        &self,
        model: &str,
        point: CallbackPoint,
        ctx: &mut CallbackCtx<'_>,
        record: &mut Record,
    ) -> Result<(), OrmError> {
        let hooks: Vec<Callback> = {
            let map = self.hooks.read();
            match map.get(&(model.to_owned(), point)) {
                Some(v) => v.clone(),
                None => return Ok(()),
            }
        };
        for hook in hooks {
            hook(ctx, record)?;
        }
        Ok(())
    }
}
