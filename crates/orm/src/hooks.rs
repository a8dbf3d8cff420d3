//! The per-model hook table: active-model callbacks and virtual attributes.
//!
//! MVC frameworks let developers hook `before`/`after` callbacks on every
//! persistence operation (§2: "active models"). Synapse re-purposes them on
//! subscribers for application-specific processing of replicated updates
//! (§3.1) — e.g. a mailer's `after_create`, or an observer translating a
//! replicated `Friendship` row into graph edges (Example 2). Virtual
//! attributes (§3.1) are programmer-provided getters and setters for
//! attributes that are not in the DB schema: a publisher's getter publishes
//! a computed field, a subscriber's setter consumes one — Example 3's Sub3b
//! explodes MongoDB's array-typed `interests` into rows of a separate SQL
//! table.
//!
//! Each model has one [`ModelHooks`] table holding all three. The ORM keeps
//! the tables by pointer and copies one on write, so a write looks its
//! model's table up once and no lock is held while hook code runs (a hook
//! may itself write through the ORM).

use crate::error::OrmError;
use crate::orm::Orm;
use std::collections::HashMap;
use std::sync::Arc;
use synapse_model::{Record, Value};

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

type Callback =
    Arc<dyn for<'a> Fn(&mut CallbackCtx<'a>, &mut Record) -> Result<(), OrmError> + Send + Sync>;
/// Computes the published value of a virtual attribute from the record.
type Getter = Arc<dyn Fn(&Orm, &Record) -> Value + Send + Sync>;
/// Consumes an incoming value on the subscriber (may perform its own ORM
/// writes, like Sub3b's `Interest.add_or_remove`).
type Setter = Arc<dyn Fn(&Orm, &mut Record, Value) -> Result<(), OrmError> + Send + Sync>;

/// One model's hooks: callbacks per [`CallbackPoint`] in registration
/// order, and virtual-attribute getters and setters by field.
#[derive(Clone, Default)]
pub struct ModelHooks {
    pub(crate) callbacks: [Vec<Callback>; 6],
    getters: HashMap<String, Getter>,
    setters: HashMap<String, Setter>,
}

impl ModelHooks {
    /// The virtual getter registered for `field`.
    pub fn getter(&self, field: &str) -> Option<&Getter> {
        self.getters.get(field)
    }

    /// The virtual setter registered for `field`.
    pub fn setter(&self, field: &str) -> Option<&Setter> {
        self.setters.get(field)
    }
}

impl Orm {
    /// Registers an active-model callback.
    pub fn on<F>(&self, model: &str, point: CallbackPoint, f: F)
    where
        F: for<'a> Fn(&mut CallbackCtx<'a>, &mut Record) -> Result<(), OrmError>
            + Send
            + Sync
            + 'static,
    {
        self.edit_hooks(model, |h| h.callbacks[point as usize].push(Arc::new(f)));
    }

    /// Registers the virtual getter of `model.field`.
    pub fn virtual_getter<F>(&self, model: &str, field: &str, f: F)
    where
        F: Fn(&Orm, &Record) -> Value + Send + Sync + 'static,
    {
        self.edit_hooks(model, |h| {
            h.getters.insert(field.to_owned(), Arc::new(f));
        });
    }

    /// Registers the virtual setter of `model.field`.
    pub fn virtual_setter<F>(&self, model: &str, field: &str, f: F)
    where
        F: Fn(&Orm, &mut Record, Value) -> Result<(), OrmError> + Send + Sync + 'static,
    {
        self.edit_hooks(model, |h| {
            h.setters.insert(field.to_owned(), Arc::new(f));
        });
    }

    fn edit_hooks(&self, model: &str, edit: impl FnOnce(&mut ModelHooks)) {
        let mut tables = self.hooks.write();
        edit(Arc::make_mut(tables.entry(model.to_owned()).or_default()));
    }

    /// The hooks of `model`, `None` when it has none: the one lookup a
    /// write or a marshalled record costs, whatever its field count.
    pub fn hooks(&self, model: &str) -> Option<Arc<ModelHooks>> {
        self.hooks.read().get(model).cloned()
    }

    /// Runs a model's callbacks directly, without persistence. Used by
    /// Synapse for *observer* models (§3.1), which react to replicated
    /// updates through callbacks but never store the data.
    pub fn run_model_callbacks(
        &self,
        model: &str,
        point: CallbackPoint,
        record: &mut Record,
    ) -> Result<(), OrmError> {
        self.run_callbacks(self.hooks(model).as_deref(), point, record)
    }

    /// Runs the callbacks of one `point` of `hooks` in registration order.
    pub(crate) fn run_callbacks(
        &self,
        hooks: Option<&ModelHooks>,
        point: CallbackPoint,
        record: &mut Record,
    ) -> Result<(), OrmError> {
        let callbacks = hooks.map_or(&[][..], |h| &h.callbacks[point as usize]);
        if callbacks.is_empty() {
            return Ok(());
        }
        let mut ctx = CallbackCtx {
            orm: self,
            bootstrap: self.is_bootstrap(),
        };
        // Callbacks are application code even when triggered by a
        // replicated apply: run them with the replication flag cleared so
        // e.g. a decorator's callback publishes its decorations normally.
        crate::flags::without_replication_flag(|| {
            callbacks.iter().try_for_each(|f| f(&mut ctx, record))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::MongoidAdapter;
    use parking_lot::Mutex;
    use synapse_db::LatencyModel;
    use synapse_model::{vmap, ModelSchema};

    /// One model's callback, getter and setter all fire, whatever order
    /// they were registered in — each registration copies a table a reader
    /// still holds, and must keep what the earlier ones added.
    #[test]
    fn every_hook_fires_whatever_the_registration_order() {
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            let orm = Orm::new(
                "app",
                Arc::new(MongoidAdapter::new("mongodb", LatencyModel::off())),
            );
            orm.define_model(ModelSchema::open("User")).unwrap();
            let fired = Arc::new(Mutex::new(Vec::new()));
            let mut held = Vec::new();
            for hook in order {
                let log = fired.clone();
                match hook {
                    0 => orm.on("User", CallbackPoint::AfterCreate, move |_, _| {
                        log.lock().push("callback");
                        Ok(())
                    }),
                    1 => orm.virtual_getter("User", "shout", move |_, r| {
                        log.lock().push("getter");
                        r.get("name").clone()
                    }),
                    _ => orm.virtual_setter("User", "tag", move |_, r, v| {
                        log.lock().push("setter");
                        r.set("tag", v);
                        Ok(())
                    }),
                }
                held.extend(orm.hooks("User"));
            }
            let mut user = orm.create("User", vmap! { "name" => "a" }).unwrap();
            let hooks = orm.hooks("User").unwrap();
            assert_eq!(hooks.getter("shout").unwrap()(&orm, &user), "a".into());
            hooks.setter("tag").unwrap()(&orm, &mut user, "t".into()).unwrap();
            assert_eq!(*fired.lock(), ["callback", "getter", "setter"], "{order:?}");
            assert_eq!(
                held[0].getter("shout").is_some(),
                order[0] == 1,
                "a held table is a snapshot"
            );
        }
    }
}
