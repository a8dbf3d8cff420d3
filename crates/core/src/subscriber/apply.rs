//! Applying one operation: version admission, then the attributes parsed
//! into each subscription's row and the upsert through the local ORM.

use super::path::Kind;
use super::Subscriber;
use crate::api::Subscription;
use crate::context;
use crate::deps::{mesh_object, DepName};
use crate::message::{Envelope, OpRef};
use crate::semantics::DeliveryMode;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use synapse_db::DbError;
use synapse_model::{Record, Value};
use synapse_orm::{CallbackPoint, ModelHooks, Orm, OrmError};
use synapse_versionstore::{AdmitRule, ObjectVersion, Verdict};

impl Subscriber {
    /// Applies one operation through the local ORM, unless version
    /// admission discards it: a live write that is stale (counted in
    /// `ops_stale`), or a chunk copy that the live stream or an earlier
    /// bootstrap attempt already matched or beat (`copies_reconciled`).
    /// Nothing of its attributes is parsed before it is known to apply.
    pub(super) fn apply_op(
        &self,
        env: &Envelope,
        app: &str,
        op: OpRef<'_>,
        kind: Kind,
        mode: DeliveryMode,
    ) -> Result<(), OrmError> {
        let matching: Vec<Arc<Subscription>> = {
            let subs = self.subscriptions.read();
            subs.iter()
                .filter(|s| s.from == app && op.has_type(&s.model))
                .cloned()
                .collect()
        };
        if matching.is_empty() {
            return Ok(());
        }
        // Freshness: update objects only to their latest version (§4.2),
        // discarding out-of-order intermediate updates. Weak mode depends
        // on this for correctness; causal and global modes record versions
        // too so that bootstrap's chunked copy — which reconciles against
        // the live stream by version comparison — can never regress a row
        // a live message already moved past the chunk's snapshot. In the
        // ordered modes the dependency wait already serializes live
        // applies, so the check only ever discards a copy/redelivery that
        // lost the race.
        //
        // The version this operation carries and the object identity it
        // is judged under. A multi-writer write (or copy, which carries the
        // stamp of the content it copies) is classified by its LWW stamp
        // under the object's writer-independent mesh name, so every
        // writer's stamps of the object meet there. Everything else
        // carries the scalar of its object dependency, judged under the
        // object's own name.
        let mesh = matching
            .iter()
            .any(|s| s.bidirectional)
            .then(|| mesh_object(op.model(), op.id()))
            .and_then(|name| Some((name.identity(), env.stamp(self.dep_space.key(&name))?)));
        let (object, carried) = match mesh {
            Some((object, stamp)) => (object, Some(ObjectVersion::Mesh(stamp))),
            None => {
                let object = DepName::object(app, op.model(), op.id()).identity();
                let key = object % self.dep_space.cardinality();
                let carried = env.dependency(key);
                let version = match mode {
                    DeliveryMode::Weak => Some(carried.unwrap_or(0)),
                    // Ordered modes only check when the message actually
                    // carries the object's dependency (a mismatched dep
                    // space on the publisher must not silently drop writes).
                    DeliveryMode::Causal | DeliveryMode::Global => carried,
                };
                (object, version.map(ObjectVersion::Scalar))
            }
        };
        let (rule, applied, discarded) = match kind {
            Kind::Copy => (
                AdmitRule::Copy,
                &self.counters.copies_applied,
                &self.counters.copies_reconciled,
            ),
            _ => (
                AdmitRule::Live,
                &self.counters.ops_applied,
                &self.counters.ops_stale,
            ),
        };
        let write = || {
            for sub in &matching {
                self.apply_subscription(sub, op)?;
            }
            applied.fetch_add(1, Ordering::Relaxed);
            Ok(())
        };
        // A dead store is transient (revival or bootstrap heals it);
        // surface it as the transient db error class.
        let dead = |_| OrmError::Db(DbError::Unavailable);
        // Reserve the object for the verdict *and* the ORM writes. Without
        // it, a copier thread and a worker (or a thief and the home worker)
        // can interleave check/apply so that the thread carrying the
        // *older* version writes the row last: both pass the check before
        // either applies. The reservation serializes exactly the racing
        // pair; the version counts as stored only at `commit`, so a write
        // that fails below leaves nothing behind and its redelivery is
        // judged afresh.
        let admission = self.store.reserve(object);
        let Some(carried) = &carried else {
            return write();
        };
        match admission.classify(carried, rule).map_err(dead)? {
            // A multi-writer apply runs its writes marked, so that a
            // callback's re-entrant write of the object, committed under a
            // greater stamp before the row write, supersedes that write.
            Verdict::Fresh => match *carried {
                ObjectVersion::Mesh(stamp) => context::with_mesh_apply(object, stamp, write)?,
                ObjectVersion::Scalar(_) => write()?,
            },
            Verdict::Stale => {
                discarded.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
        }
        admission.commit(carried).map_err(dead)
    }

    fn apply_subscription(&self, sub: &Subscription, op: OpRef<'_>) -> Result<(), OrmError> {
        let (operation, id) = (op.kind(), op.id());
        if !sub.observer && operation == "destroy" {
            if let Some(pre) = self.orm.find(&sub.model, id)? {
                self.orm.destroy_record(pre)?;
            }
            return Ok(());
        }
        let hooks = self.orm.hooks(&sub.model);
        let (plain, set_after) = project(sub, hooks.as_deref(), op)?;

        let mut record = if sub.observer {
            // Observers run callbacks without persisting (§3.1).
            let mut record = Record::with_attrs(sub.model.clone(), id, plain);
            let (before, after) = callback_points(operation);
            self.orm
                .run_model_callbacks(&sub.model, before, &mut record)?;
            self.orm
                .run_model_callbacks(&sub.model, after, &mut record)?;
            if operation == "destroy" {
                // As on the persisted path, a destroy feeds no setter.
                return Ok(());
            }
            record
        } else {
            // Create and update share upsert semantics: redeliveries and
            // weak-mode reordering make either arrive first.
            let attrs = Value::Map(plain);
            let written = if self.orm.exists(&sub.model, id)? {
                self.orm.update(&sub.model, id, attrs)
            } else {
                self.orm.create_with_id(&sub.model, id, attrs)
            };
            match written {
                // The row came or went between the check and the write: a
                // racing destroy, or a create from a second publisher of
                // this local model, whose object identity differs, so the
                // reservation does not serialize the two. The write took
                // the attributes; fail transiently, and the redelivery
                // parses them again and takes the other path.
                Err(
                    OrmError::Db(DbError::DuplicateKey { .. }) | OrmError::RecordNotFound { .. },
                ) => Err(OrmError::Db(DbError::Unavailable)),
                other => other,
            }?
        };
        // Setters consume their values once every callback has run, on the
        // persisted record or, for an observer, the in-memory one.
        for (setter, value) in set_after {
            setter(&self.orm, &mut record, value)?;
        }
        Ok(())
    }
}

/// A virtual setter, as [`ModelHooks::setter`] hands it out.
type Setter = Arc<dyn Fn(&Orm, &mut Record, Value) -> Result<(), OrmError> + Send + Sync>;

/// Setters and the values they are handed once the row is written.
type SetAfter<'h> = Vec<(&'h Setter, Value)>;

/// Parses an operation's attributes into `sub`'s projection of them: the
/// row, whose subscribed fields keep their key or take their local name,
/// and the values that go to a virtual setter instead, in the
/// subscription's field order. Every other attribute is checked and
/// skipped, building nothing. Of a repeated key the last value stands.
fn project<'h>(
    sub: &Subscription,
    hooks: Option<&'h ModelHooks>,
    op: OpRef<'_>,
) -> Result<(BTreeMap<String, Value>, SetAfter<'h>), OrmError> {
    let mut row = BTreeMap::new();
    // Renamed and setter fields, by their place in `sub.fields`; they
    // land after the parse, a renamed one over a plain field of its name.
    let mut moved: Vec<(usize, Option<&'h Setter>, Value)> = Vec::new();
    op.attributes(|r, key| {
        let Some(n) = sub.fields.iter().position(|f| *f == key) else {
            return r.skip();
        };
        let local = sub.local_field(&sub.fields[n]);
        let setter = hooks.and_then(|h| h.setter(local));
        if setter.is_none() && local == key {
            row.insert(key.into_owned(), r.value()?);
            return Ok(());
        }
        let value = r.value()?;
        match moved.iter_mut().find(|(m, ..)| *m == n) {
            Some(slot) => slot.2 = value,
            None => moved.push((n, setter, value)),
        }
        Ok(())
    })?;
    moved.sort_unstable_by_key(|(n, ..)| *n);
    let mut set_after = Vec::new();
    for (n, setter, value) in moved {
        match setter {
            Some(setter) => set_after.push((setter, value)),
            None => {
                row.insert(sub.local_field(&sub.fields[n]).to_owned(), value);
            }
        }
    }
    Ok((row, set_after))
}

fn callback_points(operation: &str) -> (CallbackPoint, CallbackPoint) {
    match operation {
        "create" => (CallbackPoint::BeforeCreate, CallbackPoint::AfterCreate),
        "destroy" => (CallbackPoint::BeforeDestroy, CallbackPoint::AfterDestroy),
        _ => (CallbackPoint::BeforeUpdate, CallbackPoint::AfterUpdate),
    }
}
