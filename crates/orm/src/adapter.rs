//! The adapter trait: generic CRUD over a concrete engine.
//!
//! "Although different ORMs may offer different APIs, at a minimum they
//! must provide a way to create, update, and delete the objects in the DB"
//! (§2). The default method bodies implement exactly that minimum against
//! the [`Engine`] query AST — including the read-back protocol for engines
//! without `RETURNING *` (§4.1) — so concrete adapters only override where
//! their vendor genuinely differs. This is why Table 3's per-DB line counts
//! are small, and the reproduction preserves that property.

use crate::error::OrmError;
use synapse_db::query::OrderBy;
use synapse_db::{DbError, Engine, Filter, Query, QueryResult, Row};
use synapse_model::{Id, ModelSchema, Record};

/// A vendor adapter. See the module docs.
pub trait Adapter: Send + Sync {
    /// Name of the ORM this adapter mirrors (Table 3), e.g. `ActiveRecord`.
    fn orm_name(&self) -> &'static str;

    /// The engine this adapter drives.
    fn engine(&self) -> &dyn Engine;

    /// Table/collection/label name for a model. Default: Rails-style
    /// lowercased plural (`User` → `users`).
    fn table_for(&self, model: &str) -> String {
        let mut t = String::with_capacity(model.len() + 1);
        t.extend(model.chars().flat_map(char::to_lowercase));
        t.push('s');
        t
    }

    /// Creates the model's backing table and any engine-specific schema
    /// artifacts (columns, indexes, analyzers).
    fn define_model(&self, schema: &ModelSchema) -> Result<(), OrmError> {
        self.engine().execute(Query::CreateTable {
            table: self.table_for(&schema.name),
        })?;
        Ok(())
    }

    /// Translates attribute values into the engine's storable row form,
    /// in place. Default: verbatim.
    fn encode_attrs(&self, _schema: &ModelSchema, attrs: Row) -> Row {
        attrs
    }

    /// Translates a stored row back into a record. Default: verbatim.
    fn decode_row(&self, schema: &ModelSchema, id: Id, row: Row) -> Record {
        let mut record = Record::with_attrs(schema.name.clone(), id, row);
        record.types.extend(schema.ancestors.iter().cloned());
        record
    }

    /// Inserts object `id` with attributes `attrs`, which the engine
    /// keeps, returning the stored image.
    fn insert(&self, schema: &ModelSchema, id: Id, attrs: Row) -> Result<Record, OrmError> {
        let res = self.engine().execute(Query::Insert {
            table: self.table_for(&schema.name),
            id,
            row: self.encode_attrs(schema, attrs),
        })?;
        self.written_image(schema, id, res)
    }

    /// Moves `changes` into one object's stored attributes, returning the
    /// post-image.
    fn update(&self, schema: &ModelSchema, id: Id, changes: Row) -> Result<Record, OrmError> {
        let res = self.engine().execute(Query::Update {
            table: self.table_for(&schema.name),
            filter: Filter::ById(id),
            set: self.encode_attrs(schema, changes),
            unset: Vec::new(),
        })?;
        if matches!(&res, QueryResult::Rows(r) if r.is_empty())
            || matches!(&res, QueryResult::AffectedIds(ids) if ids.is_empty())
        {
            return Err(OrmError::RecordNotFound {
                model: schema.name.clone(),
                id: id.to_string(),
            });
        }
        self.written_image(schema, id, res)
    }

    /// Deletes the object `pre` is the stored image of, returning its final
    /// image. Engines without RETURNING cannot echo the deleted row, and
    /// reading back after deletion is impossible — §4.1's "additional
    /// query" is issued before the write for deletes, and it is the read
    /// that found `pre`.
    fn delete(&self, schema: &ModelSchema, pre: &Record) -> Result<Record, OrmError> {
        let res = self.engine().execute(Query::Delete {
            table: self.table_for(&schema.name),
            filter: Filter::ById(pre.id),
        })?;
        match res {
            QueryResult::Rows(mut rows) if !rows.is_empty() => {
                let (rid, row) = rows.swap_remove(0);
                Ok(self.decode_row(schema, rid, row))
            }
            QueryResult::Rows(_) | QueryResult::AffectedIds(_) => Ok(pre.clone()),
            _ => Err(OrmError::Db(DbError::Unsupported("delete result shape"))),
        }
    }

    /// Fetches one object by primary key.
    fn find(&self, schema: &ModelSchema, id: Id) -> Result<Option<Record>, OrmError> {
        let res = read_or_empty(self.engine().execute(Query::Select {
            table: self.table_for(&schema.name),
            filter: Filter::ById(id),
            order: None,
            limit: Some(1),
        }))?;
        Ok(res
            .into_rows()?
            .into_iter()
            .next()
            .map(|(rid, row)| self.decode_row(schema, rid, row)))
    }

    /// Fetches objects matching a filter.
    fn select(
        &self,
        schema: &ModelSchema,
        filter: Filter,
        order: Option<OrderBy>,
        limit: Option<usize>,
    ) -> Result<Vec<Record>, OrmError> {
        let res = read_or_empty(self.engine().execute(Query::Select {
            table: self.table_for(&schema.name),
            filter,
            order,
            limit,
        }))?;
        Ok(res
            .into_rows()?
            .into_iter()
            .map(|(rid, row)| self.decode_row(schema, rid, row))
            .collect())
    }

    /// Counts objects matching a filter.
    fn count(&self, schema: &ModelSchema, filter: Filter) -> Result<u64, OrmError> {
        match self.engine().execute(Query::Count {
            table: self.table_for(&schema.name),
            filter,
        }) {
            Ok(res) => Ok(res.into_count()?),
            Err(DbError::NoSuchTable(_)) => Ok(0),
            Err(e) => Err(e.into()),
        }
    }

    /// Resolves a write result into the written record, reading the row
    /// back when the engine lacks `RETURNING *` (§4.1).
    fn written_image(
        &self,
        schema: &ModelSchema,
        id: Id,
        res: QueryResult,
    ) -> Result<Record, OrmError> {
        match res {
            QueryResult::Rows(mut rows) if !rows.is_empty() => {
                let (rid, row) = rows.swap_remove(0);
                Ok(self.decode_row(schema, rid, row))
            }
            QueryResult::AffectedIds(_) | QueryResult::Rows(_) => self
                .find(schema, id)?
                .ok_or_else(|| OrmError::RecordNotFound {
                    model: schema.name.clone(),
                    id: id.to_string(),
                }),
            _ => Err(OrmError::Db(DbError::Unsupported("write result shape"))),
        }
    }
}

/// Document-style stores return empty results for unknown collections, but
/// the relational engine errors; normalize reads of a missing table to an
/// empty result so `find`/`select` behave uniformly before any write.
fn read_or_empty(res: Result<QueryResult, DbError>) -> Result<QueryResult, OrmError> {
    match res {
        Ok(r) => Ok(r),
        Err(DbError::NoSuchTable(_)) => Ok(QueryResult::Rows(Vec::new())),
        Err(e) => Err(e.into()),
    }
}
