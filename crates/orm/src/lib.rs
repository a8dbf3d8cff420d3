//! Dynamic ORM layer with per-engine adapters and query interception.
//!
//! Synapse "leverages ORMs to abstract most DB specific logic" (§4.1): the
//! ORM is where objects are created, updated, destroyed, and reflected upon,
//! and the layer between the ORM and the DB driver is where Synapse's query
//! interceptor sits. This crate provides:
//!
//! * [`Orm`] — the object interface: CRUD on dynamic [`Record`]s, model
//!   schemas and associations;
//! * [`ModelHooks`] — one table per model of active-model callbacks
//!   (`before`/`after` × `create`/`update`/`destroy`, registered with
//!   [`Orm::on`]) and virtual-attribute getters and setters
//!   ([`Orm::virtual_getter`], [`Orm::virtual_setter`]);
//! * [`adapters`] — one adapter per ORM of Table 3 (ActiveRecord, Mongoid,
//!   Cequel, Stretcher, Neo4j, NoBrainer), each translating generic CRUD to
//!   its engine's query AST and handling vendor quirks: `RETURNING`-less
//!   engines read written rows back (§4.1), SQL flattens array attributes to
//!   text (§3.3 Example 3), search engines configure analyzers, the graph
//!   adapter exposes edges;
//! * [`QueryObserver`] — the interception surface: every read of records
//!   and every write (with its pre-declared intent, so write dependencies
//!   can be locked *before* the query runs, §4.2) flows through the ORM's
//!   one interceptor, installed with [`Orm::observe`]. Synapse's publisher
//!   is exactly that interceptor.
//!
//! A write runs its hooks in this order: before-callbacks, the schema
//! check, the interceptor's `around_write` around the engine write, then
//! after-callbacks. Callbacks run with the replication flag cleared
//! ([`flags`]); a subscriber runs virtual setters after the whole persisted
//! write.
//!
//! [`Record`]: synapse_model::Record

pub mod adapter;
pub mod adapters;
pub mod error;
pub mod flags;
mod hooks;
pub mod observer;
pub mod orm;

pub use adapter::Adapter;
pub use error::OrmError;
pub use flags::{is_replicating, with_replication_flag, without_replication_flag};
pub use hooks::{CallbackCtx, CallbackPoint, ModelHooks};
pub use observer::{QueryObserver, WriteExec, WriteIntent, WriteKind};
pub use orm::{Changes, Orm};
