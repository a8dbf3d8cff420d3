//! Facade crate for the Synapse reproduction workspace.
//!
//! Re-exports every production subsystem so the `examples/` and `tests/`
//! directories at the repository root can exercise the whole stack through
//! one dependency. Library users should depend on the individual crates
//! (`synapse-core`, `synapse-orm`, …) instead.
//!
//! The fault plane is not among them: `synapse-faults` is test
//! infrastructure, a dev-dependency that tests and examples import as
//! `synapse_faults`, so this crate's own build compiles no fault hook.

pub use synapse_apps as apps;
pub use synapse_broker as broker;
pub use synapse_core as core;
pub use synapse_db as db;
pub use synapse_model as model;
pub use synapse_mvc as mvc;
pub use synapse_orm as orm;
pub use synapse_versionstore as versionstore;
