//! Error type shared by all engines.

use std::fmt;

/// Errors returned by database engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// The referenced table/collection/label does not exist.
    NoSuchTable(String),
    /// The referenced row/document/node does not exist.
    NotFound {
        /// Table name.
        table: String,
        /// Stringified key.
        key: String,
    },
    /// A row with the same primary key already exists.
    DuplicateKey {
        /// Table name.
        table: String,
        /// Stringified key.
        key: String,
    },
    /// The value violates the table schema.
    SchemaViolation(String),
    /// The engine does not support the requested operation.
    Unsupported(&'static str),
    /// The engine was killed by failure injection.
    Unavailable,
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::NoSuchTable(t) => write!(f, "no such table {t}"),
            DbError::NotFound { table, key } => write!(f, "not found: {table}[{key}]"),
            DbError::DuplicateKey { table, key } => {
                write!(f, "duplicate key: {table}[{key}]")
            }
            DbError::SchemaViolation(m) => write!(f, "schema violation: {m}"),
            DbError::Unsupported(m) => write!(f, "unsupported operation: {m}"),
            DbError::Unavailable => write!(f, "engine unavailable"),
        }
    }
}

impl std::error::Error for DbError {}
