//! The pluggable conflict-resolution plane for multi-writer replication.
//!
//! Version vectors make conflict *detection* mechanical: the store
//! classifies every incoming write as dominating (apply), dominated
//! (discard), or concurrent. What to do with a concurrent pair is policy,
//! and this module decouples it the way the replikativ design does —
//! detection stays in the version store, resolution is a per-model
//! [`ConflictResolver`] registered through `SynapseConfig`.
//!
//! # Resolver semantics per delivery mode
//!
//! Resolution always runs under the object's version-store reservation,
//! but *what the resolver can assume about the local row* depends on the
//! delivery mode:
//!
//! * **weak** — resolution happens at apply time with no dependency
//!   barrier: the local row may not yet reflect writes the incoming one
//!   causally follows. Only commutative policies (LWW, CRDT-style merges)
//!   are safe here.
//! * **causal / global** — the apply runs inside the dep-wait barrier:
//!   every write the incoming message causally depends on (its own
//!   writer's history *and* the foreign components it advertises) has
//!   been applied locally before the resolver sees the pair, so the
//!   local row is a causally-complete peer and the conflict is a true
//!   concurrent fork, never a reordering artifact.
//!
//! # Convergence
//!
//! The default [`LwwResolver`] honors the store's verdict, which orders
//! concurrent versions by LWW stamp (total history length, then writer
//! id). Stamps are unique per version and only ever increase along a
//! replica's admission sequence, so every replica that sees the same set
//! of writes converges on the max-stamp version regardless of delivery
//! order. Merge callbacks must bring their own convergence: a merge
//! function that is commutative, associative, and idempotent (set union,
//! component-wise max, …) converges the same way — except, for now, across
//! a local write that moves its row down the merge's order: a peer that
//! had merged the greater value in keeps it against the smaller write
//! (DESIGN.md, *The resolver plane*).

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::sync::OnceLock;
use synapse_model::{Id, Value};
use synapse_versionstore::VersionVector;

/// Everything a resolver may inspect about one concurrent write pair.
#[derive(Debug)]
pub struct ConflictCtx<'a> {
    /// Local model name of the conflicted object.
    pub model: &'a str,
    /// Object primary key.
    pub id: Id,
    /// Incoming operation kind (`create`, `update`, or `destroy`).
    pub operation: &'a str,
    /// Incoming attributes, already mapped to local names — what the
    /// apply path would upsert if the incoming side wins.
    pub incoming: &'a BTreeMap<String, Value>,
    /// The local row's current attributes (`None` if the row does not
    /// exist locally).
    pub local: Option<&'a BTreeMap<String, Value>>,
    /// The incoming write's version vector.
    pub incoming_vector: &'a VersionVector,
    /// Writer id of the publishing application.
    pub incoming_writer: u64,
    /// The store's LWW verdict: whether the incoming version's stamp
    /// beats the stamp of the content currently held locally.
    pub lww_wins: bool,
}

/// A resolver's decision for one concurrent pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// Keep the local row; the incoming write's content is dropped (its
    /// history is still recorded in the stored vector).
    KeepLocal,
    /// Apply the incoming write as if it dominated.
    TakeIncoming,
    /// Upsert these merged attributes instead of either side.
    Merge(BTreeMap<String, Value>),
}

/// A per-model conflict-resolution policy. Implementations must be
/// deterministic functions of the context — both replicas of a two-writer
/// pair run the resolver independently and must reach the same state.
pub trait ConflictResolver: Send + Sync {
    /// Decides one concurrent pair.
    fn resolve(&self, ctx: &ConflictCtx<'_>) -> Resolution;

    /// Short policy name for telemetry and debug output.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// The default policy: last-writer-wins by version-vector stamp (history
/// length, then writer id) — the store's verdict, honored as-is.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LwwResolver;

impl ConflictResolver for LwwResolver {
    fn resolve(&self, ctx: &ConflictCtx<'_>) -> Resolution {
        if ctx.lww_wins {
            Resolution::TakeIncoming
        } else {
            Resolution::KeepLocal
        }
    }

    fn name(&self) -> &'static str {
        "lww"
    }
}

/// The merge-callback escape hatch: wraps a user closure as a resolver.
pub(crate) struct MergeFn {
    f: Arc<dyn Fn(&ConflictCtx<'_>) -> Resolution + Send + Sync>,
}

impl MergeFn {
    /// Wraps `f` as a [`ConflictResolver`].
    pub(crate) fn new(f: impl Fn(&ConflictCtx<'_>) -> Resolution + Send + Sync + 'static) -> Self {
        MergeFn { f: Arc::new(f) }
    }
}

impl ConflictResolver for MergeFn {
    fn resolve(&self, ctx: &ConflictCtx<'_>) -> Resolution {
        (self.f)(ctx)
    }

    fn name(&self) -> &'static str {
        "merge"
    }
}

impl fmt::Debug for MergeFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MergeFn").finish_non_exhaustive()
    }
}

fn default_resolver() -> &'static Arc<dyn ConflictResolver> {
    static LWW: OnceLock<Arc<dyn ConflictResolver>> = OnceLock::new();
    LWW.get_or_init(|| Arc::new(LwwResolver))
}

/// Per-model resolver registrations, carried by `SynapseConfig` and read
/// by the subscriber's apply path. Models without a registration resolve
/// last-writer-wins by version-vector stamp.
#[derive(Clone, Default)]
pub struct ResolverRegistry {
    by_model: HashMap<String, Arc<dyn ConflictResolver>>,
}

impl ResolverRegistry {
    /// Registers `resolver` for `model`, replacing any previous one.
    pub fn register(&mut self, model: impl Into<String>, resolver: Arc<dyn ConflictResolver>) {
        self.by_model.insert(model.into(), resolver);
    }

    /// The resolver for `model` (the LWW default when unregistered).
    pub(crate) fn get(&self, model: &str) -> &Arc<dyn ConflictResolver> {
        self.by_model
            .get(model)
            .unwrap_or_else(|| default_resolver())
    }
}

impl fmt::Debug for ResolverRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (model, resolver) in &self.by_model {
            map.entry(model, &resolver.name());
        }
        map.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(
        incoming: &'a BTreeMap<String, Value>,
        vector: &'a VersionVector,
        lww_wins: bool,
    ) -> ConflictCtx<'a> {
        ConflictCtx {
            model: "User",
            id: Id(1),
            operation: "update",
            incoming,
            local: None,
            incoming_vector: vector,
            incoming_writer: 9,
            lww_wins,
        }
    }

    #[test]
    fn lww_resolver_honors_the_store_verdict() {
        let attrs = BTreeMap::new();
        let vector = VersionVector::component(9, 1);
        assert_eq!(
            LwwResolver.resolve(&ctx(&attrs, &vector, true)),
            Resolution::TakeIncoming
        );
        assert_eq!(
            LwwResolver.resolve(&ctx(&attrs, &vector, false)),
            Resolution::KeepLocal
        );
    }

    #[test]
    fn registry_defaults_to_lww_and_honors_registrations() {
        let mut registry = ResolverRegistry::default();
        assert_eq!(registry.get("User").name(), "lww");

        registry.register(
            "User",
            Arc::new(MergeFn::new(|_| Resolution::Merge(BTreeMap::new()))),
        );
        assert_eq!(registry.get("User").name(), "merge");
        assert_eq!(registry.get("Post").name(), "lww");

        let attrs = BTreeMap::new();
        let vector = VersionVector::component(9, 1);
        assert_eq!(
            registry.get("User").resolve(&ctx(&attrs, &vector, false)),
            Resolution::Merge(BTreeMap::new())
        );
        let debug = format!("{registry:?}");
        assert!(debug.contains("User") && debug.contains("merge"), "{debug}");
    }
}
