//! Dependency names and the fixed-size effective dependency space.
//!
//! A dependency names one object version-tracked by the version store. The
//! paper writes them as `app/model/id/…` paths (Fig. 6(b):
//! `"pub3/users/id/100"`), then hashes them "with a stable hash function at
//! the publisher" into a fixed space so version stores consume O(1) memory.
//! A hash collision merely serializes two unrelated objects — and "using a
//! 1-entry dependency hash space is equivalent to using global ordering"
//! (§4.2), a property the tests pin down.
//!
//! Names are interned: a [`DepName`] holds an `Arc<str>` plus its stable
//! 64-bit FNV-1a pre-hash, computed once at construction. Cloning a name on
//! the publisher hot path is a pointer bump, equality is a hash compare
//! (falling back to the strings only on a 64-bit collision), and
//! [`DepSpace::key`] is a single modulo over the cached pre-hash. One
//! [`DepInterner`] lives per node so repeated writes to the same objects
//! reuse the same allocations.
//!
//! Only dependency *counters* live in the reduced space. What must never
//! collide — an object's admission state — is keyed by the name's full
//! pre-hash, [`DepName::identity`].

use parking_lot::RwLock;
use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use synapse_model::Id;
use synapse_versionstore::DepKey;

/// Stable FNV-1a over the name bytes — the paper's "stable hash function
/// at the publisher". The full 64-bit value is cached in the name;
/// [`DepSpace::key`] reduces it modulo the space cardinality, which yields
/// byte-for-byte the same keys as hashing at lookup time.
fn fnv1a(s: &str) -> u64 {
    fnv1a_on(0xcbf29ce484222325, s)
}

/// FNV-1a of `s` continued from the hash `h` of the bytes before it.
fn fnv1a_on(h: u64, s: &str) -> u64 {
    s.bytes()
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3))
}

/// The stable writer id of an application — the tie-breaking half of its
/// writes' LWW stamps. Derived from the app name with the same FNV-1a
/// hash as dependency names, so every node computes identical ids without
/// coordination.
pub fn writer_id(app: &str) -> u64 {
    fnv1a(app)
}

/// The writer-independent namespace the LWW stamps of bidirectional
/// (multi-writer) models live under. Ordinary dependency names are
/// namespaced by the *publishing* app (`app/model/id/N`), which is exactly
/// right for single-writer replication but would split a multi-writer
/// object's stamps across one key per writer — concurrent writes would
/// never meet for comparison. Mesh names (`~mesh/model/id/N`) give every
/// writer of an object the *same* key; the `~` prefix keeps them out of
/// any real app's namespace (app names do not start with `~`).
const MESH_NAMESPACE: &str = "~mesh";

/// The mesh dependency name of one multi-writer object:
/// `~mesh/model/id/<id>` — identical on every node that publishes or
/// subscribes to the model bidirectionally.
pub fn mesh_object(model: &str, id: Id) -> DepName {
    DepName::object(MESH_NAMESPACE, model, id)
}

/// A human-readable dependency name with its cached stable pre-hash.
#[derive(Debug, Clone)]
pub struct DepName {
    name: Arc<str>,
    hash: u64,
}

impl DepName {
    fn from_str_uncached(name: &str) -> Self {
        DepName {
            hash: fnv1a(name),
            name: Arc::from(name),
        }
    }

    /// The dependency of one object: `app/model/id/<id>`.
    pub fn object(app: &str, model: &str, id: Id) -> Self {
        with_object_name(app, model, id, DepName::from_str_uncached)
    }

    /// The single global dependency used to enforce global ordering.
    pub(crate) fn global(app: &str) -> Self {
        NAME_SCRATCH.with(|scratch| {
            let mut buf = scratch.borrow_mut();
            buf.clear();
            buf.push_str(app);
            buf.push_str("/__global__");
            DepName::from_str_uncached(&buf)
        })
    }

    /// An explicitly named dependency (`add_read_deps`/`add_write_deps`).
    pub fn named(name: &str) -> Self {
        DepName::from_str_uncached(name)
    }

    /// The name path, e.g. `pub3/user/id/100`.
    pub fn as_str(&self) -> &str {
        &self.name
    }

    /// The name's full stable 64-bit hash, never reduced into a
    /// [`DepSpace`]: the identity an object's admission state is keyed by
    /// in the version store.
    pub fn identity(&self) -> u64 {
        self.hash
    }
}

impl PartialEq for DepName {
    fn eq(&self, other: &Self) -> bool {
        // Hash inequality decides almost every comparison without touching
        // the bytes; the string check keeps semantics exact under a 64-bit
        // collision.
        self.hash == other.hash && (Arc::ptr_eq(&self.name, &other.name) || self.name == other.name)
    }
}

impl Eq for DepName {}

impl Hash for DepName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for DepName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DepName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.name.cmp(&other.name)
    }
}

impl fmt::Display for DepName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

thread_local! {
    static NAME_SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// [`DepName::object`]'s identity, without building the name.
pub(crate) fn object_identity(app: &str, model: &str, id: Id) -> u64 {
    with_object_name(app, model, id, fnv1a)
}

/// [`DepName::global`]'s identity, without building the name.
pub(crate) fn global_identity(app: &str) -> u64 {
    fnv1a_on(fnv1a(app), "/__global__")
}

/// Calls `f` with `app/model/id/<id>`, formatted into the thread's scratch
/// buffer without allocating: the model is lowercased char-by-char instead
/// of via `str::to_lowercase`.
fn with_object_name<R>(app: &str, model: &str, id: Id, f: impl FnOnce(&str) -> R) -> R {
    NAME_SCRATCH.with(|scratch| {
        let mut buf = scratch.borrow_mut();
        buf.clear();
        buf.push_str(app);
        buf.push('/');
        for c in model.chars() {
            for lc in c.to_lowercase() {
                buf.push(lc);
            }
        }
        buf.push_str("/id/");
        let _ = write!(buf, "{id}");
        f(&buf)
    })
}

/// Past this many distinct names the interner stops caching and hands out
/// uncached names — a backstop against unbounded growth when an app uses
/// high-cardinality explicit dependency names.
const INTERNER_CAP: usize = 65_536;

/// Interns dependency names so the hot path reuses one `Arc<str>` (and its
/// pre-hash) per distinct name. One interner lives per node; lookups take a
/// read lock, first-sightings upgrade to a write lock.
#[derive(Debug, Default)]
pub(crate) struct DepInterner {
    names: RwLock<HashMap<Arc<str>, u64>>,
}

impl DepInterner {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn lookup(&self, name: &str) -> DepName {
        {
            let names = self.names.read();
            if let Some((arc, &hash)) = names.get_key_value(name) {
                return DepName {
                    name: Arc::clone(arc),
                    hash,
                };
            }
            if names.len() >= INTERNER_CAP {
                return DepName::from_str_uncached(name);
            }
        }
        let dep = DepName::from_str_uncached(name);
        let mut names = self.names.write();
        if names.len() < INTERNER_CAP {
            names.entry(Arc::clone(&dep.name)).or_insert(dep.hash);
        }
        dep
    }

    /// Interned equivalent of [`DepName::object`].
    pub(crate) fn object(&self, app: &str, model: &str, id: Id) -> DepName {
        with_object_name(app, model, id, |name| self.lookup(name))
    }
}

impl Borrow<str> for DepName {
    fn borrow(&self) -> &str {
        &self.name
    }
}

/// Order-preserving normalization of a write/read dependency pair: drops
/// duplicate names within each list (first occurrence wins) and removes
/// from `read_deps` every name that also appears in `write_deps` — a write
/// dependency subsumes the read. Equivalent to the old quadratic
/// `dedup + retain(!contains)` passes but linear in the number of deps
/// (`tests/properties.rs` pins the equivalence).
pub fn normalize_dep_sets(write_deps: &mut Vec<DepName>, read_deps: &mut Vec<DepName>) {
    let mut seen = HashSet::new();
    normalize_dep_sets_with(&mut seen, write_deps, read_deps);
}

/// [`normalize_dep_sets`] with a caller-owned scratch set (the publisher
/// keeps one per thread).
pub(crate) fn normalize_dep_sets_with(
    seen: &mut HashSet<DepName>,
    write_deps: &mut Vec<DepName>,
    read_deps: &mut Vec<DepName>,
) {
    seen.clear();
    write_deps.retain(|d| seen.insert(d.clone()));
    read_deps.retain(|d| seen.insert(d.clone()));
}

/// The effective dependency space: dependency names hash into
/// `cardinality` buckets ("the number of effective dependencies that
/// Synapse uses is the cardinal of the hashing function output space").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepSpace {
    cardinality: u64,
}

impl DepSpace {
    /// A space with the given number of effective dependencies.
    ///
    /// # Panics
    ///
    /// Panics if `cardinality` is zero.
    pub fn new(cardinality: u64) -> Self {
        assert!(cardinality > 0, "dependency space must be non-empty");
        DepSpace { cardinality }
    }

    /// Number of effective dependencies.
    pub fn cardinality(&self) -> u64 {
        self.cardinality
    }

    /// Reduces a name's cached stable hash into the space.
    pub fn key(&self, name: &DepName) -> DepKey {
        name.hash % self.cardinality
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_names_match_fig6b_shape() {
        let d = DepName::object("pub3", "User", Id(100));
        assert_eq!(d.as_str(), "pub3/user/id/100");
    }

    #[test]
    fn hashing_is_stable_and_bounded() {
        let space = DepSpace::new(1000);
        let d = DepName::object("app", "Post", Id(1));
        let k1 = space.key(&d);
        let k2 = space.key(&d);
        assert_eq!(k1, k2);
        assert!(k1 < 1000);
    }

    #[test]
    fn cached_hash_matches_direct_fnv1a() {
        // DepSpace::key must equal hashing the bytes at lookup time —
        // interning must not change any routed key.
        let space = DepSpace::new(997);
        for name in ["pub3/user/id/100", "a/__global__", "x", ""] {
            let d = DepName::named(name);
            assert_eq!(space.key(&d), fnv1a(name) % 997);
        }
    }

    #[test]
    fn global_identity_keys_as_the_global_name_does() {
        for app in ["pub1", "sub", "", "an/app with spaces", "ééé"] {
            for cardinality in [1, 2, 997, 1 << 20, 1 << 62, u64::MAX] {
                let space = DepSpace::new(cardinality);
                assert_eq!(
                    global_identity(app) % space.cardinality(),
                    space.key(&DepName::global(app)),
                    "{app} in {cardinality}"
                );
            }
            assert_eq!(global_identity(app), DepName::global(app).identity());
        }
    }

    #[test]
    fn one_entry_space_maps_everything_to_one_key() {
        // The global-ordering equivalence of §4.2.
        let space = DepSpace::new(1);
        for i in 0..100 {
            assert_eq!(space.key(&DepName::object("a", "M", Id(i))), 0);
        }
    }

    #[test]
    fn distinct_objects_rarely_collide_in_a_large_space() {
        let space = DepSpace::new(1 << 32);
        let mut keys: Vec<DepKey> = (0..1000)
            .map(|i| space.key(&DepName::object("app", "User", Id(i))))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 1000);
    }

    #[test]
    fn interner_reuses_allocations_and_matches_uninterned_names() {
        let interner = DepInterner::new();
        let a = interner.object("app", "User", Id(9));
        let b = interner.object("app", "User", Id(9));
        assert!(Arc::ptr_eq(&a.name, &b.name));
        assert_eq!(a, DepName::object("app", "User", Id(9)));
        assert_eq!(interner.names.read().len(), 1);
        interner.object("app", "User", Id(10));
        assert_eq!(interner.names.read().len(), 2);
    }

    #[test]
    fn interner_caps_growth_but_stays_correct() {
        let interner = DepInterner::new();
        for i in 0..(INTERNER_CAP as u64 + 10) {
            let d = interner.object("app", "User", Id(i));
            assert_eq!(d.as_str(), format!("app/user/id/{i}"));
        }
        assert!(interner.names.read().len() <= INTERNER_CAP);
    }

    #[test]
    fn normalize_preserves_order_and_subsumes_reads() {
        let n = |s: &str| DepName::named(s);
        let mut writes = vec![n("w1"), n("w2"), n("w1"), n("w3")];
        let mut reads = vec![n("r1"), n("w2"), n("r1"), n("r2"), n("w3")];
        normalize_dep_sets(&mut writes, &mut reads);
        assert_eq!(writes, vec![n("w1"), n("w2"), n("w3")]);
        assert_eq!(reads, vec![n("r1"), n("r2")]);
    }
}
