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
//! Nothing after that hash reads the path, so a [`DepName`] *is* its hash:
//! a `Copy` pair of 64-bit FNV-1a values, streamed over the path's bytes
//! in one pass that neither allocates nor locks. The first is the whole
//! path's [`DepName::identity`]; the second is the hash of its namespace
//! (the publishing app, the bytes before the first `/`), which is all the
//! publisher's external-dependency test compares. Names compare and hash
//! by identity: two distinct paths that share all 64 bits already share
//! their key and their admission state, so they are one dependency.
//!
//! Only dependency *counters* live in the reduced space
//! ([`DepSpace::key`], the identity modulo the space's cardinality). What
//! must never collide — an object's admission state — is keyed by the
//! full identity.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use synapse_model::Id;
use synapse_versionstore::DepKey;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a of `bytes` continued from the hash `h` of the bytes before them
/// — the paper's "stable hash function at the publisher".
fn fnv1a_on(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3))
}

/// FNV-1a of the decimal digits of `n`, continued from `h`, most
/// significant digit first. The digits are taken off by constant
/// divisions into a stack array, as `Display` would write them.
fn fnv1a_decimal(h: u64, mut n: u64) -> u64 {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return fnv1a_on(h, &digits[start..]);
        }
    }
}

/// The stable writer id of an application — the tie-breaking half of its
/// writes' LWW stamps, and the namespace hash of its dependency names.
/// Derived from the app name with the same FNV-1a hash as dependency
/// names, so every node computes identical ids without coordination.
pub fn writer_id(app: &str) -> u64 {
    fnv1a_on(FNV_OFFSET, app.as_bytes())
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

/// A dependency name, held as the stable hashes of its path. See the
/// module docs.
#[derive(Debug, Clone, Copy)]
pub struct DepName {
    identity: u64,
    /// The hash of the path before its first `/` (the app, for an object
    /// or global name); `None` without one.
    pub(crate) namespace: Option<u64>,
}

impl DepName {
    /// The dependency of one object: `app/model/id/<id>`, the model
    /// lowercased char by char.
    pub fn object(app: &str, model: &str, id: Id) -> Self {
        let namespace = writer_id(app);
        let mut h = fnv1a_on(namespace, b"/");
        for c in model.chars().flat_map(char::to_lowercase) {
            h = fnv1a_on(h, c.encode_utf8(&mut [0; 4]).as_bytes());
        }
        h = fnv1a_decimal(fnv1a_on(h, b"/id/"), id.raw());
        DepName {
            identity: h,
            namespace: Some(namespace),
        }
    }

    /// The single global dependency used to enforce global ordering:
    /// `app/__global__`.
    pub(crate) fn global(app: &str) -> Self {
        let namespace = writer_id(app);
        DepName {
            identity: fnv1a_on(namespace, b"/__global__"),
            namespace: Some(namespace),
        }
    }

    /// An explicitly named dependency (`add_read_deps`/`add_write_deps`).
    pub fn named(name: &str) -> Self {
        DepName {
            identity: fnv1a_on(FNV_OFFSET, name.as_bytes()),
            namespace: name.split_once('/').map(|(app, _)| writer_id(app)),
        }
    }

    /// The name's full stable 64-bit hash, never reduced into a
    /// [`DepSpace`]: the identity an object's admission state is keyed by
    /// in the version store.
    pub fn identity(&self) -> u64 {
        self.identity
    }
}

impl PartialEq for DepName {
    fn eq(&self, other: &Self) -> bool {
        self.identity == other.identity
    }
}

impl Eq for DepName {}

impl Hash for DepName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.identity);
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
    write_deps.retain(|d| seen.insert(*d));
    read_deps.retain(|d| seen.insert(*d));
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

    /// Reduces a name's identity into the space.
    pub fn key(&self, name: &DepName) -> DepKey {
        name.identity % self.cardinality
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over a formatted path: the oracle the streamed names are
    /// checked against.
    fn fnv1a(path: &str) -> u64 {
        fnv1a_on(FNV_OFFSET, path.as_bytes())
    }

    /// Identities and keys at the default space are what every node, the
    /// wire and every snapshot agree on, so these constants, computed by
    /// hashing each formatted path, must never change.
    #[test]
    fn golden_identities_and_keys() {
        let space = DepSpace::new(1 << 20);
        let golden = [
            (
                DepName::object("pub3", "User", Id(100)),
                "pub3/user/id/100",
                0x8ebe8f0456842423,
                271_395,
            ),
            (
                DepName::global("pub1"),
                "pub1/__global__",
                0xc748c7fc1823db0f,
                252_687,
            ),
            (
                mesh_object("Post", Id(7)),
                "~mesh/post/id/7",
                0x9762a418949964db,
                615_643,
            ),
            (
                DepName::named("dep/1"),
                "dep/1",
                0x754d3a76003b9e1e,
                761_374,
            ),
            (
                DepName::object("app", "İdéaΣ", Id(42)),
                "app/i\u{307}déaσ/id/42",
                0xf27bee9539eccc87,
                838_791,
            ),
            (
                DepName::object("app", "User", Id(u64::MAX)),
                "app/user/id/18446744073709551615",
                0xab271cb1238e3a42,
                932_418,
            ),
        ];
        for (name, path, identity, key) in golden {
            assert_eq!(name.identity(), identity, "{path}");
            assert_eq!(fnv1a(path), identity, "{path}");
            assert_eq!(space.key(&name), key, "{path}");
        }
    }

    #[test]
    fn object_names_match_fig6b_shape() {
        // A name streams the bytes of the path `app/model/id/<id>` with the
        // model lowercased char by char (`Σ` stays `σ`, and `İ` is two
        // chars), which the oracle formats.
        let d = DepName::object("pub3", "User", Id(100));
        assert_eq!(d.identity(), fnv1a("pub3/user/id/100"));
        for app in ["pub1", "sub", "", "an app with spaces", "ééé"] {
            for (model, id) in [("User", 0), ("Post", 9), ("İdéaΣ", 10), ("m", u64::MAX)] {
                let lower: String = model.chars().flat_map(char::to_lowercase).collect();
                let path = format!("{app}/{lower}/id/{id}");
                let name = DepName::object(app, model, Id(id));
                assert_eq!(name.identity(), fnv1a(&path), "{path}");
                assert_eq!(name, DepName::named(&path), "{path}");
                assert_eq!(name.namespace, Some(writer_id(app)), "{path}");
            }
        }
    }

    #[test]
    fn cached_hash_matches_direct_fnv1a() {
        // DepSpace::key must equal hashing the path's bytes at lookup time.
        let space = DepSpace::new(997);
        for name in ["pub3/user/id/100", "a/__global__", "x", ""] {
            let d = DepName::named(name);
            assert_eq!(space.key(&d), fnv1a(name) % 997);
        }
    }

    #[test]
    fn global_identity_keys_as_the_global_name_does() {
        for app in ["pub1", "sub", "", "an/app with spaces", "ééé"] {
            let path = format!("{app}/__global__");
            let global = DepName::global(app);
            for cardinality in [1, 2, 997, 1 << 20, 1 << 62, u64::MAX] {
                let space = DepSpace::new(cardinality);
                assert_eq!(space.key(&global), fnv1a(&path) % cardinality, "{path}");
            }
            assert_eq!(global.identity(), fnv1a(&path));
            assert_eq!(global.namespace, Some(writer_id(app)));
        }
    }

    #[test]
    fn a_named_dependency_is_namespaced_by_its_first_segment() {
        assert_eq!(DepName::named("app/a/b").namespace, Some(writer_id("app")));
        assert_eq!(DepName::named("/x").namespace, Some(writer_id("")));
        assert_eq!(DepName::named("x").namespace, None);
        assert_eq!(DepName::named("x").identity(), fnv1a("x"));
        assert_eq!(DepName::named("").identity(), fnv1a(""));
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
    fn normalize_preserves_order_and_subsumes_reads() {
        let n = |s: &str| DepName::named(s);
        let mut writes = vec![n("w1"), n("w2"), n("w1"), n("w3")];
        let mut reads = vec![n("r1"), n("w2"), n("r1"), n("r2"), n("w3")];
        normalize_dep_sets(&mut writes, &mut reads);
        assert_eq!(writes, vec![n("w1"), n("w2"), n("w3")]);
        assert_eq!(reads, vec![n("r1"), n("r2")]);
    }
}
