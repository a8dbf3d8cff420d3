//! Per-writer version vectors — the multi-writer generalization of the
//! store's scalar per-object version.
//!
//! A [`VersionVector`] maps a *writer id* (the stable hash of the writing
//! application's name) to that writer's per-object counter. Only
//! multi-writer objects carry one: a single-writer object's version is a
//! scalar of its own ([`ObjectVersion::Scalar`](crate::ObjectVersion)),
//! so a vector is only ever compared with another vector.
//!
//! Comparison yields a [`Dominance`]: `Dominates`/`Dominated` when one
//! side's history contains the other's, `Equal` for identical vectors, and
//! `Concurrent` when each side has seen writes the other has not — the
//! case the conflict-resolution plane exists for.
//!
//! The representation is a small-vec: up to [`INLINE_COMPONENTS`]
//! `(writer, counter)` pairs inline (the 1–2 writer common case allocates
//! nothing), spilling to a heap vector beyond that. Components are kept
//! sorted by writer id so joins and comparisons are linear merges and the
//! wire encoding is deterministic.

/// Components stored inline before spilling to the heap.
const INLINE_COMPONENTS: usize = 2;

/// Outcome of comparing two version vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dominance {
    /// Identical histories.
    Equal,
    /// `self` has seen everything `other` has, and more.
    Dominates,
    /// `other` has seen everything `self` has, and more.
    Dominated,
    /// Each side has seen writes the other has not.
    Concurrent,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    Inline {
        len: u8,
        slots: [(u64, u64); INLINE_COMPONENTS],
    },
    Spilled(Vec<(u64, u64)>),
}

/// A compact per-writer version vector. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionVector {
    repr: Repr,
}

impl Default for VersionVector {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionVector {
    /// The empty vector (no writer has a recorded component).
    pub fn new() -> Self {
        VersionVector {
            repr: Repr::Inline {
                len: 0,
                slots: [(0, 0); INLINE_COMPONENTS],
            },
        }
    }

    /// A vector with a single `(writer, counter)` component.
    pub fn component(writer: u64, counter: u64) -> Self {
        let mut v = Self::new();
        v.set(writer, counter);
        v
    }

    /// Builds a vector from `(writer, counter)` pairs in any order;
    /// duplicate writers keep their max.
    pub fn from_components(components: &[(u64, u64)]) -> Self {
        let mut v = Self::new();
        for (writer, counter) in components {
            if *counter > v.get(*writer) {
                v.set(*writer, *counter);
            }
        }
        v
    }

    /// The sorted `(writer, counter)` component slice.
    pub fn components(&self) -> &[(u64, u64)] {
        match &self.repr {
            Repr::Inline { len, slots } => &slots[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components().len()
    }

    /// Whether no component is recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The counter recorded for `writer` (0 when absent).
    pub fn get(&self, writer: u64) -> u64 {
        let comps = self.components();
        match comps.binary_search_by_key(&writer, |(w, _)| *w) {
            Ok(i) => comps[i].1,
            Err(_) => 0,
        }
    }

    /// Sum of all counters — the total-history length the LWW stamp
    /// orders by.
    pub fn sum(&self) -> u64 {
        self.components()
            .iter()
            .fold(0u64, |acc, (_, c)| acc.saturating_add(*c))
    }

    /// Sets `writer`'s component to `counter` (inserting it if absent,
    /// removing it when `counter` is 0).
    pub fn set(&mut self, writer: u64, counter: u64) {
        match &mut self.repr {
            Repr::Inline { len, slots } => {
                let n = *len as usize;
                match slots[..n].binary_search_by_key(&writer, |(w, _)| *w) {
                    Ok(i) => {
                        if counter == 0 {
                            slots.copy_within(i + 1..n, i);
                            *len -= 1;
                        } else {
                            slots[i].1 = counter;
                        }
                    }
                    Err(i) => {
                        if counter == 0 {
                            return;
                        }
                        if n < INLINE_COMPONENTS {
                            slots.copy_within(i..n, i + 1);
                            slots[i] = (writer, counter);
                            *len += 1;
                        } else {
                            let mut spilled = slots[..n].to_vec();
                            spilled.insert(i, (writer, counter));
                            self.repr = Repr::Spilled(spilled);
                        }
                    }
                }
            }
            Repr::Spilled(v) => match v.binary_search_by_key(&writer, |(w, _)| *w) {
                Ok(i) => {
                    if counter == 0 {
                        v.remove(i);
                    } else {
                        v[i].1 = counter;
                    }
                }
                Err(i) => {
                    if counter != 0 {
                        v.insert(i, (writer, counter));
                    }
                }
            },
        }
    }

    /// Component-wise max with `other` (the lattice join): afterwards
    /// `self` dominates-or-equals both inputs.
    pub fn join(&mut self, other: &VersionVector) {
        for (writer, counter) in other.components() {
            if *counter > self.get(*writer) {
                self.set(*writer, *counter);
            }
        }
    }

    /// Compares the histories of `self` and `other`, component by
    /// component: a writer missing on one side counts 0 there.
    pub fn compare(&self, other: &VersionVector) -> Dominance {
        let (a, b) = (self.components(), other.components());
        let (mut i, mut j) = (0, 0);
        let (mut ahead, mut behind) = (false, false);
        while i < a.len() || j < b.len() {
            let (mine, theirs) = match (a.get(i), b.get(j)) {
                (Some(&(wa, ca)), Some(&(wb, cb))) if wa == wb => {
                    i += 1;
                    j += 1;
                    (ca, cb)
                }
                (Some(&(wa, ca)), Some(&(wb, _))) if wa < wb => {
                    i += 1;
                    (ca, 0)
                }
                (Some(&(_, ca)), None) => {
                    i += 1;
                    (ca, 0)
                }
                (_, Some(&(_, cb))) => {
                    j += 1;
                    (0, cb)
                }
                (None, None) => unreachable!("the loop runs while a side has components"),
            };
            ahead |= mine > theirs;
            behind |= theirs > mine;
        }
        match (ahead, behind) {
            (false, false) => Dominance::Equal,
            (true, false) => Dominance::Dominates,
            (false, true) => Dominance::Dominated,
            (true, true) => Dominance::Concurrent,
        }
    }

    /// The LWW stamp `(total history length, tie-break writer)` of a
    /// version whose vector is `self` and whose writer is `writer` —
    /// compared lexicographically, so longer histories win and the higher
    /// writer id breaks exact ties. Distinct versions never share a stamp:
    /// one writer's successive versions of an object strictly grow its own
    /// component (so the sum), and equal sums from different writers
    /// differ in the writer.
    pub fn lww_stamp(&self, writer: u64) -> (u64, u64) {
        (self.sum(), writer)
    }
}

impl std::fmt::Display for VersionVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, (w, c)) in self.components().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{w}:{c}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_vector_compares_equal_to_itself() {
        let v = VersionVector::new();
        assert!(v.is_empty());
        assert_eq!(v.compare(&VersionVector::new()), Dominance::Equal);
        assert_eq!(v.sum(), 0);
    }

    #[test]
    fn set_keeps_components_sorted_and_spills_past_inline() {
        let mut v = VersionVector::new();
        v.set(30, 3);
        v.set(10, 1);
        v.set(20, 2);
        assert_eq!(v.components(), &[(10, 1), (20, 2), (30, 3)]);
        assert_eq!(v.get(20), 2);
        v.set(20, 0);
        assert_eq!(v.components(), &[(10, 1), (30, 3)]);
        v.set(10, 7);
        assert_eq!(v.get(10), 7);
    }

    #[test]
    fn inline_removal_compacts_without_spilling() {
        let mut v = VersionVector::new();
        v.set(1, 1);
        v.set(2, 2);
        v.set(1, 0);
        assert_eq!(v.components(), &[(2, 2)]);
        v.set(3, 0);
        assert_eq!(v.components(), &[(2, 2)]);
    }

    #[test]
    fn dominance_detects_concurrency() {
        let a = VersionVector::from_components(&[(1, 2), (2, 1)]);
        let b = VersionVector::from_components(&[(1, 1), (2, 3)]);
        assert_eq!(a.compare(&b), Dominance::Concurrent);
        assert_eq!(b.compare(&a), Dominance::Concurrent);

        let c = VersionVector::from_components(&[(1, 2), (2, 3)]);
        assert_eq!(c.compare(&a), Dominance::Dominates);
        assert_eq!(a.compare(&c), Dominance::Dominated);
        assert_eq!(c.compare(&c.clone()), Dominance::Equal);
    }

    #[test]
    fn one_sided_components_read_as_zero() {
        let a = VersionVector::component(1, 4);
        let b = VersionVector::component(2, 4);
        assert_eq!(a.compare(&b), Dominance::Concurrent);
        assert_eq!(
            a.compare(&VersionVector::component(1, 3)),
            Dominance::Dominates
        );
    }

    #[test]
    fn join_is_componentwise_max() {
        let mut a = VersionVector::from_components(&[(1, 2), (2, 1)]);
        let b = VersionVector::from_components(&[(1, 1), (2, 3), (3, 4)]);
        a.join(&b);
        assert_eq!(a.components(), &[(1, 2), (2, 3), (3, 4)]);
        assert_eq!(a.compare(&b), Dominance::Dominates);
    }

    #[test]
    fn lww_stamps_order_by_sum_then_writer() {
        let a = VersionVector::from_components(&[(1, 2), (2, 1)]);
        let b = VersionVector::component(2, 3);
        assert_eq!(a.sum(), 3);
        assert_eq!(b.sum(), 3);
        assert!(b.lww_stamp(2) > a.lww_stamp(1), "equal sums: writer breaks");
        let c = VersionVector::component(1, 4);
        assert!(c.lww_stamp(1) > b.lww_stamp(2), "longer history wins");
    }

    #[test]
    fn display_renders_sorted_components() {
        let v = VersionVector::from_components(&[(2, 3), (1, 1)]);
        assert_eq!(v.to_string(), "{1:1, 2:3}");
    }
}
