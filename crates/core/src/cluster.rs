//! Clustering assignments (paper Sec. 3.3).
//!
//! The clustering assignment `C ⊆ OS` places every subobject with exactly
//! one of the objects that reference it. Three regimes fall out of the
//! sharing factors:
//!
//! 1. `ShareFactor = 1` — every subobject has one parent; `C = OS` and
//!    clustering is ideal.
//! 2. `OverlapFactor = 1, UseFactor > 1` — whole units are shared; the
//!    unit is clustered with one parent, "randomly chosen from UseFactor
//!    possibilities" (the paper's choice in the absence of access-pattern
//!    knowledge), and the other parents reach it with one random access.
//! 3. `OverlapFactor > 1` — units overlap, so a unit's subobjects end up
//!    scattered across several parents' clusters and extra random accesses
//!    are unavoidable.

use cor_relational::{Oid, OidMap};
use rand::Rng;

/// Map from subobject OID to the primary key of the parent it is
/// physically clustered with.
#[derive(Debug, Clone, Default)]
pub struct ClusterAssignment {
    parent_of: OidMap<u64>,
}

impl ClusterAssignment {
    /// Build from explicit `(subobject, parent key)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Oid, u64)>) -> Self {
        ClusterAssignment {
            parent_of: pairs.into_iter().collect(),
        }
    }

    /// Assign every subobject to a uniformly random referencing parent.
    ///
    /// `parents` supplies each object's key and unit (its `children`
    /// list); a subobject referenced by several parents lands with one of
    /// them chosen uniformly at random, matching Sec. 3.3.
    /// One draw per subobject, in OID order so a seeded RNG reproduces the
    /// assignment, picks the winner among its references in `parents`
    /// order, as `choose` over their list would; a count stands in for it.
    pub fn random<C: AsRef<[Oid]>, R: Rng>(parents: &[(u64, C)], rng: &mut R) -> Self {
        let mut refs: OidMap<usize> = OidMap::default();
        for oid in parents.iter().flat_map(|(_, children)| children.as_ref()) {
            *refs.entry(*oid).or_default() += 1;
        }
        let mut oids: Vec<Oid> = refs.keys().copied().collect();
        oids.sort_unstable();
        // Each count becomes the references to pass over before the winner.
        for oid in &oids {
            let n = refs.get_mut(oid).expect("counted above");
            *n = rng.random_range(0..*n);
        }
        let mut parent_of = OidMap::with_capacity_and_hasher(oids.len(), Default::default());
        for (key, children) in parents {
            for oid in children.as_ref() {
                let skip = refs.get_mut(oid).expect("counted above");
                if *skip == 0 {
                    parent_of.insert(*oid, *key);
                }
                // Past the winner the count wraps and never reaches 0 again.
                *skip = skip.wrapping_sub(1);
            }
        }
        ClusterAssignment { parent_of }
    }

    /// The parent key a subobject is clustered with.
    pub fn parent_of(&self, oid: Oid) -> Option<u64> {
        self.parent_of.get(&oid).copied()
    }

    /// Number of assigned subobjects.
    pub fn len(&self) -> usize {
        self.parent_of.len()
    }

    /// True if nothing is assigned.
    pub fn is_empty(&self) -> bool {
        self.parent_of.is_empty()
    }

    /// Fraction of an object's subobjects that are clustered with it —
    /// diagnostic used in tests and the clustering analysis. Returns
    /// `None` for an object with no subobjects.
    pub fn locality(&self, key: u64, children: &[Oid]) -> Option<f64> {
        if children.is_empty() {
            return None;
        }
        let here = children
            .iter()
            .filter(|o| self.parent_of(**o) == Some(key))
            .count();
        Some(here as f64 / children.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn c(k: u64) -> Oid {
        Oid::new(10, k)
    }

    #[test]
    fn share_factor_one_is_ideal() {
        // Each parent has its own disjoint unit: every subobject must be
        // clustered with its only parent.
        let parents = vec![(0u64, vec![c(0), c(1)]), (1, vec![c(2), c(3)])];
        let mut rng = StdRng::seed_from_u64(7);
        let a = ClusterAssignment::random(&parents, &mut rng);
        assert_eq!(a.len(), 4);
        assert_eq!(a.parent_of(c(0)), Some(0));
        assert_eq!(a.parent_of(c(3)), Some(1));
        assert_eq!(a.locality(0, &parents[0].1), Some(1.0));
        assert_eq!(a.locality(1, &parents[1].1), Some(1.0));
    }

    #[test]
    fn shared_unit_goes_to_exactly_one_parent() {
        // UseFactor = 3: the same unit under three parents.
        let unit = vec![c(0), c(1), c(2)];
        let parents: Vec<(u64, Vec<Oid>)> = (0..3).map(|k| (k, unit.clone())).collect();
        let mut rng = StdRng::seed_from_u64(42);
        let a = ClusterAssignment::random(&parents, &mut rng);
        for oid in &unit {
            let p = a.parent_of(*oid).unwrap();
            assert!(p < 3);
        }
        // Exactly one parent has locality 1 for each subobject; every
        // subobject is stored exactly once.
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn random_choice_spreads_across_parents() {
        // Over many shared units, each of the UseFactor parents should
        // receive some subobjects.
        let unit: Vec<Oid> = (0..100).map(c).collect();
        let parents: Vec<(u64, Vec<Oid>)> = (0..4).map(|k| (k, unit.clone())).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let a = ClusterAssignment::random(&parents, &mut rng);
        let mut counts = [0usize; 4];
        for oid in &unit {
            counts[a.parent_of(*oid).unwrap() as usize] += 1;
        }
        assert!(counts.iter().all(|&n| n > 5), "uniform choice: {counts:?}");
    }

    #[test]
    fn seeded_assignment_is_reproducible() {
        let parents = vec![(0u64, vec![c(0), c(1)]), (1, vec![c(0), c(1)])];
        let a = ClusterAssignment::random(&parents, &mut StdRng::seed_from_u64(5));
        let b = ClusterAssignment::random(&parents, &mut StdRng::seed_from_u64(5));
        for k in 0..2 {
            assert_eq!(a.parent_of(c(k)), b.parent_of(c(k)));
        }
    }

    #[test]
    fn locality_of_childless_object() {
        let a = ClusterAssignment::default();
        assert_eq!(a.locality(0, &[]), None);
        assert!(a.is_empty());
    }
}
