//! Invalidation locks (I-locks, Sec. 3.2).
//!
//! "Associated with each subobject is a lock called an invalidation lock
//! (I-lock, for short) for each unit that it belongs to. Consequently, when
//! a subobject is updated, we invalidate all the (cached) units whose
//! I-locks are held by the subobject in question."
//!
//! The I-lock table is the in-memory analogue of the lock/catalog structure
//! of \[JHIN88, STON87\]; its maintenance is not charged I/O — only the
//! disk-resident `Cache` relation accesses are (see `cache` module).

use cor_relational::Oid;
use std::collections::{HashMap, HashSet};

/// Unit hashkey, the cache identity of a unit.
pub type HashKey = u64;

/// Table mapping each subobject to the cached units it would invalidate.
#[derive(Debug, Default)]
pub struct ILockTable {
    locks: HashMap<Oid, HashSet<HashKey>>,
}

impl ILockTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take I-locks for a freshly cached unit: every member subobject now
    /// holds a lock naming the unit.
    pub fn lock_unit(&mut self, hashkey: HashKey, members: &[Oid]) {
        for &oid in members {
            self.locks.entry(oid).or_default().insert(hashkey);
        }
    }

    /// Release the I-locks of a unit that left the cache (eviction or
    /// invalidation).
    pub fn unlock_unit(&mut self, hashkey: HashKey, members: &[Oid]) {
        for oid in members {
            if let Some(set) = self.locks.get_mut(oid) {
                set.remove(&hashkey);
                if set.is_empty() {
                    self.locks.remove(oid);
                }
            }
        }
    }

    /// The cached units an update of `oid` must invalidate.
    pub fn holders(&self, oid: Oid) -> Vec<HashKey> {
        self.locks
            .get(&oid)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Number of subobjects currently holding at least one I-lock.
    #[cfg(test)]
    fn locked_subobjects(&self) -> usize {
        self.locks.len()
    }

    /// Drop everything (cache cleared).
    pub fn clear(&mut self) {
        self.locks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(k: u64) -> Oid {
        Oid::new(10, k)
    }

    #[test]
    fn lock_and_query_holders() {
        let mut t = ILockTable::new();
        t.lock_unit(100, &[oid(1), oid(2)]);
        t.lock_unit(200, &[oid(2), oid(3)]);
        assert_eq!(t.holders(oid(1)), vec![100]);
        let mut h2 = t.holders(oid(2));
        h2.sort_unstable();
        assert_eq!(h2, vec![100, 200]);
        assert!(t.holders(oid(9)).is_empty());
        assert_eq!(t.locked_subobjects(), 3);
    }

    #[test]
    fn unlock_removes_only_that_unit() {
        let mut t = ILockTable::new();
        t.lock_unit(100, &[oid(1), oid(2)]);
        t.lock_unit(200, &[oid(2)]);
        t.unlock_unit(100, &[oid(1), oid(2)]);
        assert!(t.holders(oid(1)).is_empty());
        assert_eq!(t.holders(oid(2)), vec![200]);
        assert_eq!(t.locked_subobjects(), 1);
    }

    #[test]
    fn double_lock_is_idempotent() {
        let mut t = ILockTable::new();
        t.lock_unit(100, &[oid(1)]);
        t.lock_unit(100, &[oid(1)]);
        assert_eq!(t.holders(oid(1)), vec![100]);
        t.unlock_unit(100, &[oid(1)]);
        assert!(t.holders(oid(1)).is_empty());
    }

    #[test]
    fn clear_empties_table() {
        let mut t = ILockTable::new();
        t.lock_unit(1, &[oid(1), oid(2)]);
        t.clear();
        assert_eq!(t.locked_subobjects(), 0);
    }

    #[test]
    fn unlock_unknown_is_noop() {
        let mut t = ILockTable::new();
        t.unlock_unit(5, &[oid(1)]);
        assert_eq!(t.locked_subobjects(), 0);
    }

    #[test]
    fn recache_after_invalidation_restores_locks() {
        // An update invalidates a cached unit (holders → unlock); a later
        // retrieve re-caches the same hashkey. The new incarnation's locks
        // must be indistinguishable from the first.
        let mut t = ILockTable::new();
        let members = [oid(1), oid(2), oid(3)];
        t.lock_unit(100, &members);
        for h in t.holders(oid(2)) {
            t.unlock_unit(h, &members);
        }
        assert_eq!(t.locked_subobjects(), 0, "invalidation released all locks");

        t.lock_unit(100, &members);
        assert_eq!(t.holders(oid(1)), vec![100]);
        assert_eq!(t.holders(oid(3)), vec![100]);
        assert_eq!(t.locked_subobjects(), 3);
    }

    #[test]
    fn shared_subobject_invalidates_every_holder_but_releases_each_once() {
        // oid(2) belongs to three cached units. Updating it must name all
        // three for invalidation; unlocking them one by one must not
        // disturb locks the others still hold on non-shared members.
        let mut t = ILockTable::new();
        t.lock_unit(100, &[oid(1), oid(2)]);
        t.lock_unit(200, &[oid(2), oid(3)]);
        t.lock_unit(300, &[oid(2)]);

        let mut holders = t.holders(oid(2));
        holders.sort_unstable();
        assert_eq!(holders, vec![100, 200, 300]);

        t.unlock_unit(300, &[oid(2)]);
        let mut holders = t.holders(oid(2));
        holders.sort_unstable();
        assert_eq!(holders, vec![100, 200], "other holders keep their locks");
        assert_eq!(t.holders(oid(1)), vec![100]);
        assert_eq!(t.holders(oid(3)), vec![200]);

        t.unlock_unit(100, &[oid(1), oid(2)]);
        t.unlock_unit(200, &[oid(2), oid(3)]);
        assert_eq!(t.locked_subobjects(), 0);
    }

    #[test]
    fn eviction_releases_exactly_the_evicted_units_locks() {
        // A cache eviction releases the victim's locks with the member
        // list recorded at caching time — even when that list partially
        // overlaps a surviving unit's members.
        let mut t = ILockTable::new();
        t.lock_unit(100, &[oid(1), oid(2), oid(3)]);
        t.lock_unit(200, &[oid(3), oid(4)]);

        t.unlock_unit(100, &[oid(1), oid(2), oid(3)]); // evict unit 100
        assert!(t.holders(oid(1)).is_empty());
        assert!(t.holders(oid(2)).is_empty());
        assert_eq!(
            t.holders(oid(3)),
            vec![200],
            "shared member keeps 200's lock"
        );
        assert_eq!(t.holders(oid(4)), vec![200]);
        assert_eq!(t.locked_subobjects(), 2);

        // Double release (eviction raced with invalidation) is harmless.
        t.unlock_unit(100, &[oid(1), oid(2), oid(3)]);
        assert_eq!(t.holders(oid(3)), vec![200]);
    }
}
