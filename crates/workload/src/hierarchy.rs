//! Multi-level hierarchy generation (the paper's multi-dot queries).
//!
//! The paper's VLSI motivation — cells made of paths made of rectangles —
//! is a chain of complex-object databases where each level's subobjects
//! are the next level's objects. This generator builds such chains with a
//! per-level fan-out and UseFactor, using the same exact-dealing approach
//! as [`crate::dbgen`]: every child of level `i` is referenced by exactly
//! `use_factor` parents (up to rounding), so duplicate references — the
//! food of multi-level BFSNODUP — are controlled.

use crate::dbgen::{repair_duplicate_chunks, rng_for, SeedStream};
use complexobj::database::{CorDatabase, DatabaseSpec, ObjectSpec, SubobjectSpec, CHILD_REL_BASE};
use cor_relational::Oid;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Parameters of a hierarchy.
#[derive(Debug, Clone)]
pub struct HierarchyParams {
    /// Number of databases in the chain (query depth = levels + 1 dots).
    pub levels: usize,
    /// Objects at the top level.
    pub top_card: u64,
    /// Children referenced per object, at every level.
    pub fan_out: usize,
    /// Objects sharing each child, at every level.
    pub use_factor: u32,
    /// Pad length for object tuples.
    pub parent_dummy_len: usize,
    /// Pad length for the final level's subobject tuples.
    pub child_dummy_len: usize,
    /// Buffer pages per level database.
    pub buffer_pages: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for HierarchyParams {
    fn default() -> Self {
        HierarchyParams {
            levels: 2,
            top_card: 1000,
            fan_out: 5,
            use_factor: 5,
            parent_dummy_len: 110,
            child_dummy_len: 64,
            buffer_pages: 100,
            seed: 0xBEEF,
        }
    }
}

impl HierarchyParams {
    /// Cardinality of level `i`'s objects (level 0 = `top_card`; each
    /// deeper level shrinks/grows by `fan_out / use_factor`).
    pub fn card_at(&self, level: usize) -> u64 {
        let mut card = self.top_card;
        for _ in 0..level {
            card = (card * self.fan_out as u64 / self.use_factor as u64).max(1);
        }
        card
    }
}

/// Deal `parents * fan` references so each of `children` child keys is
/// referenced about `use_factor` times, duplicate-free per parent.
fn deal_children(parents: u64, children: u64, fan: usize, rng: &mut StdRng) -> Vec<Vec<Oid>> {
    let needed = parents as usize * fan;
    let child_oids: Vec<Oid> = (0..children).map(|k| Oid::new(CHILD_REL_BASE, k)).collect();
    let mut memberships: Vec<Oid> = Vec::with_capacity(needed + child_oids.len());
    while memberships.len() < needed {
        let mut perm = child_oids.clone();
        perm.shuffle(rng);
        memberships.extend(perm);
    }
    memberships.truncate(needed);
    repair_duplicate_chunks(&mut memberships, fan);
    memberships.chunks(fan).map(|c| c.to_vec()).collect()
}

/// Generate the chain of logical database specs.
pub fn generate_hierarchy_specs(hp: &HierarchyParams) -> Vec<DatabaseSpec> {
    assert!(hp.levels >= 1);
    assert!(hp.fan_out >= 1 && hp.use_factor >= 1);
    let mut rng = rng_for(hp.seed, SeedStream::Spec);
    let dummy = |rng: &mut StdRng, len: usize| -> String {
        (0..len)
            .map(|_| (b'a' + rng.random_range(0..26u8)) as char)
            .collect()
    };

    let mut specs = Vec::with_capacity(hp.levels);
    for level in 0..hp.levels {
        let parents = hp.card_at(level);
        let children = hp.card_at(level + 1);
        let assignments = deal_children(parents, children, hp.fan_out, &mut rng);
        let parents_spec: Vec<ObjectSpec> = (0..parents)
            .map(|key| ObjectSpec {
                key,
                rets: [
                    rng.random_range(-1000..=1000),
                    rng.random_range(-1000..=1000),
                    rng.random_range(-1000..=1000),
                ],
                dummy: dummy(&mut rng, hp.parent_dummy_len),
                children: assignments[key as usize].clone(),
            })
            .collect();
        let child_rels: Vec<Vec<SubobjectSpec>> = vec![(0..children)
            .map(|k| SubobjectSpec {
                oid: Oid::new(CHILD_REL_BASE, k),
                rets: [
                    rng.random_range(-1000..=1000),
                    rng.random_range(-1000..=1000),
                    rng.random_range(-1000..=1000),
                ],
                dummy: dummy(&mut rng, hp.child_dummy_len),
            })
            .collect()];
        specs.push(DatabaseSpec {
            parents: parents_spec,
            child_rels,
        });
    }
    specs
}

/// Total I/O across every level's pool since the given snapshots.
pub fn total_hierarchy_io(levels: &[CorDatabase], before: &[cor_pagestore::IoSnapshot]) -> u64 {
    levels
        .iter()
        .zip(before)
        .map(|(db, b)| db.pool().stats().snapshot().since(b).total())
        .sum()
}

/// Snapshot every level's counters.
pub fn snapshot_hierarchy(levels: &[CorDatabase]) -> Vec<cor_pagestore::IoSnapshot> {
    levels
        .iter()
        .map(|db| db.pool().stats().snapshot())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineSpec};
    use complexobj::multilevel::MultiDotQuery;
    use complexobj::{RetAttr, Strategy};

    fn tiny() -> HierarchyParams {
        HierarchyParams {
            levels: 2,
            top_card: 60,
            fan_out: 3,
            use_factor: 3,
            parent_dummy_len: 10,
            child_dummy_len: 10,
            buffer_pages: 16,
            seed: 42,
        }
    }

    #[test]
    fn cardinalities_follow_fan_over_use() {
        let hp = HierarchyParams {
            top_card: 100,
            fan_out: 6,
            use_factor: 2,
            ..tiny()
        };
        assert_eq!(hp.card_at(0), 100);
        assert_eq!(hp.card_at(1), 300);
        assert_eq!(hp.card_at(2), 900);
    }

    #[test]
    fn specs_reference_only_existing_next_level_objects() {
        let hp = tiny();
        let specs = generate_hierarchy_specs(&hp);
        assert_eq!(specs.len(), 2);
        for (level, spec) in specs.iter().enumerate() {
            let child_card = hp.card_at(level + 1);
            for p in &spec.parents {
                assert_eq!(p.children.len(), hp.fan_out);
                let mut distinct = p.children.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), hp.fan_out, "duplicate child refs");
                for c in &p.children {
                    assert!(c.key < child_card, "dangling reference at level {level}");
                }
            }
        }
    }

    #[test]
    fn sharing_is_dealt_evenly() {
        let hp = tiny();
        let specs = generate_hierarchy_specs(&hp);
        let mut counts = std::collections::HashMap::new();
        for p in &specs[0].parents {
            for c in &p.children {
                *counts.entry(c.key).or_insert(0u32) += 1;
            }
        }
        // 60 parents x 3 refs over 60 children -> exactly 3 each.
        assert!(counts.values().all(|&n| n == hp.use_factor), "{counts:?}");
    }

    /// The chain as an engine: one standard database per level, each on
    /// its own pool.
    fn engine(hp: &HierarchyParams) -> Engine {
        Engine::builder()
            .pool_pages(hp.buffer_pages)
            .build(&EngineSpec::Levels(generate_hierarchy_specs(hp)))
            .unwrap()
    }

    #[test]
    fn built_hierarchy_answers_multidot_queries() {
        let engine = engine(&tiny());
        let q = MultiDotQuery {
            lo: 0,
            hi: 19,
            attr: RetAttr::Ret1,
        };
        let mut d = engine
            .retrieve_multilevel(Strategy::Dfs, &q)
            .unwrap()
            .values;
        let mut b = engine
            .retrieve_multilevel(Strategy::Bfs, &q)
            .unwrap()
            .values;
        // 20 objects x 3 x 3 paths.
        assert_eq!(d.len(), 180);
        d.sort_unstable();
        b.sort_unstable();
        assert_eq!(d, b);
    }

    #[test]
    fn io_snapshots_cover_all_levels() {
        let engine = engine(&tiny());
        let levels = engine.levels();
        assert_eq!(levels.len(), 2);
        for db in levels {
            db.pool().flush_and_clear().unwrap();
        }
        let before = snapshot_hierarchy(levels);
        let q = MultiDotQuery {
            lo: 0,
            hi: 9,
            attr: RetAttr::Ret1,
        };
        engine.retrieve_multilevel(Strategy::Dfs, &q).unwrap();
        let total = total_hierarchy_io(levels, &before);
        assert!(total > 0);
    }
}
