//! Seeded database generation (paper Sec. 4).
//!
//! "The tuples of ParentRel and ChildRel were assigned unique OID's and
//! random values for ret1, ret2, ret3 and dummy. ... From |ChildRel|
//! subobjects, NumUnits units were randomly generated. These units were
//! then randomly assigned to the objects in ParentRel."
//!
//! Uniform unit membership makes the *expected* number of units sharing a
//! subobject equal `OverlapFactor`, and assigning each unit to exactly
//! `UseFactor` objects realizes `UseFactor`, so the generated database hits
//! `ShareFactor = UseFactor × OverlapFactor` by construction (verified by
//! the property tests).

use crate::params::Params;
use complexobj::database::CHILD_REL_BASE;
use complexobj::{
    CacheConfig, ClusterAssignment, DatabaseSpec, ObjectSpec, Strategy, SubobjectSpec, Unit,
};
use cor_pagestore::BufferPool;
use cor_relational::Oid;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A generated logical database plus the unit structure behind it.
#[derive(Debug, Clone)]
pub struct GeneratedDb {
    /// The logical tuples.
    pub spec: DatabaseSpec,
    /// All distinct units.
    pub units: Vec<Unit>,
    /// `assignment[i]` = index of the unit object `i` references.
    pub assignment: Vec<usize>,
}

/// Derived RNG streams so database contents, query sequences and
/// clustering assignments are independently reproducible.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SeedStream {
    /// Database contents.
    Spec,
    /// Query sequence.
    Sequence,
    /// Clustering assignment.
    Cluster,
}

/// The RNG for one derived stream of a master seed.
pub(crate) fn rng_for(seed: u64, stream: SeedStream) -> StdRng {
    let offset = match stream {
        SeedStream::Spec => 0,
        SeedStream::Sequence => 1,
        SeedStream::Cluster => 2,
    };
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(offset))
}

/// Make every `size`-chunk of `memberships` duplicate-free by swapping a
/// duplicated element with one from a later chunk that keeps both chunks
/// valid. Only chunks straddling permutation boundaries can contain
/// duplicates, so this touches a handful of positions.
pub(crate) fn repair_duplicate_chunks(memberships: &mut [Oid], size: usize) {
    use std::collections::HashSet;
    let n_chunks = memberships.len() / size;
    for c in 0..n_chunks {
        let start = c * size;
        loop {
            let chunk = &memberships[start..start + size];
            let mut seen = HashSet::with_capacity(size);
            let dup_pos = chunk.iter().position(|o| !seen.insert(*o));
            let Some(dup_pos) = dup_pos else { break };
            let dup = chunk[dup_pos];
            let chunk_set: HashSet<Oid> = chunk.iter().copied().collect();
            // Find a swap partner outside this chunk whose chunk does not
            // contain `dup` and whose value is not already in this chunk.
            let mut swapped = false;
            for other in (0..memberships.len()).filter(|i| !(start..start + size).contains(i)) {
                let cand = memberships[other];
                if chunk_set.contains(&cand) {
                    continue;
                }
                let oc = other / size;
                let ostart = oc * size;
                let oend = (ostart + size).min(memberships.len());
                if memberships[ostart..oend].contains(&dup) {
                    continue;
                }
                memberships.swap(start + dup_pos, other);
                swapped = true;
                break;
            }
            assert!(
                swapped,
                "duplicate repair must find a partner (population too small?)"
            );
        }
    }
}

/// Reorder per-relation unit blocks into round-robin order so unit `u`
/// belongs to relation `u % n_rels`.
fn interleave_units(units: Vec<Unit>, num_units: usize, n_rels: usize) -> Vec<Unit> {
    // `units` holds relation 0's units first, then relation 1's, ...
    let mut per_rel: Vec<std::collections::VecDeque<Unit>> = (0..n_rels)
        .map(|_| std::collections::VecDeque::new())
        .collect();
    let mut iter = units.into_iter();
    for (r, bucket) in per_rel.iter_mut().enumerate() {
        let count = (num_units + n_rels - 1 - r) / n_rels;
        for _ in 0..count {
            if let Some(u) = iter.next() {
                bucket.push_back(u);
            }
        }
    }
    let mut out = Vec::with_capacity(num_units);
    for u in 0..num_units {
        if let Some(unit) = per_rel[u % n_rels].pop_front() {
            out.push(unit);
        }
    }
    out
}

fn random_dummy(rng: &mut StdRng, len: usize) -> String {
    (0..len)
        .map(|_| (b'a' + rng.random_range(0..26u8)) as char)
        .collect()
}

/// Generate the logical database for `params` (deterministic in
/// `params.seed`).
pub fn generate(params: &Params) -> GeneratedDb {
    params.validate().expect("invalid parameters");
    let mut rng = rng_for(params.seed, SeedStream::Spec);

    // --- subobjects, split across NumChildRel relations ---
    let total_children = params.child_card();
    let n_rels = params.num_child_rels as u64;
    let base = total_children / n_rels;
    let extra = total_children % n_rels;
    let mut child_rels: Vec<Vec<SubobjectSpec>> = Vec::with_capacity(params.num_child_rels);
    for r in 0..n_rels {
        let card = base + if r < extra { 1 } else { 0 };
        let rel_id = CHILD_REL_BASE + r as u16;
        let rel: Vec<SubobjectSpec> = (0..card)
            .map(|k| SubobjectSpec {
                oid: Oid::new(rel_id, k),
                rets: [
                    rng.random_range(-1000..=1000),
                    rng.random_range(-1000..=1000),
                    rng.random_range(-1000..=1000),
                ],
                dummy: random_dummy(&mut rng, params.child_dummy_len),
            })
            .collect();
        child_rels.push(rel);
    }

    // --- units: each drawn from a single relation ---
    //
    // The factors must hold *exactly* where the paper relies on it: with
    // OverlapFactor = 1 and UseFactor = 1 clustering must be ideal
    // (ShareFactor exactly 1, C = S). We therefore deal each subobject into
    // exactly OverlapFactor units: concatenate OverlapFactor shuffled
    // permutations of the relation's subobjects and chunk into units of
    // SizeUnit. Chunks inside one permutation are automatically
    // duplicate-free; the few chunks straddling permutation boundaries are
    // repaired by swapping.
    let num_units = params.num_units() as usize;
    let mut units: Vec<Unit> = Vec::with_capacity(num_units);
    for (rel_idx, rel) in child_rels.iter().enumerate() {
        // Units are assigned to relations round-robin: unit u lives in
        // relation u % num_child_rels.
        let units_here = (num_units + params.num_child_rels - 1 - rel_idx) / params.num_child_rels;
        let needed = units_here * params.size_unit;
        let rel_oids: Vec<Oid> = rel.iter().map(|s| s.oid).collect();
        let mut memberships: Vec<Oid> = Vec::with_capacity(needed + rel_oids.len());
        while memberships.len() < needed {
            let mut perm = rel_oids.clone();
            perm.shuffle(&mut rng);
            memberships.extend(perm);
        }
        memberships.truncate(needed);
        repair_duplicate_chunks(&mut memberships, params.size_unit);
        for chunk in memberships.chunks(params.size_unit) {
            units.push(Unit::new(chunk.to_vec()));
        }
    }
    // Interleave so unit u sits at index u with relation u % num_child_rels
    // (matches the round-robin layout produced above for one relation; for
    // several relations, reorder).
    if params.num_child_rels > 1 {
        units = interleave_units(units, num_units, params.num_child_rels);
    }
    units.truncate(num_units);

    // --- assignment: each unit used by (about) UseFactor objects ---
    let mut assignment: Vec<usize> = Vec::with_capacity(params.parent_card as usize);
    'fill: loop {
        for u in 0..num_units {
            for _ in 0..params.use_factor {
                assignment.push(u);
                if assignment.len() == params.parent_card as usize {
                    break 'fill;
                }
            }
        }
        if num_units == 0 {
            break;
        }
    }
    assignment.shuffle(&mut rng);

    // --- objects ---
    let parents: Vec<ObjectSpec> = (0..params.parent_card)
        .map(|key| ObjectSpec {
            key,
            rets: [
                rng.random_range(-1000..=1000),
                rng.random_range(-1000..=1000),
                rng.random_range(-1000..=1000),
            ],
            dummy: random_dummy(&mut rng, params.parent_dummy_len),
            children: units[assignment[key as usize]].oids().to_vec(),
        })
        .collect();

    GeneratedDb {
        spec: DatabaseSpec {
            parents,
            child_rels,
        },
        units,
        assignment,
    }
}

/// A buffer pool with the params' geometry (capacity and shards) over a
/// fresh in-memory disk.
pub(crate) fn make_pool(params: &Params) -> Arc<BufferPool> {
    Arc::new(
        BufferPool::builder()
            .capacity(params.buffer_pages)
            .shards(params.shards)
            .build(),
    )
}

/// The clustering DFSCLUST runs on: a random assignment drawn from the
/// params' own [`SeedStream::Cluster`] stream, so it follows neither the
/// database contents nor the query sequence. The only derivation — the
/// engine's [`EngineSpec::for_strategy`](crate::EngineSpec::for_strategy)
/// calls it.
pub(crate) fn cluster_assignment(params: &Params, generated: &GeneratedDb) -> ClusterAssignment {
    let parents: Vec<(u64, &[Oid])> = generated
        .spec
        .parents
        .iter()
        .map(|o| (o.key, o.children.as_slice()))
        .collect();
    let mut rng = rng_for(params.seed, SeedStream::Cluster);
    ClusterAssignment::random(&parents, &mut rng)
}

/// The unit cache `strategy` needs at this workload point: SizeCache
/// units for DFSCACHE / SMART, none otherwise.
pub(crate) fn strategy_cache(params: &Params, strategy: Strategy) -> Option<CacheConfig> {
    strategy.needs_cache().then(|| CacheConfig {
        capacity: params.size_cache,
        ..CacheConfig::default()
    })
}

/// Expected OID of a uniformly random subobject, for update generation.
pub(crate) fn random_child_oid(params: &Params, rng: &mut StdRng) -> Oid {
    let total = params.child_card();
    let n_rels = params.num_child_rels as u64;
    let base = total / n_rels;
    let extra = total % n_rels;
    let r = rng.random_range(0..n_rels);
    let card = base + if r < extra { 1 } else { 0 };
    Oid::new(CHILD_REL_BASE + r as u16, rng.random_range(0..card))
}

#[cfg(test)]
mod tests {
    use super::*;
    use complexobj::measure_sharing;

    fn tiny() -> Params {
        Params {
            parent_card: 200,
            size_cache: 20,
            buffer_pages: 16,
            sequence_len: 20,
            num_top: 10,
            ..Params::paper_default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = tiny();
        let a = generate(&p);
        let b = generate(&p);
        assert_eq!(a.spec.parents, b.spec.parents);
        assert_eq!(a.spec.child_rels, b.spec.child_rels);
        assert_eq!(a.assignment, b.assignment);
        let mut p2 = tiny();
        p2.seed ^= 1;
        let c = generate(&p2);
        assert_ne!(
            a.spec.parents, c.spec.parents,
            "different seed, different data"
        );
    }

    #[test]
    fn cardinalities_follow_equation_one() {
        for uf in [1u32, 2, 5, 10] {
            let p = Params {
                use_factor: uf,
                ..tiny()
            };
            let g = generate(&p);
            assert_eq!(g.spec.parents.len() as u64, p.parent_card);
            let total: usize = g.spec.child_rels.iter().map(|r| r.len()).sum();
            assert_eq!(total as u64, p.child_card(), "uf={uf}");
            assert_eq!(g.units.len() as u64, p.num_units());
        }
    }

    #[test]
    fn observed_use_factor_matches_request() {
        let p = Params {
            use_factor: 5,
            ..tiny()
        };
        let g = generate(&p);
        let f = measure_sharing(&g.assignment, &g.units);
        assert!(
            (f.use_factor - 5.0).abs() < 0.3,
            "use_factor = {}",
            f.use_factor
        );
        assert!(
            (f.overlap_factor - 1.0).abs() < 0.3,
            "overlap = {}",
            f.overlap_factor
        );
    }

    #[test]
    fn observed_overlap_factor_matches_request() {
        // OverlapFactor 5 with UseFactor 1: 200 units of 5 drawn from 40
        // subobjects -> each subobject in ~25 units? No: child_card =
        // 200*5/5 = 200... use parent 1000 for clearer statistics.
        let p = Params {
            parent_card: 1000,
            use_factor: 1,
            overlap_factor: 5,
            size_cache: 20,
            buffer_pages: 16,
            sequence_len: 10,
            num_top: 10,
            ..Params::paper_default()
        };
        let g = generate(&p);
        let f = measure_sharing(&g.assignment, &g.units);
        assert!(
            (f.use_factor - 1.0).abs() < 0.05,
            "use_factor = {}",
            f.use_factor
        );
        assert!(
            (f.overlap_factor - 5.0).abs() < 0.8,
            "overlap = {}",
            f.overlap_factor
        );
    }

    #[test]
    fn units_are_single_relation_and_within_cardinality() {
        let p = Params {
            num_child_rels: 3,
            ..tiny()
        };
        let g = generate(&p);
        assert_eq!(g.spec.child_rels.len(), 3);
        for u in &g.units {
            let rel = u.relation().unwrap();
            let rel_idx = (rel - CHILD_REL_BASE) as usize;
            let card = g.spec.child_rels[rel_idx].len() as u64;
            for oid in u.oids() {
                assert_eq!(oid.rel, rel);
                assert!(oid.key < card);
            }
        }
    }

    #[test]
    fn units_have_distinct_members() {
        let g = generate(&tiny());
        for u in &g.units {
            let mut seen = u.oids().to_vec();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), u.len(), "unit members must be distinct");
        }
    }

    #[test]
    fn random_child_oid_stays_in_range() {
        let p = Params {
            num_child_rels: 3,
            ..tiny()
        };
        let g = generate(&p);
        let mut rng = rng_for(7, SeedStream::Sequence);
        for _ in 0..200 {
            let oid = random_child_oid(&p, &mut rng);
            let rel_idx = (oid.rel - CHILD_REL_BASE) as usize;
            assert!(oid.key < g.spec.child_rels[rel_idx].len() as u64);
        }
    }
}
