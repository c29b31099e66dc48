//! Property tests for the paper's core machinery: the unit cache against
//! a model with a staleness invariant, the stored-query grammar
//! (round-trips, and no panic on any text), and clustering assignment
//! properties.

use complexobj::procedural::StoredQuery;
use complexobj::{ClusterAssignment, UnitCache};
use cor_pagestore::BufferPool;
use cor_relational::Oid;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::builder().capacity(32).build())
}

#[derive(Debug, Clone)]
enum CacheOp {
    /// Insert unit `u` with a value tagged by `version`.
    Insert(u8),
    /// Probe unit `u`.
    Probe(u8),
    /// Update subobject `s` (invalidate everything containing it).
    Update(u8),
}

fn arb_cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        3 => (0u8..24).prop_map(CacheOp::Insert),
        3 => (0u8..24).prop_map(CacheOp::Probe),
        1 => (0u8..48).prop_map(CacheOp::Update),
    ]
}

/// Unit `u` contains subobjects {2u, 2u+1}.
fn members(u: u8) -> Vec<Oid> {
    vec![Oid::new(10, 2 * u as u64), Oid::new(10, 2 * u as u64 + 1)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The unit cache never serves a value written before the latest
    /// update of any member subobject, and never exceeds capacity.
    #[test]
    fn unit_cache_matches_model(
        capacity in 1usize..8,
        ops in proptest::collection::vec(arb_cache_op(), 1..80),
    ) {
        let mut cache = UnitCache::new(pool(), capacity).unwrap();
        // Model: what value each unit would hold if still cached, plus a
        // monotonically increasing version counter.
        let mut version = 0u64;
        let mut stored: HashMap<u8, u64> = HashMap::new(); // unit -> version at insert

        for op in ops {
            match op {
                CacheOp::Insert(u) => {
                    version += 1;
                    let tag = version.to_le_bytes().to_vec();
                    cache.insert(u as u64, &members(u), &[tag]).unwrap();
                    stored.insert(u, version);
                }
                CacheOp::Probe(u) => {
                    let got = cache.probe(u as u64).unwrap();
                    if let Some(records) = got {
                        // Whatever is served must be the most recent insert
                        // for that unit (evictions may have dropped it, but
                        // a stale value must never come back).
                        let v = u64::from_le_bytes(records[0].as_slice().try_into().unwrap());
                        prop_assert_eq!(Some(&v), stored.get(&u), "unit {} stale", u);
                    }
                }
                CacheOp::Update(s) => {
                    let oid = Oid::new(10, s as u64);
                    cache.invalidate_subobject(oid).unwrap();
                    // Model: any unit containing s is gone.
                    stored.retain(|&u, _| !members(u).contains(&oid));
                }
            }
            prop_assert!(cache.len() <= capacity, "capacity exceeded");
        }
    }

    /// Random clustering assignments place every referenced subobject with
    /// exactly one of its referencing parents.
    #[test]
    fn cluster_assignment_is_total_and_valid(
        seed in any::<u64>(),
        refs in proptest::collection::vec((0u64..30, 0u64..40), 1..120),
    ) {
        // Build parent -> children lists from the (parent, child) pairs.
        let mut by_parent: HashMap<u64, Vec<Oid>> = HashMap::new();
        for (p, c) in &refs {
            by_parent.entry(*p).or_default().push(Oid::new(10, *c));
        }
        let parents: Vec<(u64, Vec<Oid>)> = by_parent.into_iter().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let assignment = ClusterAssignment::random(&parents, &mut rng);

        let mut referencing: HashMap<Oid, Vec<u64>> = HashMap::new();
        for (p, cs) in &parents {
            for c in cs {
                referencing.entry(*c).or_default().push(*p);
            }
        }
        for (oid, candidates) in &referencing {
            let chosen = assignment.parent_of(*oid);
            prop_assert!(chosen.is_some(), "subobject {oid} unassigned");
            prop_assert!(
                candidates.contains(&chosen.unwrap()),
                "subobject {} assigned to a non-referencing parent",
                oid
            );
        }
        prop_assert_eq!(assignment.len(), referencing.len());
    }
}

/// Pieces of the stored-query grammar spliced into texts under test.
const QUEL_PIECES: &[&str] = &[
    "retrieve (child",
    ".all) where ",
    " <= ",
    "child10.",
    "OID",
    "ret1",
    "ret9",
    "10",
    "-",
    "+",
    " ",
    "18446744073709551616",
];

// The grammar is cheap to run, so it gets many more cases than the
// storage-backed properties above.
proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Stored-query QUEL text round-trips for arbitrary bounds.
    #[test]
    fn stored_query_quel_roundtrip(
        rel in 10u16..20,
        a in any::<u64>(),
        b in any::<u64>(),
        ia in any::<i64>(),
        ib in any::<i64>(),
        ret_idx in 0usize..3,
    ) {
        let kq = StoredQuery::KeyRange { rel, lo: a.min(b), hi: a.max(b) };
        prop_assert_eq!(StoredQuery::parse_quel(&kq.to_quel()).unwrap(), kq);
        let rq = StoredQuery::RetRange { rel, ret_idx, lo: ia.min(ib), hi: ia.max(ib) };
        prop_assert_eq!(StoredQuery::parse_quel(&rq.to_quel()).unwrap(), rq);
    }

    /// The stored-query parser answers every text with `Ok` or a
    /// `QuelParseError`, never a panic, and whatever it accepts renders
    /// back to text that parses to the same query. Texts are valid
    /// queries cut and spliced with grammar pieces and arbitrary noise, so
    /// both the accepting and the rejecting branches are reached.
    #[test]
    fn stored_query_parse_never_panics_and_reparses(
        rel in any::<u16>(),
        key_range in any::<bool>(),
        a in any::<i64>(),
        b in any::<i64>(),
        from_noise in any::<bool>(),
        base_noise in "\\PC*",
        edits in proptest::collection::vec(
            (any::<usize>(), 0usize..4, 0usize..QUEL_PIECES.len() + 1, "\\PC*"),
            0..4,
        ),
    ) {
        let valid = if key_range {
            StoredQuery::KeyRange { rel, lo: a as u64, hi: b as u64 }
        } else {
            StoredQuery::RetRange { rel, ret_idx: (a as usize) % 3, lo: a, hi: b }
        };
        let mut text = if from_noise { base_noise } else { valid.to_quel() };
        for (at, cut, piece, noise) in &edits {
            let mut at = at % (text.len() + 1);
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            let end = text[at..].char_indices().nth(*cut).map_or(text.len(), |(i, _)| at + i);
            let insert = QUEL_PIECES.get(*piece).copied().unwrap_or(noise);
            text.replace_range(at..end, insert);
        }
        if let Ok(q) = StoredQuery::parse_quel(&text) {
            prop_assert_eq!(StoredQuery::parse_quel(&q.to_quel()), Ok(q));
        }
    }
}
