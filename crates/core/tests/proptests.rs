//! Property tests for the paper's core machinery: the unit cache against
//! a model with a staleness invariant, the stored-query grammar
//! (round-trips, and no panic on any text), clustering assignment
//! properties and the per-subobject-list assignment it replaced, and the
//! spec record encoders against the tuple codec.

use complexobj::database::{child_schema, parent_schema, PARENT_REL};
use complexobj::procedural::{proc_parent_schema, ProcObjectSpec, StoredQuery, PROC_PARENT_REL};
use complexobj::{ClusterAssignment, ObjectSpec, SubobjectSpec, UnitCache};
use cor_access::encode;
use cor_pagestore::BufferPool;
use cor_relational::{Oid, Tuple, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};
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

/// The assignment `ClusterAssignment::random` made before it counted
/// references, kept as its model: each subobject's referencing parent
/// keys listed in `parents` order, one `choose` over each list in OID
/// order.
fn model_assignment(parents: &[(u64, Vec<Oid>)], rng: &mut StdRng) -> HashMap<Oid, u64> {
    let mut referencing: HashMap<Oid, Vec<u64>> = HashMap::new();
    for (key, children) in parents {
        for oid in children {
            referencing.entry(*oid).or_default().push(*key);
        }
    }
    let mut oids: Vec<Oid> = referencing.keys().copied().collect();
    oids.sort_unstable();
    oids.into_iter()
        .map(|oid| (oid, *referencing[&oid].choose(rng).expect("non-empty")))
        .collect()
}

/// A string of `len` characters drawn from ASCII and multi-byte ones.
fn text(seed: u64, len: usize) -> String {
    const CHARS: [char; 6] = ['a', 'Z', '0', ' ', 'é', '漢'];
    (0..len)
        .map(|i| CHARS[(seed.rotate_left(i as u32 * 7) % 6) as usize])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Counting references draws what the per-subobject lists drew: the
    /// same parent for every subobject and the same number of draws, over
    /// seeds, share factors (units of `unit` subobjects shared by `share`
    /// consecutive parents) and extra references, repeats included, with
    /// the parents in any order.
    #[test]
    fn cluster_assignment_equals_the_list_model(
        seed in any::<u64>(),
        n_parents in 1u64..60,
        unit in 1u64..6,
        share in 1u64..6,
        extra in proptest::collection::vec((0u64..60, 0u64..400), 0..80),
        shuffle in any::<u64>(),
    ) {
        let mut parents: Vec<(u64, Vec<Oid>)> = (0..n_parents)
            .map(|p| (p, (0..unit).map(|j| Oid::new(10, (p / share) * unit + j)).collect()))
            .collect();
        for (p, c) in extra {
            parents[(p % n_parents) as usize].1.push(Oid::new(11, c));
        }
        parents.rotate_left((shuffle % n_parents) as usize);
        let mut rng = StdRng::seed_from_u64(seed);
        let got = ClusterAssignment::random(&parents, &mut rng);
        let mut model_rng = StdRng::seed_from_u64(seed);
        let want = model_assignment(&parents, &mut model_rng);
        prop_assert_eq!(got.len(), want.len());
        for (oid, parent) in &want {
            prop_assert_eq!(got.parent_of(*oid), Some(*parent), "subobject {}", oid);
        }
        prop_assert_eq!(rng.random::<u64>(), model_rng.random::<u64>(), "same draws");
    }

    /// Each spec encoder appends exactly the bytes `encode` gives the
    /// record's tuple, for any keys, attributes, pad texts (multi-byte
    /// characters included), children lists and stored queries.
    #[test]
    fn spec_encoders_equal_encode_of_the_tuple(
        key in any::<u64>(),
        rets in (any::<i64>(), any::<i64>(), any::<i64>()),
        pad in (any::<u64>(), 0usize..300),
        children in proptest::collection::vec((0u16..40, any::<u64>()), 0..40),
        query in (any::<bool>(), 0u16..40, 0usize..3, any::<i64>(), any::<i64>()),
        prefix in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let rets = [rets.0, rets.1, rets.2];
        let dummy = text(pad.0, pad.1);
        let children: Vec<Oid> = children.iter().map(|&(r, k)| Oid::new(r, k)).collect();
        let appended = |put: &dyn Fn(&mut Vec<u8>)| {
            let mut out = prefix.clone();
            put(&mut out);
            assert_eq!(out[..prefix.len()], prefix[..], "an encoder appends");
            out.split_off(prefix.len())
        };
        let common = |oid: Oid| {
            vec![
                Value::Oid(oid),
                Value::Int(rets[0]),
                Value::Int(rets[1]),
                Value::Int(rets[2]),
                Value::Str(dummy.clone()),
            ]
        };

        let object = ObjectSpec { key, rets, dummy: dummy.clone(), children: children.clone() };
        let mut tuple = common(Oid::new(PARENT_REL, key));
        tuple.extend([Value::OidList(children.clone()), Value::Bytes(Vec::new())]);
        prop_assert_eq!(
            appended(&|out| object.encode_record(out)),
            encode(&parent_schema(), &Tuple::new(tuple)).unwrap()
        );

        let oid = children.first().copied().unwrap_or(Oid::new(10, key));
        let sub = SubobjectSpec { oid, rets, dummy: dummy.clone() };
        prop_assert_eq!(
            appended(&|out| sub.encode_record(out)),
            encode(&child_schema(), &Tuple::new(common(oid))).unwrap()
        );

        let (by_key, rel, ret_idx, lo, hi) = query;
        let members = if by_key {
            StoredQuery::KeyRange { rel, lo: lo as u64, hi: hi as u64 }
        } else {
            StoredQuery::RetRange { rel, ret_idx, lo, hi }
        };
        let proc_object = ProcObjectSpec { key, rets, dummy: dummy.clone(), members: members.clone() };
        let mut tuple = common(Oid::new(PROC_PARENT_REL, key));
        tuple.extend([Value::Str(members.to_quel()), Value::Bytes(Vec::new())]);
        prop_assert_eq!(
            appended(&|out| proc_object.encode_record(out)),
            encode(&proc_parent_schema(), &Tuple::new(tuple)).unwrap()
        );
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
