//! Query-sequence generation (paper Sec. 4).
//!
//! A sequence mixes retrieve queries of the form
//! `retrieve (ParentRel.children.attr) where val1 <= OID <= val2` with
//! in-place updates of ChildRel tuples. Each query is independently an
//! update with probability `Pr(UPDATE)`; retrieves pick `val1` uniformly
//! ("each complex object has an equal likelihood of being accessed") and
//! `attr` uniformly among `ret1..ret3` "for each query separately".

use crate::dbgen::{random_child_oid, rng_for, SeedStream};
use crate::params::Params;
use complexobj::{Query, RetAttr, RetrieveQuery, UpdateQuery};
use rand::rngs::StdRng;
use rand::Rng;

/// Generate a sequence of `params.sequence_len` queries (deterministic in
/// `params.seed`).
pub fn generate_sequence(params: &Params) -> Vec<Query> {
    let mut rng = rng_for(params.seed, SeedStream::Sequence);
    generate_sequence_with(params, &mut rng)
}

/// Generate with an explicit RNG (drivers that vary sequences per run).
pub fn generate_sequence_with(params: &Params, rng: &mut StdRng) -> Vec<Query> {
    (0..params.sequence_len)
        .map(|_| {
            if rng.random::<f64>() < params.pr_update {
                Query::Update(random_update(params, rng))
            } else {
                Query::Retrieve(random_retrieve(params, rng))
            }
        })
        .collect()
}

/// Generate a sequence whose retrieves draw NumTop per query from
/// `num_tops` (uniformly) — the "good query mix" of Sec. 5.3 that SMART is
/// designed for. Updates still occur with `params.pr_update`.
pub fn generate_mixed_sequence(params: &Params, num_tops: &[u64]) -> Vec<Query> {
    assert!(!num_tops.is_empty());
    let mut rng = rng_for(params.seed, SeedStream::Sequence);
    (0..params.sequence_len)
        .map(|_| {
            if rng.random::<f64>() < params.pr_update {
                Query::Update(random_update(params, &mut rng))
            } else {
                let num_top =
                    num_tops[rng.random_range(0..num_tops.len())].clamp(1, params.parent_card);
                let p = Params {
                    num_top,
                    ..params.clone()
                };
                Query::Retrieve(random_retrieve(&p, &mut rng))
            }
        })
        .collect()
}

/// One random retrieve query.
pub fn random_retrieve(params: &Params, rng: &mut StdRng) -> RetrieveQuery {
    let lo = rng.random_range(0..=params.max_lo());
    RetrieveQuery {
        lo,
        hi: lo + params.num_top - 1,
        attr: *RetAttr::ALL
            .get(rng.random_range(0..3usize))
            .expect("three attrs"),
    }
}

/// One random update query ("each update modifies a fixed number of tuples
/// of ChildRel in place").
pub fn random_update(params: &Params, rng: &mut StdRng) -> UpdateQuery {
    let targets = (0..params.update_batch)
        .map(|_| random_child_oid(params, rng))
        .collect();
    UpdateQuery {
        targets,
        new_ret1: rng.random_range(-1000..=1000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(pr_update: f64) -> Params {
        Params {
            parent_card: 500,
            num_top: 50,
            pr_update,
            sequence_len: 400,
            size_cache: 20,
            buffer_pages: 16,
            ..Params::paper_default()
        }
    }

    fn retrieve_fraction(qs: &[Query]) -> f64 {
        qs.iter()
            .filter(|q| matches!(q, Query::Retrieve(_)))
            .count() as f64
            / qs.len() as f64
    }

    #[test]
    fn sequence_is_deterministic() {
        let p = tiny(0.3);
        assert_eq!(generate_sequence(&p), generate_sequence(&p));
    }

    #[test]
    fn pr_update_zero_and_one_are_pure() {
        let all_retrieves = generate_sequence(&tiny(0.0));
        assert_eq!(retrieve_fraction(&all_retrieves), 1.0);
        let all_updates = generate_sequence(&tiny(1.0));
        assert_eq!(retrieve_fraction(&all_updates), 0.0);
    }

    #[test]
    fn pr_update_mix_is_roughly_honoured() {
        let qs = generate_sequence(&tiny(0.25));
        let f = retrieve_fraction(&qs);
        assert!((f - 0.75).abs() < 0.08, "retrieve fraction {f}");
    }

    #[test]
    fn retrieves_respect_bounds_and_numtop() {
        let p = tiny(0.0);
        for q in generate_sequence(&p) {
            let Query::Retrieve(r) = q else {
                unreachable!()
            };
            assert!(r.hi < p.parent_card);
            assert_eq!(r.num_top(), p.num_top);
        }
    }

    #[test]
    fn retrieve_attrs_vary() {
        let p = tiny(0.0);
        let mut seen = std::collections::HashSet::new();
        for q in generate_sequence(&p) {
            if let Query::Retrieve(r) = q {
                seen.insert(r.attr);
            }
        }
        assert_eq!(seen.len(), 3, "all three attrs should appear");
    }

    #[test]
    fn updates_have_fixed_batch_size() {
        let p = tiny(1.0);
        for q in generate_sequence(&p) {
            let Query::Update(u) = q else { unreachable!() };
            assert_eq!(u.targets.len(), p.update_batch);
        }
    }

    #[test]
    fn numtop_equal_to_card_selects_everything() {
        let p = Params {
            num_top: 500,
            ..tiny(0.0)
        };
        for q in generate_sequence(&p) {
            let Query::Retrieve(r) = q else {
                unreachable!()
            };
            assert_eq!(r.lo, 0);
            assert_eq!(r.hi, 499);
        }
    }
}
