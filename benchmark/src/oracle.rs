//! In-memory model of the generated database. The engine only ever sees
//! the `DatabaseSpec` and the queries; the model is built from the same
//! spec, applies the same updates, and says what every retrieve must
//! return.

use complexobj::{DatabaseSpec, RetrieveQuery, UpdateQuery};
use cor_relational::Oid;
use std::collections::HashMap;

/// What a retrieve returned, reduced to what can be compared without
/// depending on the strategy's output order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub count: u64,
    pub checksum: u64,
}

impl Answer {
    pub fn of(values: &[i64]) -> Answer {
        Answer {
            count: values.len() as u64,
            checksum: values
                .iter()
                .fold(0u64, |acc, &v| acc.wrapping_add(mix(v as u64))),
        }
    }
}

/// SplitMix64 finalizer: a plain sum of `ret` values would let two wrong
/// values cancel; a sum of mixed values will not in practice.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub struct Oracle {
    /// `(key, children)`, ascending by key (as `DatabaseSpec` stores them).
    parents: Vec<(u64, Vec<Oid>)>,
    rets: HashMap<Oid, [i64; 3]>,
}

impl Oracle {
    pub fn new(spec: &DatabaseSpec) -> Oracle {
        Oracle {
            parents: spec
                .parents
                .iter()
                .map(|p| (p.key, p.children.clone()))
                .collect(),
            rets: spec
                .child_rels
                .iter()
                .flatten()
                .map(|c| (c.oid, c.rets))
                .collect(),
        }
    }

    fn selected(&self, q: &RetrieveQuery) -> impl Iterator<Item = Oid> + '_ {
        let start = self.parents.partition_point(|(k, _)| *k < q.lo);
        let hi = q.hi;
        self.parents[start..]
            .iter()
            .take_while(move |(k, _)| *k <= hi)
            .flat_map(|(_, children)| children.iter().copied())
    }

    /// The answer to `q`: one value per (object, subobject) pair.
    pub fn expected(&self, q: &RetrieveQuery) -> Answer {
        self.answer(self.selected(q), q)
    }

    /// The answer BFSNODUP gives: duplicates are eliminated from the
    /// temporary, so a shared subobject is returned once per query.
    #[cfg(test)]
    pub fn expected_distinct(&self, q: &RetrieveQuery) -> Answer {
        let mut seen = std::collections::HashSet::new();
        self.answer(self.selected(q).filter(|oid| seen.insert(*oid)), q)
    }

    fn answer(&self, oids: impl Iterator<Item = Oid>, q: &RetrieveQuery) -> Answer {
        let col = q.attr.column() - 1;
        let values: Vec<i64> = oids.map(|oid| self.rets[&oid][col]).collect();
        Answer::of(&values)
    }

    /// Apply an update the engine accepted: `ret1` of every target.
    pub fn apply(&mut self, u: &UpdateQuery) {
        for oid in &u.targets {
            self.rets.get_mut(oid).expect("update targets exist")[0] = u.new_ret1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{self, Disk, EngineDef, Repr};
    use complexobj::{Query, Strategy};
    use cor_workload::{generate, generate_sequence, Params};

    fn small(seed: u64) -> Params {
        Params {
            parent_card: 200,
            num_top: 12,
            pr_update: 0.3,
            sequence_len: 120,
            seed,
            ..Default::default()
        }
    }

    /// Every strategy, on the representation it needs, must agree with
    /// the model on every retrieve of a mixed retrieve/update sequence.
    #[test]
    fn oracle_matches_all_six_strategies_under_updates() {
        let params = small(7);
        let generated = generate(&params);
        let sequence = generate_sequence(&params);
        for strategy in Strategy::ALL {
            let repr = if strategy.needs_cluster() {
                Repr::Clustered
            } else if strategy.needs_cache() {
                Repr::Cached(20)
            } else {
                Repr::Standard
            };
            let def = EngineDef {
                repr,
                pool_pages: 16,
                disk: Disk::Mem,
            };
            let mut oracle = Oracle::new(&generated.spec);
            let engine = build::create(&def, &generated, params.seed, false, None).expect("create");
            let mut retrieves = 0;
            for q in &sequence {
                match q {
                    Query::Retrieve(r) => {
                        let got =
                            Answer::of(&engine.retrieve(strategy, r).expect("retrieve").values);
                        let want = if strategy == Strategy::BfsNoDup {
                            oracle.expected_distinct(r)
                        } else {
                            oracle.expected(r)
                        };
                        assert_eq!(got, want, "{strategy} {r:?}");
                        retrieves += 1;
                    }
                    Query::Update(u) => {
                        engine.update(u).expect("update");
                        oracle.apply(u);
                    }
                }
            }
            assert!(retrieves > 50, "{strategy}: {retrieves} retrieves checked");
        }
    }

    #[test]
    fn a_wrong_value_or_a_missing_value_is_caught() {
        let params = small(3);
        let generated = generate(&params);
        let oracle = Oracle::new(&generated.spec);
        let q = complexobj::RetrieveQuery {
            lo: 10,
            hi: 21,
            attr: complexobj::RetAttr::Ret2,
        };
        let want = oracle.expected(&q);
        assert_eq!(want.count, 12 * 5);
        let mut values: Vec<i64> = generated.spec.parents[10..=21]
            .iter()
            .flat_map(|p| p.children.iter())
            .map(|oid| oracle.rets[oid][1])
            .collect();
        values.reverse(); // order must not matter
        assert_eq!(Answer::of(&values), want);
        values[3] += 1;
        assert_ne!(Answer::of(&values), want);
        values[3] -= 1;
        values.pop();
        assert_ne!(Answer::of(&values), want);
    }
}
