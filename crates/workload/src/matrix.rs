//! Cross-column comparison of the representation matrix.
//!
//! The paper studies the OID column and defers the rest: "In a future
//! study we will discuss the performance consequence of the other points
//! in the matrix; as well as compare points across the columns"
//! (Sec. 2.4). This module is that study's harness.
//!
//! To compare columns fairly, every representation must express the *same*
//! logical objects. Arbitrary random units cannot be written as a stored
//! query, so the matrix workload defines each object's subobjects as a
//! **key range** over ChildRel: unit `u` covers subobject keys
//! `[u*step, u*step + SizeUnit)` with `step = SizeUnit / OverlapFactor`
//! (consecutive units overlap when `OverlapFactor > 1`). The same range is
//!
//! * an OID list for the OID representation,
//! * `retrieve (child.all) where lo <= child.OID <= hi` (or an equivalent
//!   non-indexable `ret3` predicate) for the procedural representation,
//! * an inlined record list for the value-based representation.

use crate::dbgen::{make_pool, rng_for, SeedStream};
use crate::engine::{Engine, EngineSpec};
use crate::params::Params;
use crate::seqgen::generate_sequence;
use complexobj::database::CHILD_REL_BASE;
use complexobj::procedural::{ProcCaching, ProcDatabaseSpec, ProcObjectSpec, StoredQuery};
use complexobj::{
    CacheConfig, CacheCounters, CachePlacement, CorError, DatabaseSpec, ObjectSpec, Query,
    Strategy, SubobjectSpec, ValueDatabase,
};
use cor_relational::Oid;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// The same logical database in every representation's spec form.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// OID representation (also feeds the value-based build).
    pub oid_spec: DatabaseSpec,
    /// Procedural representation with indexable key-range queries.
    pub proc_spec: ProcDatabaseSpec,
    /// Procedural representation with non-indexable `ret3` predicates
    /// (same results: `ret3` mirrors the subobject key).
    pub proc_scan_spec: ProcDatabaseSpec,
}

/// Generate the matrix workload database (deterministic in `params.seed`).
pub fn generate_matrix(params: &Params) -> MatrixSpec {
    params.validate().expect("invalid parameters");
    assert_eq!(
        params.num_child_rels, 1,
        "the matrix comparison uses a single ChildRel"
    );
    let mut rng = rng_for(params.seed, SeedStream::Spec);
    let child_card = params.child_card();
    let num_units = params.num_units();
    let step = (params.size_unit / params.overlap_factor as usize).max(1);

    // Subobjects; ret3 mirrors the key so a ret3 range predicate denotes
    // the same set as the key range (membership never changes: updates
    // touch ret1 only).
    let dummy = |rng: &mut StdRng, len: usize| -> String {
        (0..len)
            .map(|_| (b'a' + rng.random_range(0..26u8)) as char)
            .collect()
    };
    let children: Vec<SubobjectSpec> = (0..child_card)
        .map(|k| SubobjectSpec {
            oid: Oid::new(CHILD_REL_BASE, k),
            rets: [
                rng.random_range(-1000..=1000),
                rng.random_range(-1000..=1000),
                k as i64,
            ],
            dummy: dummy(&mut rng, params.child_dummy_len),
        })
        .collect();

    // Unit u = keys [u*step, u*step + size_unit), clamped at the tail.
    let unit_range = |u: u64| -> (u64, u64) {
        let lo = u * step as u64;
        let hi = (lo + params.size_unit as u64 - 1).min(child_card - 1);
        (lo, hi)
    };

    // Assignment: unit u used by ~UseFactor objects, shuffled.
    let mut assignment: Vec<u64> = Vec::with_capacity(params.parent_card as usize);
    'fill: loop {
        for u in 0..num_units {
            for _ in 0..params.use_factor {
                assignment.push(u);
                if assignment.len() == params.parent_card as usize {
                    break 'fill;
                }
            }
        }
    }
    assignment.shuffle(&mut rng);

    let mut oid_parents = Vec::with_capacity(params.parent_card as usize);
    let mut proc_parents = Vec::with_capacity(params.parent_card as usize);
    let mut proc_scan_parents = Vec::with_capacity(params.parent_card as usize);
    for key in 0..params.parent_card {
        let (lo, hi) = unit_range(assignment[key as usize]);
        let rets = [
            rng.random_range(-1000..=1000),
            rng.random_range(-1000..=1000),
            rng.random_range(-1000..=1000),
        ];
        let d = dummy(&mut rng, params.parent_dummy_len);
        oid_parents.push(ObjectSpec {
            key,
            rets,
            dummy: d.clone(),
            children: (lo..=hi).map(|k| Oid::new(CHILD_REL_BASE, k)).collect(),
        });
        proc_parents.push(ProcObjectSpec {
            key,
            rets,
            dummy: d.clone(),
            members: StoredQuery::KeyRange {
                rel: CHILD_REL_BASE,
                lo,
                hi,
            },
        });
        proc_scan_parents.push(ProcObjectSpec {
            key,
            rets,
            dummy: d,
            members: StoredQuery::RetRange {
                rel: CHILD_REL_BASE,
                ret_idx: 2,
                lo: lo as i64,
                hi: hi as i64,
            },
        });
    }

    MatrixSpec {
        oid_spec: DatabaseSpec {
            parents: oid_parents,
            child_rels: vec![children.clone()],
        },
        proc_spec: ProcDatabaseSpec {
            parents: proc_parents,
            child_rels: vec![children.clone()],
        },
        proc_scan_spec: ProcDatabaseSpec {
            parents: proc_scan_parents,
            child_rels: vec![children],
        },
    }
}

/// One system under comparison: a representation plus its query-processing
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixSystem {
    /// OID representation, competitive BFS, no cache.
    OidBfs,
    /// OID representation, DFSCACHE with the paper's SizeCache.
    OidCached,
    /// OID representation, DFSCACHE with *inside* cache placement
    /// (the Sec. 3.2 road not taken).
    OidCachedInside,
    /// Procedural, indexable queries, executed every time.
    ProcExecute,
    /// Procedural, non-indexable (`ret3`) queries, executed every time.
    ProcExecuteScan,
    /// Procedural with an outside value cache.
    ProcOutsideValues,
    /// Procedural with an outside OID cache.
    ProcOutsideOids,
    /// Procedural (non-indexable queries) with an outside value cache —
    /// the configuration where caching pays most.
    ProcScanOutsideValues,
    /// Procedural (non-indexable queries) with an outside OID cache.
    ProcScanOutsideOids,
    /// Procedural (non-indexable queries) with inside caching.
    ProcScanInsideValues,
    /// Procedural with inside caching.
    ProcInsideValues,
    /// Value-based: subobjects inlined and replicated.
    ValueBased,
}

impl MatrixSystem {
    /// All systems, in presentation order.
    pub const ALL: [MatrixSystem; 12] = [
        MatrixSystem::OidBfs,
        MatrixSystem::OidCached,
        MatrixSystem::OidCachedInside,
        MatrixSystem::ProcExecute,
        MatrixSystem::ProcExecuteScan,
        MatrixSystem::ProcOutsideValues,
        MatrixSystem::ProcOutsideOids,
        MatrixSystem::ProcScanOutsideValues,
        MatrixSystem::ProcScanOutsideOids,
        MatrixSystem::ProcScanInsideValues,
        MatrixSystem::ProcInsideValues,
        MatrixSystem::ValueBased,
    ];

    /// Display label.
    pub fn name(&self) -> &'static str {
        match self {
            MatrixSystem::OidBfs => "OID/BFS",
            MatrixSystem::OidCached => "OID/DFSCACHE",
            MatrixSystem::OidCachedInside => "OID/in-val",
            MatrixSystem::ProcExecute => "PROC/exec(idx)",
            MatrixSystem::ProcExecuteScan => "PROC/exec(scan)",
            MatrixSystem::ProcOutsideValues => "PROC/out-val",
            MatrixSystem::ProcOutsideOids => "PROC/out-oid",
            MatrixSystem::ProcScanOutsideValues => "PROC/scan+out-val",
            MatrixSystem::ProcScanOutsideOids => "PROC/scan+out-oid",
            MatrixSystem::ProcScanInsideValues => "PROC/scan+in-val",
            MatrixSystem::ProcInsideValues => "PROC/in-val",
            MatrixSystem::ValueBased => "VALUE",
        }
    }
}

/// Result of measuring one system on one sequence.
#[derive(Debug, Clone)]
pub struct MatrixRunResult {
    /// Which system ran.
    pub system: MatrixSystem,
    /// Queries executed.
    pub queries: usize,
    /// Retrieves among them.
    pub retrieves: usize,
    /// Total I/O.
    pub total_io: u64,
    /// I/O spent in retrieves.
    pub retrieve_io: u64,
    /// I/O spent in updates.
    pub update_io: u64,
    /// Values returned (for cross-checking equivalence).
    pub values_returned: u64,
    /// Cache counters where applicable.
    pub cache: Option<CacheCounters>,
}

impl MatrixRunResult {
    /// The paper's yardstick.
    pub fn avg_io_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.total_io as f64 / self.queries as f64
        }
    }

    /// Average I/O per retrieve.
    pub fn avg_retrieve_io(&self) -> f64 {
        if self.retrieves == 0 {
            0.0
        } else {
            self.retrieve_io as f64 / self.retrieves as f64
        }
    }

    /// Average I/O per update.
    pub fn avg_update_io(&self) -> f64 {
        let updates = self.queries - self.retrieves;
        if updates == 0 {
            0.0
        } else {
            self.update_io as f64 / updates as f64
        }
    }
}

/// Build, run and measure one system on the standard sequence for
/// `params`. Every system sees the same queries and updates.
pub fn run_matrix_point(
    params: &Params,
    spec: &MatrixSpec,
    system: MatrixSystem,
) -> Result<MatrixRunResult, CorError> {
    let sequence = generate_sequence(params);
    let size = params.size_cache;
    let (indexed, scan) = (&spec.proc_spec, &spec.proc_scan_spec);
    let oid = |strategy, placement| {
        let engine_spec = EngineSpec::Standard(spec.oid_spec.clone());
        (engine_spec, strategy, placement)
    };
    // Procedural engines ignore the strategy; DFS stands in.
    let proc = |proc_spec: &ProcDatabaseSpec, caching| {
        let engine_spec = EngineSpec::Procedural(proc_spec.clone(), caching);
        (engine_spec, Strategy::Dfs, None)
    };
    let (engine_spec, strategy, placement) = match system {
        MatrixSystem::OidBfs => oid(Strategy::Bfs, None),
        MatrixSystem::OidCached => oid(Strategy::DfsCache, Some(CachePlacement::Outside)),
        MatrixSystem::OidCachedInside => oid(Strategy::DfsCache, Some(CachePlacement::Inside)),
        MatrixSystem::ProcExecute => proc(indexed, ProcCaching::None),
        MatrixSystem::ProcExecuteScan => proc(scan, ProcCaching::None),
        MatrixSystem::ProcOutsideValues => proc(indexed, ProcCaching::OutsideValues(size)),
        MatrixSystem::ProcOutsideOids => proc(indexed, ProcCaching::OutsideOids(size)),
        MatrixSystem::ProcScanOutsideValues => proc(scan, ProcCaching::OutsideValues(size)),
        MatrixSystem::ProcScanOutsideOids => proc(scan, ProcCaching::OutsideOids(size)),
        MatrixSystem::ProcScanInsideValues => proc(scan, ProcCaching::InsideValues(size)),
        MatrixSystem::ProcInsideValues => proc(indexed, ProcCaching::InsideValues(size)),
        MatrixSystem::ValueBased => return run_value_based(params, spec, &sequence),
    };
    let mut builder = Engine::builder()
        .pool_pages(params.buffer_pages)
        .shards(params.shards);
    if let Some(placement) = placement {
        builder = builder.cache(CacheConfig {
            capacity: size,
            placement,
            ..CacheConfig::default()
        });
    }
    let run = builder
        .build(&engine_spec)?
        .run_sequence(strategy, &sequence)?;
    // An uncached procedural engine still keeps (all-zero) counters; the
    // matrix reports a cache only where one exists.
    let uncached = matches!(engine_spec, EngineSpec::Procedural(_, ProcCaching::None));
    Ok(MatrixRunResult {
        system,
        queries: run.queries,
        retrieves: run.retrieves,
        total_io: run.total_io,
        retrieve_io: run.par_io + run.child_io,
        update_io: run.update_io,
        values_returned: run.values_returned,
        cache: run.cache.filter(|_| !uncached),
    })
}

/// The value-based column's measured loop. `ValueDatabase` is not an
/// engine backend, so this is the one sequence loop outside
/// [`Engine::run_sequence`].
fn run_value_based(
    params: &Params,
    spec: &MatrixSpec,
    sequence: &[Query],
) -> Result<MatrixRunResult, CorError> {
    let pool = make_pool(params);
    let db = ValueDatabase::build(pool.clone(), &spec.oid_spec)?;
    let mut result = MatrixRunResult {
        system: MatrixSystem::ValueBased,
        queries: sequence.len(),
        retrieves: 0,
        total_io: 0,
        retrieve_io: 0,
        update_io: 0,
        values_returned: 0,
        cache: None,
    };
    pool.flush_and_clear()?;
    let start = pool.stats().snapshot();
    for q in sequence {
        match q {
            Query::Retrieve(r) => {
                let out = db.run_retrieve(r)?;
                result.retrieves += 1;
                result.retrieve_io += out.total_io();
                result.values_returned += out.values.len() as u64;
            }
            Query::Update(u) => result.update_io += db.apply_update(u)?.total(),
        }
    }
    result.total_io = pool.stats().snapshot().since(&start).total();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(pr_update: f64) -> Params {
        Params {
            parent_card: 200,
            use_factor: 4,
            overlap_factor: 1,
            size_cache: 24,
            buffer_pages: 16,
            sequence_len: 24,
            num_top: 10,
            pr_update,
            ..Params::paper_default()
        }
    }

    #[test]
    fn matrix_spec_is_consistent_across_representations() {
        let p = tiny(0.0);
        let m = generate_matrix(&p);
        assert_eq!(m.oid_spec.parents.len(), 200);
        assert_eq!(m.proc_spec.parents.len(), 200);
        for ((o, pr), ps) in m
            .oid_spec
            .parents
            .iter()
            .zip(&m.proc_spec.parents)
            .zip(&m.proc_scan_spec.parents)
        {
            // The OID list must be exactly the key range of the stored query.
            let StoredQuery::KeyRange { lo, hi, .. } = pr.members else {
                panic!("proc spec must use key ranges")
            };
            let expect: Vec<Oid> = (lo..=hi).map(|k| Oid::new(CHILD_REL_BASE, k)).collect();
            assert_eq!(o.children, expect);
            // And the scan variant denotes the same set through ret3.
            let StoredQuery::RetRange {
                ret_idx,
                lo: rlo,
                hi: rhi,
                ..
            } = ps.members
            else {
                panic!("scan spec must use ret ranges")
            };
            assert_eq!(ret_idx, 2);
            assert_eq!((rlo as u64, rhi as u64), (lo, hi));
        }
    }

    #[test]
    fn overlap_factor_creates_overlapping_ranges() {
        let p = Params {
            overlap_factor: 5,
            use_factor: 1,
            ..tiny(0.0)
        };
        let m = generate_matrix(&p);
        // step = 1: consecutive units share size_unit - 1 subobjects.
        let mut ranges: Vec<(u64, u64)> = m
            .proc_spec
            .parents
            .iter()
            .map(|pr| match pr.members {
                StoredQuery::KeyRange { lo, hi, .. } => (lo, hi),
                _ => unreachable!(),
            })
            .collect();
        ranges.sort_unstable();
        ranges.dedup();
        assert!(
            ranges.windows(2).any(|w| w[1].0 <= w[0].1),
            "ranges must overlap"
        );
    }

    #[test]
    fn all_systems_return_the_same_values_on_retrieve_only_sequences() {
        let p = tiny(0.0);
        let spec = generate_matrix(&p);
        let mut counts = Vec::new();
        for system in MatrixSystem::ALL {
            let r = run_matrix_point(&p, &spec, system).unwrap();
            counts.push((system, r.values_returned));
        }
        let expect = counts[0].1;
        for (system, n) in counts {
            assert_eq!(
                n,
                expect,
                "{} returned a different result size",
                system.name()
            );
        }
    }

    #[test]
    fn all_systems_survive_update_heavy_sequences() {
        let p = tiny(0.5);
        let spec = generate_matrix(&p);
        for system in MatrixSystem::ALL {
            let r = run_matrix_point(&p, &spec, system).unwrap();
            assert!(r.total_io > 0, "{} did no I/O", system.name());
            assert_eq!(r.queries, p.sequence_len);
        }
    }

    #[test]
    fn value_based_pays_most_for_updates_under_sharing() {
        let p = Params {
            pr_update: 1.0,
            use_factor: 8,
            ..tiny(1.0)
        };
        let spec = generate_matrix(&p);
        let value = run_matrix_point(&p, &spec, MatrixSystem::ValueBased).unwrap();
        let oid = run_matrix_point(&p, &spec, MatrixSystem::OidBfs).unwrap();
        assert!(
            value.avg_update_io() > oid.avg_update_io(),
            "replica maintenance ({}) must exceed single-copy update ({})",
            value.avg_update_io(),
            oid.avg_update_io()
        );
    }

    #[test]
    fn value_based_retrieves_cheapest_without_updates() {
        let p = tiny(0.0);
        let spec = generate_matrix(&p);
        let value = run_matrix_point(&p, &spec, MatrixSystem::ValueBased).unwrap();
        let oid = run_matrix_point(&p, &spec, MatrixSystem::OidBfs).unwrap();
        assert!(
            value.avg_retrieve_io() < oid.avg_retrieve_io(),
            "inlined subobjects ({}) must beat OID fetching ({})",
            value.avg_retrieve_io(),
            oid.avg_retrieve_io()
        );
    }
}
