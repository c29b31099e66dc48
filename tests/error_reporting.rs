//! Error-path behaviour across the crates: errors carry useful messages,
//! chain their sources, and the library fails loudly rather than silently
//! on misuse.

use complexobj::database::{CorDatabase, DatabaseSpec, ObjectSpec, SubobjectSpec, CHILD_REL_BASE};
use complexobj::procedural::{
    ProcCaching, ProcDatabaseSpec, ProcObjectSpec, QuelParseError, StoredQuery,
};
use complexobj::strategies::{execute_retrieve, ExecOptions};
use complexobj::ClusterAssignment;
use complexobj::{
    parse_quel, CorError, RetAttr, RetrieveQuery, Strategy, StrategyOutput, ValueDatabase,
};
use cor_access::{AccessError, BTreeFile, CatalogError};
use cor_pagestore::{BufferError, BufferPool, DiskError, FaultMode, FaultyDisk, MemDisk};
use cor_relational::Oid;
use cor_workload::{Engine, EngineSpec};
use std::error::Error;
use std::sync::Arc;

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::builder().capacity(8).build())
}

#[test]
fn error_messages_are_informative() {
    assert!(DiskError::BadPage(7).to_string().contains("7"));
    let exhausted = BufferError::NoFreeFrames {
        pid: 7,
        shard: 1,
        pinned: 3,
        hit_ratio: Some(0.25),
        waited_ns: 1_200_000,
    }
    .to_string();
    assert!(exhausted.contains("pinned"));
    assert!(exhausted.contains('7') && exhausted.contains('3'));
    assert!(exhausted.contains("shard 1"), "{exhausted}");
    assert!(exhausted.contains("25.0%"), "{exhausted}");
    assert!(exhausted.contains("1.2ms"), "{exhausted}");
    assert!(AccessError::BadKeyLen(3).to_string().contains("3"));
    assert!(AccessError::EntryTooLarge.to_string().contains("large"));
    assert!(AccessError::UnsortedBulkLoad
        .to_string()
        .contains("ascending"));
    assert!(CorError::NoCache.to_string().contains("cache"));
    assert!(CorError::DanglingOid(Oid::new(10, 5))
        .to_string()
        .contains("10:5"));
    assert!(CorError::UnknownRelation(99).to_string().contains("99"));
    assert!(CorError::WrongRepresentation("clustered")
        .to_string()
        .contains("clustered"));
    assert!(CatalogError::NotFound("person".into())
        .to_string()
        .contains("person"));
    assert!(QuelParseError::UnknownAttribute("age".into())
        .to_string()
        .contains("age"));
}

#[test]
fn error_sources_chain() {
    // DiskError -> BufferError -> AccessError -> CorError.
    let cor: CorError = AccessError::Buffer(BufferError::Disk(DiskError::BadPage(3))).into();
    let access = cor.source().expect("CorError chains to AccessError");
    assert!(access.to_string().contains("buffer"));
    let buffer = access.source().expect("AccessError chains to BufferError");
    assert!(buffer.to_string().contains("disk"));
    let disk = buffer.source().expect("BufferError chains to DiskError");
    assert!(disk.to_string().contains("3"));
}

#[test]
fn quel_errors_name_the_problem() {
    let err = parse_quel("select 1").unwrap_err();
    assert!(err.to_string().contains("retrieve"), "{err}");
    let err =
        parse_quel("retrieve (ParentRel.children.ret9) where 1 <= ParentRel.OID <= 2").unwrap_err();
    assert!(err.to_string().contains("ret9"), "{err}");
    let err =
        StoredQuery::parse_quel("retrieve (childX.all) where 0 <= childX.OID <= 1").unwrap_err();
    assert!(err.to_string().to_lowercase().contains("relation"), "{err}");
}

#[test]
fn strategy_on_wrong_representation_fails_loudly() {
    let c = |k: u64| Oid::new(CHILD_REL_BASE, k);
    let spec = DatabaseSpec {
        parents: vec![ObjectSpec {
            key: 0,
            rets: [0; 3],
            dummy: "p".into(),
            children: vec![c(0)],
        }],
        child_rels: vec![vec![SubobjectSpec {
            oid: c(0),
            rets: [0; 3],
            dummy: "c".into(),
        }]],
    };
    let db = CorDatabase::build_standard(pool(), &spec, None).unwrap();
    let q = RetrieveQuery {
        lo: 0,
        hi: 0,
        attr: RetAttr::Ret1,
    };
    let opts = ExecOptions::default();
    assert!(matches!(
        execute_retrieve(&db, Strategy::DfsClust, &q, &opts),
        Err(CorError::WrongRepresentation(_))
    ));
    assert!(matches!(
        execute_retrieve(&db, Strategy::DfsCache, &q, &opts),
        Err(CorError::NoCache)
    ));
}

#[test]
fn dangling_reference_is_reported_not_ignored() {
    let c = |k: u64| Oid::new(CHILD_REL_BASE, k);
    // Parent references child 99, which does not exist.
    let spec = DatabaseSpec {
        parents: vec![ObjectSpec {
            key: 0,
            rets: [0; 3],
            dummy: "p".into(),
            children: vec![c(99)],
        }],
        child_rels: vec![vec![SubobjectSpec {
            oid: c(0),
            rets: [0; 3],
            dummy: "c".into(),
        }]],
    };
    let db = CorDatabase::build_standard(pool(), &spec, None).unwrap();
    let q = RetrieveQuery {
        lo: 0,
        hi: 0,
        attr: RetAttr::Ret1,
    };
    for s in [Strategy::Dfs, Strategy::Bfs] {
        let err = execute_retrieve(&db, s, &q, &ExecOptions::default()).unwrap_err();
        assert!(
            matches!(err, CorError::DanglingOid(o) if o == c(99)),
            "{s} must surface the dangling OID, got {err}"
        );
    }
}

#[test]
fn btree_misuse_is_rejected_with_key_length() {
    let tree = BTreeFile::create(pool(), 8).unwrap();
    let err = tree.get(&[0u8; 5]).unwrap_err();
    assert!(matches!(err, AccessError::BadKeyLen(5)));
    assert!(matches!(
        BTreeFile::create(pool(), 0).map(|_| ()),
        Err(AccessError::BadKeyLen(0))
    ));
    assert!(matches!(
        BTreeFile::create(pool(), 65).map(|_| ()),
        Err(AccessError::BadKeyLen(65))
    ));
}

/// Arm a `ShortRead` at every read position of `retrieve` (cold pool
/// each time): each armed read comes back as an `Err` whose source chain
/// reaches the `DiskError`, and the engine still answers afterwards.
fn every_failed_read_is_an_error(
    name: &str,
    disk: &FaultyDisk<MemDisk>,
    pool: &BufferPool,
    retrieve: impl Fn() -> Result<StrategyOutput, CorError>,
) {
    pool.flush_and_clear().unwrap();
    let clean = retrieve().unwrap();
    assert_eq!(clean.values.len(), 51 * 3, "{name}");
    assert!(
        clean.par_io.reads > 4,
        "{name}: the scan spans several leaves"
    );
    let reads = clean.par_io.reads + clean.child_io.reads;

    for nth in 1..=reads {
        pool.flush_and_clear().unwrap();
        disk.arm(nth, FaultMode::ShortRead);
        let err = retrieve().expect_err("the armed read is inside the query");
        assert_eq!(disk.faults_fired(), nth, "{name}: read {nth} fired");
        assert!(
            matches!(err, CorError::Access(_)),
            "{name} read {nth}: {err}"
        );
        let mut cause: Option<&(dyn Error + 'static)> = Some(&err);
        while let Some(e) = cause {
            if e.downcast_ref::<DiskError>().is_some() {
                break;
            }
            cause = e.source();
        }
        assert!(
            cause.is_some(),
            "{name} read {nth}: no DiskError under {err}"
        );
    }
    // The fault disarms itself: the engine still answers afterwards.
    pool.flush_and_clear().unwrap();
    assert_eq!(retrieve().unwrap().values, clean.values, "{name}");
}

/// A failed page read anywhere inside a retrieve — the index descent, the
/// second leaf of the parent scan, an ISAM probe, a foreign cluster leaf,
/// a leaf of a procedural object's stored key range, a leaf of the
/// value-based scan — comes back as an `Err` whose source chain reaches
/// the `DiskError`. (The copy-out range iterator these scans used before
/// could only panic on a leaf-chain read.)
#[test]
fn failed_read_inside_a_scan_is_an_error_not_a_panic() {
    let c = |k: u64| Oid::new(CHILD_REL_BASE, k);
    // 120 objects over 240 subobjects; each object's third reference is
    // to a subobject clustered with another object 25 keys away, so the
    // clustered run makes foreign-page probes.
    let spec = DatabaseSpec {
        parents: (0..120)
            .map(|key| ObjectSpec {
                key,
                rets: [0; 3],
                dummy: "p".repeat(120),
                children: vec![c(2 * key), c(2 * key + 1), c((2 * key + 50) % 240)],
            })
            .collect(),
        child_rels: vec![(0..240)
            .map(|k| SubobjectSpec {
                oid: c(k),
                rets: [k as i64, 0, 0],
                dummy: "c".repeat(60),
            })
            .collect()],
    };
    let assignment = ClusterAssignment::from_pairs((0..240).map(|k| (c(k), k / 2)));
    // The same objects stored procedurally: object `key`'s stored query
    // is the key range `2·key ..= 2·key + 2`, and some of those ranges
    // straddle a ChildRel leaf boundary.
    let proc_spec = ProcDatabaseSpec {
        parents: spec
            .parents
            .iter()
            .map(|o| ProcObjectSpec {
                key: o.key,
                rets: o.rets,
                dummy: o.dummy.clone(),
                members: StoredQuery::KeyRange {
                    rel: CHILD_REL_BASE,
                    lo: 2 * o.key,
                    hi: 2 * o.key + 2,
                },
            })
            .collect(),
        child_rels: spec.child_rels.clone(),
    };
    let q = RetrieveQuery {
        lo: 10,
        hi: 60,
        attr: RetAttr::Ret1,
    };
    for (name, engine_spec, strategy) in [
        ("DFS", EngineSpec::Standard(spec.clone()), Strategy::Dfs),
        (
            "DFSCLUST",
            EngineSpec::Clustered(spec.clone(), assignment),
            Strategy::DfsClust,
        ),
        (
            "procedural",
            EngineSpec::Procedural(proc_spec, ProcCaching::None),
            Strategy::Dfs,
        ),
    ] {
        let disk = Arc::new(FaultyDisk::new(MemDisk::new()));
        let engine = Engine::builder()
            .pool_pages(8)
            .disk(Arc::clone(&disk) as _)
            .build(&engine_spec)
            .unwrap();
        every_failed_read_is_an_error(name, &disk, engine.pool(), || engine.retrieve(strategy, &q));
    }

    let disk = Arc::new(FaultyDisk::new(MemDisk::new()));
    let pool = BufferPool::builder()
        .capacity(8)
        .disk(Box::new(Arc::clone(&disk)))
        .build();
    let db = ValueDatabase::build(Arc::new(pool), &spec).unwrap();
    every_failed_read_is_an_error("value-based", &disk, db.pool(), || db.run_retrieve(&q));
}
