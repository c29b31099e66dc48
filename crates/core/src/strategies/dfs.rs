//! DFS (Sec. 3.1, strategy \[1\]).
//!
//! "For each OID of 'elders', fetch the corresponding subobject from the
//! relation person, and return its name." — a nested-loop join between
//! ParentRel and ChildRel: one index probe per referenced subobject.
//! Linear in the number of references, so it loses to BFS once NumTop
//! exceeds a few tens of objects (Fig. 3), but it needs no temporary.

use crate::database::CorDatabase;
use crate::query::{fetch_ret, RetrieveQuery, StrategyOutput};
use crate::CorError;

/// Run a retrieve depth-first.
pub fn dfs(db: &CorDatabase, query: &RetrieveQuery) -> Result<StrategyOutput, CorError> {
    let stats = db.pool().stats().clone();
    let s0 = stats.snapshot();
    let parents = db.parents_in_range(query.lo, query.hi)?;
    let s1 = stats.snapshot();

    let mut values = Vec::with_capacity(parents.iter().map(|(_, c)| c.len()).sum());
    for (_key, children) in &parents {
        for &oid in children {
            values.push(fetch_ret(db, oid, query.attr)?);
        }
    }
    let s2 = stats.snapshot();

    Ok(StrategyOutput {
        values,
        par_io: s1.since(&s0),
        child_io: s2.since(&s1),
    })
}
