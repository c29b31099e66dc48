//! The representation matrix (paper Sections 2–3, Figures 1 and 2).
//!
//! Complex-object representations are classified along two axes:
//!
//! * **primary representation** — how the object ↔ subobject relationship
//!   is stored;
//! * **cached representation** — what precomputed information about the
//!   subobjects is kept on disk alongside it.
//!
//! Within the OID column the paper adds a third axis — clustering — and
//! studies the five query-processing strategies of Fig. 2 plus the SMART
//! hybrid of Sec. 5.3. This module names those strategies and where a
//! cache is placed; `cor_workload::matrix` compares points across columns.

/// Where cached information lives relative to the referencing object
/// (Sec. 2.3). \[JHIN88\] showed outside caching dominates, so the paper
/// (and this crate's cache) uses outside caching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CachePlacement {
    /// Cached with the referencing object; no sharing possible.
    Inside,
    /// Cached away from the object; objects referencing the same unit
    /// share one cached copy.
    Outside,
}

/// The query-processing strategies of Fig. 2 plus SMART (Sec. 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Depth-first: per-parent index probes into ChildRel.
    Dfs,
    /// Breadth-first: collect OIDs into a temporary, then join (merge join
    /// when the temporary is large, iterative substitution when small).
    Bfs,
    /// BFS with duplicate elimination on the temporary.
    BfsNoDup,
    /// DFS consulting and maintaining the unit-value cache.
    DfsCache,
    /// DFS over the clustered representation.
    DfsClust,
    /// Hybrid: DFSCACHE below a NumTop threshold, cache-aware BFS without
    /// cache maintenance above it.
    Smart,
}

impl Strategy {
    /// Every strategy, in the paper's order of introduction.
    pub const ALL: [Strategy; 6] = [
        Strategy::Dfs,
        Strategy::Bfs,
        Strategy::BfsNoDup,
        Strategy::DfsCache,
        Strategy::DfsClust,
        Strategy::Smart,
    ];

    /// Does the strategy require the clustered ClusterRel representation?
    pub fn needs_cluster(&self) -> bool {
        matches!(self, Strategy::DfsClust)
    }

    /// Does the strategy require the unit-value cache?
    pub fn needs_cache(&self) -> bool {
        matches!(self, Strategy::DfsCache | Strategy::Smart)
    }

    /// Short display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Dfs => "DFS",
            Strategy::Bfs => "BFS",
            Strategy::BfsNoDup => "BFSNODUP",
            Strategy::DfsCache => "DFSCACHE",
            Strategy::DfsClust => "DFSCLUST",
            Strategy::Smart => "SMART",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = Strategy::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["DFS", "BFS", "BFSNODUP", "DFSCACHE", "DFSCLUST", "SMART"]
        );
        assert_eq!(Strategy::Smart.to_string(), "SMART");
    }
}
