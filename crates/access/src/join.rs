//! Join operators.
//!
//! The BFS strategies of Sec. 3.1 join the sorted temporary of OIDs against
//! the OID-ordered ChildRel B-tree with a **merge join**; at low NumTop the
//! optimizer instead picks **iterative substitution** (an index nested-loop
//! probe per OID, which the strategies run as B-tree point lookups). The
//! merge join here consumes two sorted streams.

/// Merge join between a sorted stream of (possibly duplicated) keys and a
/// sorted stream of unique `(key, value)` entries.
///
/// Emits one `(key, value)` pair per left key that has a match — duplicate
/// left keys (shared subobjects collected from several parents) each match
/// again, exactly like the paper's `person.OID = temp.OID` join where
/// `temp` may contain duplicates.
pub fn merge_join<L, R>(left: L, right: R) -> MergeJoin<L, R>
where
    L: Iterator<Item = Vec<u8>>,
    R: Iterator<Item = (Vec<u8>, Vec<u8>)>,
{
    MergeJoin {
        left,
        right,
        current: None,
    }
}

/// Iterator produced by [`merge_join`].
pub struct MergeJoin<L, R>
where
    L: Iterator<Item = Vec<u8>>,
    R: Iterator<Item = (Vec<u8>, Vec<u8>)>,
{
    left: L,
    right: R,
    /// Most recently read right entry not yet known to be behind the left
    /// cursor (right keys are unique so one is enough).
    current: Option<(Vec<u8>, Vec<u8>)>,
}

impl<L, R> Iterator for MergeJoin<L, R>
where
    L: Iterator<Item = Vec<u8>>,
    R: Iterator<Item = (Vec<u8>, Vec<u8>)>,
{
    type Item = (Vec<u8>, Vec<u8>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let key = self.left.next()?;
            // Advance the right side until current.key >= key.
            loop {
                match &self.current {
                    Some((ck, _)) if ck.as_slice() < key.as_slice() => {
                        self.current = self.right.next();
                    }
                    Some((ck, cv)) if ck.as_slice() == key.as_slice() => {
                        return Some((key, cv.clone()));
                    }
                    Some(_) => break, // right is ahead: left key unmatched
                    None => {
                        self.current = Some(self.right.next()?); // right exhausted -> done
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyed(keys: &[u64]) -> Vec<Vec<u8>> {
        keys.iter().map(|k| k.to_be_bytes().to_vec()).collect()
    }

    fn entries(keys: &[u64]) -> Vec<(Vec<u8>, Vec<u8>)> {
        keys.iter()
            .map(|k| (k.to_be_bytes().to_vec(), format!("v{k}").into_bytes()))
            .collect()
    }

    #[test]
    fn basic_merge_join() {
        let left = keyed(&[1, 3, 5, 7]);
        let right = entries(&[2, 3, 5, 6, 8]);
        let out: Vec<u64> = merge_join(left.into_iter(), right.into_iter())
            .map(|(k, _)| u64::from_be_bytes(k.try_into().unwrap()))
            .collect();
        assert_eq!(out, vec![3, 5]);
    }

    #[test]
    fn duplicate_left_keys_match_repeatedly() {
        let left = keyed(&[3, 3, 3, 5]);
        let right = entries(&[3, 5]);
        let out: Vec<(u64, Vec<u8>)> = merge_join(left.into_iter(), right.into_iter())
            .map(|(k, v)| (u64::from_be_bytes(k.try_into().unwrap()), v))
            .collect();
        assert_eq!(out.len(), 4);
        assert!(out[..3].iter().all(|(k, v)| *k == 3 && v == b"v3"));
        assert_eq!(out[3].0, 5);
    }

    #[test]
    fn empty_sides() {
        let out: Vec<_> = merge_join(std::iter::empty(), entries(&[1, 2]).into_iter()).collect();
        assert!(out.is_empty());
        let out: Vec<_> = merge_join(keyed(&[1, 2]).into_iter(), std::iter::empty()).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn left_keys_past_right_end() {
        let left = keyed(&[1, 9, 10]);
        let right = entries(&[1, 2]);
        let out: Vec<u64> = merge_join(left.into_iter(), right.into_iter())
            .map(|(k, _)| u64::from_be_bytes(k.try_into().unwrap()))
            .collect();
        assert_eq!(out, vec![1]);
    }
}
