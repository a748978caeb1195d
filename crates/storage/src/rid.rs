//! Row identifiers.
//!
//! Smoke indexes rids rather than keys or full tuples because rids are cheap
//! to write during capture and lookups are simple array offsets into the
//! relation (paper §3.1).

/// A row identifier: the position of a tuple inside its relation.
///
/// `u32` keeps lineage indexes compact (half the footprint of `usize` on
/// 64-bit platforms) and comfortably addresses the datasets in the paper's
/// evaluation (the largest, Ontime, has 123.5M rows).
pub type Rid = u32;

/// A list of row identifiers.
pub type RidVec = Vec<Rid>;

/// Converts a `usize` offset to a [`Rid`], panicking (in release builds
/// too) if the relation is too large to be rid-addressed: a wrapped rid
/// would name another row.
#[inline]
pub(crate) fn to_rid(i: usize) -> Rid {
    assert!(i <= u32::MAX as usize, "relation exceeds rid address space");
    i as Rid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rid_is_compact() {
        assert_eq!(std::mem::size_of::<Rid>(), 4);
    }

    #[test]
    fn to_rid_round_trips() {
        assert_eq!(to_rid(42), 42u32);
        assert_eq!(to_rid(0), 0u32);
    }
}
