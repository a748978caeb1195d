//! Property-based checks of the sealed CSR form of 1-to-N lineage indexes
//! against the per-entry rid vectors it was written from.
//!
//! For random rid indexes the seal must agree with the entries on every
//! read (`get_checked`, `for_each`, `edge_count`, `lookup`, `single`), carry
//! no slack, and `trace_set` must produce duplicate-free, first-appearance
//! ordered output.

use proptest::prelude::*;
use smoke_lineage::{CsrRidIndex, LineageIndex, Rid, RidIndex};

/// Strategy: a random rid index as per-entry rid vectors, with rids large
/// enough to exercise the `trace_set` bitmap path.
fn entries_strategy() -> impl Strategy<Value = Vec<Vec<Rid>>> {
    prop::collection::vec(prop::collection::vec(0u32..5_000, 0..12), 0..40)
}

/// The rids of entry `pos`, or none past the end.
fn entry(entries: &[Vec<Rid>], pos: usize) -> &[Rid] {
    entries.get(pos).map_or(&[], Vec::as_slice)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn csr_agrees_with_rid_index_on_every_read(entries in entries_strategy()) {
        let csr = CsrRidIndex::from(&RidIndex::from_entries(entries.clone()));
        let index = LineageIndex::Csr(csr.clone());

        prop_assert_eq!(csr.len(), entries.len());
        prop_assert_eq!(csr.edge_count(), entries.iter().map(Vec::len).sum::<usize>());
        // Probe two positions past the end to cover the checked paths.
        for pos in 0..entries.len() + 2 {
            let want = entry(&entries, pos);
            prop_assert_eq!(csr.get_checked(pos), want);
            let mut from_csr = Vec::new();
            csr.for_each(pos, |r| from_csr.push(r));
            prop_assert_eq!(from_csr.as_slice(), want);
            prop_assert_eq!(index.lookup(pos as Rid), want);
            let single = (want.len() == 1).then(|| want[0]);
            prop_assert_eq!(index.single(pos as Rid), single);
        }
    }

    #[test]
    fn trace_set_is_duplicate_free_and_order_stable(
        entries in entries_strategy(),
        positions in prop::collection::vec(0u32..50, 0..120),
    ) {
        let index = LineageIndex::Csr(RidIndex::from_entries(entries.clone()).finalize());
        let traced = index.trace_set(&positions);

        // Duplicate-free.
        let mut dedup = traced.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), traced.len(), "trace_set emitted duplicates");

        // Order-stable: first-appearance order of the entries' multiset.
        let mut expected = Vec::new();
        for &pos in &positions {
            for &r in entry(&entries, pos as usize) {
                if !expected.contains(&r) {
                    expected.push(r);
                }
            }
        }
        prop_assert_eq!(traced, expected);
    }

    #[test]
    fn sealed_indexes_are_exactly_sized(entries in entries_strategy()) {
        // Two exactly-sized flat buffers: `len + 1` offsets and one rid per
        // edge, with no per-entry header and no slack.
        let csr = CsrRidIndex::from(&RidIndex::from_entries(entries));
        prop_assert_eq!(csr.heap_bytes(), 4 * (csr.len() + 1) + 4 * csr.edge_count());
    }
}
