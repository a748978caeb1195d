//! Provenance semantics derived from Smoke's lineage indexes (Appendix E).
//!
//! Smoke captures *transformational* lineage: for each output rid and each
//! input relation, the (multiset of) input rids that contributed to it. The
//! backward indexes of the different input relations are **positionally
//! aligned** for join-like operators — the `k`-th rid in the backward lineage
//! of output `o` w.r.t. relation `A` pairs with the `k`-th rid w.r.t. relation
//! `B` to form one derivation witness. From that encoding the classic
//! provenance semantics are simple lineage-consuming computations:
//!
//! * **which-provenance**: set union of the backward rids per relation;
//! * **why-provenance**: the set of witnesses (one tuple of rids per aligned
//!   position);
//! * **how-provenance**: the provenance polynomial obtained by summing the
//!   products of the witnesses.

use std::collections::BTreeSet;

use smoke_storage::Rid;

/// A single derivation witness: one contributing rid per input relation, in
/// the order the relations were supplied.
pub type Witness = Vec<Rid>;

/// Which-provenance: the set of contributing rids per input relation
/// (duplicates removed, sorted for determinism).
pub fn which_provenance(backward_per_relation: &[Vec<Rid>]) -> Vec<Vec<Rid>> {
    backward_per_relation
        .iter()
        .map(|rids| {
            let set: BTreeSet<Rid> = rids.iter().copied().collect();
            set.into_iter().collect()
        })
        .collect()
}

/// Why-provenance: the witnesses obtained by aligning the backward lineage of
/// each relation position by position.
///
/// All relations must report the same number of contributing rids (the number
/// of witnesses); relations that are not part of a witness (e.g. pruned
/// relations) should not be passed.
pub fn why_provenance(backward_per_relation: &[Vec<Rid>]) -> Vec<Witness> {
    if backward_per_relation.is_empty() {
        return Vec::new();
    }
    let n = backward_per_relation[0].len();
    // Debug only: the lists are only read, `rids[k]` bounds-checked.
    debug_assert!(
        backward_per_relation.iter().all(|r| r.len() == n),
        "positionally-aligned backward indexes must have equal lengths"
    );
    let mut witnesses: BTreeSet<Witness> = BTreeSet::new();
    for k in 0..n {
        witnesses.insert(
            backward_per_relation
                .iter()
                .map(|rids| rids[k])
                .collect::<Vec<Rid>>(),
        );
    }
    witnesses.into_iter().collect()
}

/// How-provenance: the provenance polynomial of one output record, rendered as
/// a canonical string such as `a1·b1 + a1·b2`.
///
/// `relation_names` supplies the variable prefix per relation (e.g. `a`, `b`).
pub fn how_provenance(backward_per_relation: &[Vec<Rid>], relation_names: &[&str]) -> String {
    let witnesses = why_provenance(backward_per_relation);
    if witnesses.is_empty() {
        return "0".to_string();
    }
    let monomials: Vec<String> = witnesses
        .iter()
        .map(|w| {
            w.iter()
                .enumerate()
                .map(|(i, rid)| format!("{}{}", relation_names.get(i).unwrap_or(&"r"), rid))
                .collect::<Vec<_>>()
                .join("·")
        })
        .collect();
    monomials.join(" + ")
}

#[cfg(test)]
mod tests {
    use super::*;

    // Paper Appendix E example: output o1 = (COUNT=2, Bob, iPhone) derives
    // from A rid a1 twice, paired with B rids b1 and b2.
    fn paper_example() -> Vec<Vec<Rid>> {
        vec![vec![1, 1], vec![1, 2]]
    }

    #[test]
    fn which_provenance_unions_rids() {
        let which = which_provenance(&paper_example());
        assert_eq!(which, vec![vec![1], vec![1, 2]]);
    }

    #[test]
    fn why_provenance_builds_witnesses() {
        let why = why_provenance(&paper_example());
        assert_eq!(why, vec![vec![1, 1], vec![1, 2]]);
    }

    #[test]
    fn how_provenance_renders_polynomial() {
        let how = how_provenance(&paper_example(), &["a", "b"]);
        assert_eq!(how, "a1·b1 + a1·b2");
    }

    #[test]
    fn empty_inputs() {
        assert!(why_provenance(&[]).is_empty());
        assert_eq!(how_provenance(&[], &[]), "0");
        assert!(which_provenance(&[]).is_empty());
    }

    #[test]
    fn single_relation_group_by() {
        // Group with input rids {4, 7, 9}: which = sorted set, why = single
        // rid witnesses, how = sum of variables.
        let backward = vec![vec![9, 4, 7]];
        assert_eq!(which_provenance(&backward), vec![vec![4, 7, 9]]);
        assert_eq!(why_provenance(&backward), vec![vec![4], vec![7], vec![9]]);
        assert_eq!(how_provenance(&backward, &["t"]), "t4 + t7 + t9");
    }

    #[test]
    fn duplicate_witnesses_collapse() {
        let backward = vec![vec![1, 1], vec![2, 2]];
        assert_eq!(why_provenance(&backward), vec![vec![1, 2]]);
        assert_eq!(how_provenance(&backward, &["a", "b"]), "a1·b2");
    }
}
