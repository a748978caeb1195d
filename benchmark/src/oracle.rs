//! The independent oracle: every expected reply is computed by brute force
//! from the generated columns, sharing no code with the crates under test.
//!
//! * backward(g)  = rids with `z == g`
//! * forward(rid) = the group of `z[rid]`
//! * crossfilter / drilldown = per-`v_bin` count and sum over those rids
//! * linked = the set of bins present among those rids
//! * region(r) = rids with `v < 90` whose `z` maps to region `r` (the SPJA plan)
//!
//! The warm-up replicate compares every reply rid-for-rid; timed replicates
//! compare length and an order-sensitive fold, after the query's clock stops.

use crate::gen::{Dim, Fact};

/// One aggregated row: `(v_bin, count, sum of v)`.
pub type BinRow = (i64, i64, f64);

pub struct Oracle<'a> {
    fact: &'a Fact,
    by_key: Vec<Vec<u32>>,
}

impl<'a> Oracle<'a> {
    pub fn new(fact: &'a Fact) -> Self {
        let mut by_key = vec![Vec::new(); fact.groups];
        for (rid, &z) in fact.z.iter().enumerate() {
            by_key[z as usize].push(rid as u32);
        }
        Oracle { fact, by_key }
    }

    pub fn backward(&self, key: u32) -> &[u32] {
        &self.by_key[key as usize]
    }

    pub fn forward(&self, rid: u32) -> u32 {
        self.fact.z[rid as usize] as u32
    }

    /// Per-bin `(bin, count, sum v)` over `rids`, ascending by bin, only the
    /// bins that occur.
    pub fn bins(&self, rids: &[u32]) -> Vec<BinRow> {
        let mut acc = [(0i64, 0.0f64); crate::gen::BINS as usize];
        for &r in rids {
            let slot = &mut acc[self.fact.v_bin[r as usize] as usize];
            slot.0 += 1;
            slot.1 += self.fact.v[r as usize];
        }
        acc.iter()
            .enumerate()
            .filter(|(_, a)| a.0 > 0)
            .map(|(bin, a)| (bin as i64, a.0, a.1))
            .collect()
    }

    pub fn crossfilter(&self, key: u32, bin: u8) -> Vec<u32> {
        self.backward(key)
            .iter()
            .copied()
            .filter(|&r| self.fact.v_bin[r as usize] == bin as i64)
            .collect()
    }

    /// Ascending union of the backward sets of `keys`.
    pub fn union(&self, keys: &[u32]) -> Vec<u32> {
        let mut out: Vec<u32> = keys
            .iter()
            .flat_map(|&k| self.backward(k).iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Backward lineage of one output row of σ(v<90) → ⋈ dim → γ region,
    /// evaluated over the first `head` rows of the fact table.
    pub fn region(&self, dim: &Dim, region: u8, head: usize) -> Vec<u32> {
        (0..head.min(self.fact.rows()) as u32)
            .filter(|&r| {
                self.fact.v[r as usize] < 90.0
                    && dim.region[self.fact.z[r as usize] as usize] == region as i64
            })
            .collect()
    }
}

/// Order-sensitive fold of a rid list ("xor-fold"): one rotate and one xor
/// per rid, cheap enough to run on every timed reply.
pub fn fold_rids(rids: &[u32]) -> u64 {
    rids.iter()
        .fold(0x5EED_u64, |h, &r| h.rotate_left(5) ^ r as u64)
}

pub fn fold_rows(rows: &[BinRow]) -> u64 {
    rows.iter().fold(0xB175_u64, |h, &(bin, cnt, sum)| {
        (h.rotate_left(7) ^ bin as u64).rotate_left(7)
            ^ (cnt as u64)
            ^ sum.to_bits().rotate_left(17)
    })
}

/// What a timed reply is compared against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub len: usize,
    pub fold: u64,
    pub rows: u64,
}

impl Fingerprint {
    pub fn of(rids: &[u32], rows: Option<&[BinRow]>) -> Self {
        Fingerprint {
            len: rids.len(),
            fold: fold_rids(rids),
            rows: rows.map_or(0, fold_rows),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Twenty rows, three groups, worked out by hand.
    fn table() -> Fact {
        let z = vec![0, 1, 0, 2, 0, 1, 0, 0, 2, 1, 0, 0, 1, 0, 2, 0, 1, 0, 0, 1];
        //           0  1  2  3  4  5  6  7  8  9 10 11 12 13 14 15 16 17 18 19
        let v = vec![
            1.0, 13.0, 26.0, 95.0, 2.0, 14.0, 99.0, 3.0, 50.0, 91.0, 4.0, 27.0, 15.0, 5.0, 12.5,
            6.0, 0.0, 28.0, 7.0, 89.75,
        ];
        let v_bin = v.iter().map(|x| (x / 12.5) as i64).collect();
        Fact {
            id: (0..20).collect(),
            z,
            v,
            v_bin,
            groups: 3,
        }
    }

    #[test]
    fn oracle_matches_the_hand_computed_table() {
        let fact = table();
        let o = Oracle::new(&fact);
        assert_eq!(o.backward(0), [0, 2, 4, 6, 7, 10, 11, 13, 15, 17, 18]);
        assert_eq!(o.backward(1), [1, 5, 9, 12, 16, 19]);
        assert_eq!(o.backward(2), [3, 8, 14]);
        assert_eq!(o.forward(9), 1);
        assert_eq!(o.forward(14), 2);
        // Group 0: bin 0 holds v = 1,2,3,4,5,6,7 (count 7, sum 28); bin 2
        // holds 26,27,28 (count 3, sum 81); bin 7 holds 99.
        assert_eq!(
            o.bins(o.backward(0)),
            vec![(0, 7, 28.0), (2, 3, 81.0), (7, 1, 99.0)]
        );
        assert_eq!(o.crossfilter(0, 2), [2, 11, 17]);
        assert_eq!(o.crossfilter(2, 0), Vec::<u32>::new());
        // Group 2 touches bins 7 (95), 4 (50) and 1 (12.5).
        let linked: Vec<i64> = o.bins(o.backward(2)).iter().map(|b| b.0).collect();
        assert_eq!(linked, [1, 4, 7]);
        assert_eq!(o.union(&[2, 1]), [1, 3, 5, 8, 9, 12, 14, 16, 19]);
        let dim = Dim {
            id: vec![0, 1, 2],
            region: vec![0, 1, 1],
        };
        // Region 1 = groups 1 and 2 with v < 90: drops rid 3 (95) and 9 (91).
        assert_eq!(o.region(&dim, 1, 20), [1, 5, 8, 12, 14, 16, 19]);
        assert_eq!(o.region(&dim, 0, 20), [0, 2, 4, 7, 10, 11, 13, 15, 17, 18]);
        assert_eq!(o.region(&dim, 0, 8), [0, 2, 4, 7]);
    }

    #[test]
    fn fold_sees_order_length_and_content() {
        assert_ne!(fold_rids(&[1, 2, 3]), fold_rids(&[3, 2, 1]));
        assert_ne!(fold_rids(&[1, 2, 3]), fold_rids(&[1, 2]));
        assert_ne!(fold_rids(&[1, 2, 3]), fold_rids(&[1, 2, 4]));
        let a = Fingerprint::of(&[1, 2], Some(&[(0, 2, 3.5)]));
        assert_eq!(a, Fingerprint::of(&[1, 2], Some(&[(0, 2, 3.5)])));
        assert_ne!(a, Fingerprint::of(&[1, 2], Some(&[(0, 2, 3.75)])));
        assert_ne!(a, Fingerprint::of(&[1, 2], None));
    }
}
