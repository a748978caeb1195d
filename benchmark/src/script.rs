//! The benchmark's own query generator (not `smoke_server::QueryMix`).
//!
//! **Mix rule.** A percentile that lands on the boundary between two query
//! classes flips between two costs from run to run. Every script therefore
//! fixes the `wide` class — a backward trace of the hottest group, the most
//! expensive query there is — at exactly 10 % of its length, so p95 is the
//! middle of the wide plateau, and gives the narrow classes at least 60 %, so
//! p50 is inside them.
//!
//! **Stratified keys.** Class counts are exact, not drawn, and so are the
//! group ranks the narrow classes name: the `i`-th of `n` queries of a class
//! takes the rank at quantile `(i + ½) / n` of Zipf(θ=1) above the class's
//! hottest allowed rank. Every seed therefore asks for the same multiset of
//! ranks — the same mix of cheap and costly queries — and the seed decides
//! the data behind them, the base rids of forward queries, and the order.
//! Independent draws would make a 100-query script's median cost wander by
//! 15 % from seed to seed before the program had run at all.

use crate::gen::{SplitMix64, Zipf, BINS};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Backward trace of rank 1: returns every rid of the hottest group.
    Wide,
    /// Backward trace of a Zipf-drawn rank ≥ 2.
    Brush,
    /// Backward + `v_bin = b` filter + count per bin.
    Crossfilter,
    /// Backward + the cube-shaped aggregate.
    Drilldown,
    /// Backward, then forward through the `by_bin` view.
    Linked,
    /// Forward trace of base rids.
    Forward,
    /// Predicate selection over the view (`z IN (…)`) + aggregate.
    Predicate,
    /// Backward through the SPJA plan's composed index.
    Region,
}

impl Class {
    pub const ALL: [Class; 8] = [
        Class::Wide,
        Class::Brush,
        Class::Crossfilter,
        Class::Drilldown,
        Class::Linked,
        Class::Forward,
        Class::Predicate,
        Class::Region,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Wide => "wide",
            Class::Brush => "brush",
            Class::Crossfilter => "crossfilter",
            Class::Drilldown => "drilldown",
            Class::Linked => "linked",
            Class::Forward => "forward",
            Class::Predicate => "predicate",
            Class::Region => "region",
        }
    }
}

/// One query, in terms of the generated data (group keys, base rids), not of
/// the program's output rids: each workload maps keys to its own output rids.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    Backward { key: u32 },
    Crossfilter { key: u32, bin: u8 },
    Drilldown { key: u32 },
    Linked { key: u32 },
    Forward { rids: Vec<u32> },
    Predicate { keys: [u32; 4] },
    Region { region: u8 },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    pub class: Class,
    pub query: Query,
}

/// What a script is drawn from.
pub struct Shape<'a> {
    /// Exact number of queries of each class; `Wide` must be 10 % of the sum.
    pub counts: &'a [(Class, usize)],
    pub groups: usize,
    pub rows: usize,
    /// Hottest rank a brush, crossfilter or drilldown query may name (≥ 2:
    /// rank 1 is the wide class).
    pub narrow_min_rank: usize,
    /// Base rids per forward query.
    pub forward_width: usize,
    /// Regions a `Region` query may name (the caller excludes any region
    /// heavy enough to rival the wide class).
    pub regions: &'a [u8],
}

/// Hottest rank a linked query may start from.
pub const LINKED_MIN_RANK: usize = 10;

pub fn build(shape: &Shape<'_>, seed: u64) -> Vec<Item> {
    let total: usize = shape.counts.iter().map(|c| c.1).sum();
    let wide: usize = shape
        .counts
        .iter()
        .filter(|c| c.0 == Class::Wide)
        .map(|c| c.1)
        .sum();
    assert_eq!(
        wide * 10,
        total,
        "the wide class is exactly 10 % of every script"
    );
    let zipf = Zipf::new(shape.groups, 1.0);
    let mut rng = SplitMix64::new(seed ^ 0x005C_2197);
    assert!(
        shape.narrow_min_rank >= 2,
        "rank 1 belongs to the wide class"
    );
    let mut items = Vec::with_capacity(total);
    for &(class, count) in shape.counts {
        for i in 0..count {
            let stratum = (i as f64 + 0.5) / count as f64;
            let narrow_key = zipf.quantile_at_least(stratum, shape.narrow_min_rank) as u32 - 1;
            let query = match class {
                Class::Wide => Query::Backward { key: 0 },
                Class::Brush => Query::Backward { key: narrow_key },
                Class::Crossfilter => Query::Crossfilter {
                    key: narrow_key,
                    bin: (i % BINS as usize) as u8,
                },
                Class::Drilldown => Query::Drilldown { key: narrow_key },
                // A linked query walks its rids twice (back, then forward
                // through the other view), so at the hottest ranks it would
                // rival the wide class.
                Class::Linked => Query::Linked {
                    key: zipf.quantile_at_least(stratum, LINKED_MIN_RANK) as u32 - 1,
                },
                Class::Forward => Query::Forward {
                    rids: (0..shape.forward_width)
                        .map(|_| rng.below(shape.rows as u64) as u32)
                        .collect(),
                },
                Class::Predicate => {
                    // Four distinct cold keys: a selection no single rid names.
                    let mut keys = [0u32; 4];
                    let lo = (shape.groups / 2).max(1) as u64;
                    let span = (shape.groups as u64 - lo).max(1);
                    let first = lo + rng.below(span);
                    for (i, k) in keys.iter_mut().enumerate() {
                        *k = (lo + (first - lo + i as u64 * 7) % span) as u32;
                    }
                    Query::Predicate { keys }
                }
                Class::Region => Query::Region {
                    region: shape.regions[rng.below(shape.regions.len() as u64) as usize],
                },
            };
            items.push(Item { class, query });
        }
    }
    rng.shuffle(&mut items);
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTS: [(Class, usize); 7] = [
        (Class::Wide, 40),
        (Class::Brush, 80),
        (Class::Crossfilter, 100),
        (Class::Drilldown, 60),
        (Class::Linked, 40),
        (Class::Forward, 40),
        (Class::Predicate, 40),
    ];

    fn shape() -> Shape<'static> {
        Shape {
            counts: &COUNTS,
            groups: 100,
            rows: 10_000,
            narrow_min_rank: 2,
            forward_width: 1,
            regions: &[],
        }
    }

    #[test]
    fn wide_is_exactly_ten_percent_and_always_the_hottest_key() {
        let script = build(&shape(), 14);
        assert_eq!(script.len(), 400);
        let wide: Vec<&Item> = script.iter().filter(|i| i.class == Class::Wide).collect();
        assert_eq!(wide.len(), 40);
        assert!(wide.iter().all(|i| i.query == Query::Backward { key: 0 }));
        for &(class, count) in &COUNTS {
            assert_eq!(script.iter().filter(|i| i.class == class).count(), count);
        }
    }

    #[test]
    fn narrow_classes_never_name_the_hottest_key() {
        for item in build(&shape(), 15) {
            match (&item.class, &item.query) {
                (Class::Wide, _) => {}
                (_, Query::Backward { key })
                | (_, Query::Crossfilter { key, .. })
                | (_, Query::Drilldown { key })
                | (_, Query::Linked { key }) => assert!((1..100).contains(key)),
                (_, Query::Predicate { keys }) => {
                    let mut k = keys.to_vec();
                    k.dedup();
                    assert_eq!(k.len(), 4);
                    assert!(keys.iter().all(|k| (50..100).contains(k)));
                }
                (_, Query::Forward { rids }) => assert!(rids.iter().all(|&r| r < 10_000)),
                (_, Query::Region { .. }) => unreachable!(),
            }
        }
    }

    #[test]
    fn scripts_are_a_function_of_the_seed() {
        assert_eq!(build(&shape(), 14), build(&shape(), 14));
        assert_ne!(build(&shape(), 14), build(&shape(), 15));
    }

    #[test]
    fn every_seed_asks_for_the_same_ranks() {
        let keys = |seed| {
            let mut keys: Vec<(Class, u32)> = build(&shape(), seed)
                .into_iter()
                .filter_map(|i| match i.query {
                    Query::Backward { key } | Query::Drilldown { key } | Query::Linked { key } => {
                        Some((i.class, key))
                    }
                    Query::Crossfilter { key, .. } => Some((i.class, key)),
                    _ => None,
                })
                .collect();
            keys.sort();
            keys
        };
        assert_eq!(keys(14), keys(15));
        // Stratified over Zipf: hot ranks recur, the tail is sampled thinly.
        let brush: Vec<u32> = keys(14)
            .into_iter()
            .filter(|k| k.0 == Class::Brush)
            .map(|k| k.1)
            .collect();
        assert_eq!(brush.len(), 80);
        assert!(brush.iter().filter(|&&k| k == 1).count() >= 8, "{brush:?}");
        assert!(brush.iter().any(|&k| k >= 90), "{brush:?}");
    }

    #[test]
    #[should_panic(expected = "exactly 10 %")]
    fn a_script_with_the_wrong_wide_share_is_refused() {
        let counts = [(Class::Wide, 5), (Class::Brush, 10)];
        build(
            &Shape {
                counts: &counts,
                ..shape()
            },
            1,
        );
    }
}
