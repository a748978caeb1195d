//! Physical capture baselines: `Phys-Mem` and `Phys-Bdb` (paper §5,
//! Appendix B).
//!
//! Both baselines run the same capture logic as `Smoke-I`, but every lineage
//! edge is emitted through a **virtual function call** on a [`LineageSink`]
//! instead of being written inline — this isolates the cost the paper
//! attributes to decoupling capture from the execution engine. `Phys-Mem`
//! stores the edges in Smoke-style rid indexes; `Phys-Bdb` serializes each
//! edge into the external ordered key-value store.

use std::collections::HashMap;

use smoke_lineage::{InputLineage, LineageIndex, QueryLineage, RidIndex};
use smoke_storage::{Relation, Rid};

use crate::agg::{AggExpr, AggFunc, AggState};
use crate::baselines::extstore::{
    decode_rid, encode_key, encode_rid, ExternalKvStore, ExternalStore, DIR_BACKWARD, DIR_FORWARD,
};
use crate::error::Result;
use crate::key::{HashKey, KeyExtractor};

/// Destination of lineage edges emitted through virtual calls.
///
/// The trait is deliberately object-safe and invoked through `&mut dyn
/// LineageSink` so that every edge pays for dynamic dispatch, mirroring the
/// paper's `Phys-*` baselines.
pub trait LineageSink {
    /// Emits a backward edge: output rid → input rid.
    fn emit_backward(&mut self, out: Rid, input: Rid);
    /// Emits a forward edge: input rid → output rid.
    fn emit_forward(&mut self, input: Rid, out: Rid);
}

/// `Phys-Mem`: stores emitted edges in the same index structures Smoke uses,
/// but populated through the virtual-call API.
#[derive(Debug, Default)]
pub struct PhysMemSink {
    backward: RidIndex,
    forward: RidIndex,
}

impl PhysMemSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        PhysMemSink::default()
    }

    /// Seals the collected edges into end-to-end query lineage for `table`.
    pub fn into_lineage(self, table: &str) -> QueryLineage {
        let mut lineage = QueryLineage::new();
        lineage.insert(
            table,
            InputLineage::new(
                LineageIndex::Csr(self.backward.finalize()),
                LineageIndex::Csr(self.forward.finalize()),
            ),
        );
        lineage
    }
}

impl LineageSink for PhysMemSink {
    fn emit_backward(&mut self, out: Rid, input: Rid) {
        self.backward.append(out as usize, input);
    }

    fn emit_forward(&mut self, input: Rid, out: Rid) {
        self.forward.append(input as usize, out);
    }
}

/// `Phys-Bdb`: sends every edge to the external ordered key-value store with
/// byte-encoded keys and values.
#[derive(Debug, Default)]
pub struct ExternalStoreSink {
    store: ExternalKvStore,
}

impl ExternalStoreSink {
    /// Creates a sink over a fresh store.
    pub fn new() -> Self {
        ExternalStoreSink::default()
    }

    /// The underlying store (for read-side benchmarking).
    pub fn store(&self) -> &ExternalKvStore {
        &self.store
    }

    /// Reads the backward lineage of `out` through the store's cursor API.
    pub fn backward(&self, out: Rid) -> Vec<Rid> {
        self.store
            .cursor(&encode_key(DIR_BACKWARD, 0, out))
            .map(|b| decode_rid(b))
            .collect()
    }

    /// Reads the forward lineage of `input` through the store's cursor API.
    pub fn forward(&self, input: Rid) -> Vec<Rid> {
        self.store
            .cursor(&encode_key(DIR_FORWARD, 0, input))
            .map(|b| decode_rid(b))
            .collect()
    }
}

impl LineageSink for ExternalStoreSink {
    fn emit_backward(&mut self, out: Rid, input: Rid) {
        self.store
            .put(&encode_key(DIR_BACKWARD, 0, out), &encode_rid(input));
    }

    fn emit_forward(&mut self, input: Rid, out: Rid) {
        self.store
            .put(&encode_key(DIR_FORWARD, 0, input), &encode_rid(out));
    }
}

/// Runs the group-by microbenchmark query with physical (sink-based) capture:
/// identical aggregation logic to the Inject operator, but every lineage edge
/// goes through a virtual `emit_*` call.
pub fn group_by_with_sink(
    input: &Relation,
    keys: &[String],
    aggs: &[AggExpr],
    sink: &mut dyn LineageSink,
) -> Result<Relation> {
    let extractor = KeyExtractor::new(input, keys)?;
    let agg_cols: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| match &a.column {
            Some(c) => input.column_index(c).map(Some),
            None => Ok(None),
        })
        .collect::<std::result::Result<_, _>>()?;

    let mut ht: HashMap<HashKey, u32> = HashMap::new();
    let mut groups: Vec<(Vec<smoke_storage::Value>, Vec<AggState>)> = Vec::new();
    for rid in 0..input.len() {
        let key = extractor.key(rid);
        let gid = match ht.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let gid = groups.len() as u32;
                groups.push((
                    e.key().to_values(),
                    aggs.iter().map(AggExpr::new_state).collect(),
                ));
                e.insert(gid);
                gid
            }
        };
        let states = &mut groups[gid as usize].1;
        for (i, state) in states.iter_mut().enumerate() {
            match (&aggs[i].func, agg_cols[i]) {
                (AggFunc::Count, _) => state.update(0.0),
                (AggFunc::CountDistinct, Some(c)) => {
                    state.update_key(&input.value(rid, c).group_key())
                }
                (_, Some(c)) => state.update(input.column(c).numeric(rid).unwrap_or(0.0)),
                (_, None) => state.update(0.0),
            }
        }
        // One virtual call per edge and per direction — the cost the physical
        // baselines pay on top of Smoke-I.
        sink.emit_backward(gid, rid as Rid);
        sink.emit_forward(rid as Rid, gid);
    }

    let mut builder = Relation::builder(format!("groupby({})", input.name()));
    for name in keys {
        let idx = input.column_index(name)?;
        builder = builder.column(name.clone(), input.schema().field(idx).data_type);
    }
    for agg in aggs {
        builder = builder.column(agg.alias.clone(), agg.output_type());
    }
    for (key_values, states) in groups {
        let mut row = key_values;
        row.extend(states.iter().map(AggState::finalize));
        builder = builder.row(row);
    }
    Ok(builder.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::groupby::{group_by, GroupByOptions};
    use smoke_storage::{DataType, Value};

    fn rel() -> Relation {
        let mut b = Relation::builder("zipf")
            .column("z", DataType::Int)
            .column("v", DataType::Float);
        for (i, z) in [1, 2, 1, 3, 2, 1].iter().enumerate() {
            b = b.row(vec![Value::Int(*z), Value::Float(i as f64)]);
        }
        b.build().unwrap()
    }

    fn keys() -> Vec<String> {
        vec!["z".to_string()]
    }

    fn aggs() -> Vec<AggExpr> {
        vec![AggExpr::count("cnt"), AggExpr::sum("v", "s")]
    }

    #[test]
    fn phys_mem_matches_inject_lineage() {
        let r = rel();
        let mut sink = PhysMemSink::new();
        let output = group_by_with_sink(&r, &keys(), &aggs(), &mut sink).unwrap();
        let smoke = group_by(&r, &keys(), &aggs(), &GroupByOptions::inject()).unwrap();
        assert_eq!(output, smoke.output);

        let lineage = sink.into_lineage("zipf");
        for g in 0..output.len() as Rid {
            assert_eq!(
                lineage.backward(&[g], "zipf"),
                smoke.lineage.input(0).backward().lookup(g)
            );
        }
        for rid in 0..r.len() as Rid {
            assert_eq!(
                lineage.forward(&[rid], "zipf"),
                smoke.lineage.input(0).forward().lookup(rid)
            );
        }
    }

    #[test]
    fn phys_bdb_round_trips_through_byte_encoding() {
        let r = rel();
        let mut sink = ExternalStoreSink::new();
        let output = group_by_with_sink(&r, &keys(), &aggs(), &mut sink).unwrap();
        assert_eq!(output.len(), 3);
        // Backward lineage of group 0 (z=1).
        assert_eq!(sink.backward(0), vec![0, 2, 5]);
        assert_eq!(sink.forward(4), vec![1]);
        // The store holds one key per output group + one per input rid.
        assert_eq!(sink.store().key_count(), 3 + 6);
        assert_eq!(sink.store().value_count(), 12);
    }

    #[test]
    fn sinks_work_through_dyn_dispatch() {
        let r = rel();
        let sinks: Vec<Box<dyn LineageSink>> = vec![
            Box::new(PhysMemSink::new()),
            Box::new(ExternalStoreSink::new()),
        ];
        for mut sink in sinks {
            let out = group_by_with_sink(&r, &keys(), &aggs(), sink.as_mut()).unwrap();
            assert_eq!(out.len(), 3);
        }
    }
}
