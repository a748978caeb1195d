// Fixture: a hand-copied aggregate fold — the match on `AggFunc` next to
// `AggState::update` that `AggInputs::fold` already is.
pub fn fold_row(aggs: &[AggExpr], states: &mut [AggState], rel: &Relation, rid: usize) {
    for (agg, state) in aggs.iter().zip(states) {
        match (&agg.func, column_of(rel, agg)) {
            (AggFunc::Count, _) => state.update(0.0),
            (AggFunc::CountDistinct, Some(c)) => state.update_key(&rel.value(rid, c).group_key()),
            (_, Some(c)) => state.update(rel.column(c).numeric(rid).unwrap_or(0.0)),
            (_, None) => state.update(0.0),
        }
    }
}
