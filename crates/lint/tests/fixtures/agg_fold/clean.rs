// Fixture: folding through the one fold, and naming `AggFunc` variants for
// something other than folding (a wire codec), are both fine.
pub fn fold_group(input: &Relation, aggs: &[AggExpr], rids: &[Rid]) -> Result<Vec<Value>> {
    let agg_inputs = AggInputs::resolve(input, aggs)?;
    let mut states: Vec<AggState> = aggs.iter().map(AggExpr::new_state).collect();
    for &rid in rids {
        agg_inputs.update(&mut states, aggs, rid as usize);
    }
    Ok(states.iter().map(AggState::finalize).collect())
}

pub fn func_name(func: AggFunc) -> &'static str {
    match func {
        AggFunc::Count => "count",
        AggFunc::CountDistinct => "count_distinct",
        _ => "other",
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_fold_by_hand() {
        let mut state = AggExpr::count("c").new_state();
        if matches!(AggFunc::Count, AggFunc::Count) {
            state.update(0.0);
        }
    }
}
