//! Wire encoding of the planner API: the declarative [`LineageQuery`] *is*
//! the serving layer's protocol, so this module gives it an owned,
//! JSON-serializable mirror ([`QuerySpec`]) plus encoders for
//! [`LineageResult`] and [`Explain`].
//!
//! A [`QuerySpec`] differs from a [`LineageQuery`] in exactly one way: the
//! multi-view compose chain names views (`then_through("by_bin")`) instead of
//! borrowing `&LineageIndex`es — a remote client cannot hold index
//! references. The server resolves names against its snapshot with
//! [`QuerySpec::to_query`].
//!
//! [`QuerySpec::normalized`] canonicalizes a spec (sorted/deduped rid sets,
//! commutative operands ordered, literal-first comparisons flipped) so that
//! semantically equivalent queries render to the same [`QuerySpec::cache_key`]
//! — the key the serving layer's plan/result cache is built on.
//!
//! A [`LineageResult`] crosses the wire without a tree node per rid:
//! [`write_result`] writes its text directly, and [`result_from_reply`]
//! decodes the rid list that [`crate::json::parse_reply`] lifted out of the
//! body. [`result_to_json`] and [`result_from_json`] are the tree-building
//! reference those two are tested against, byte for byte and value for
//! value; the serving path runs neither.

use smoke_core::{AggExpr, AggFunc, ArithOp, CmpOp, EngineError, Expr, Result};
use smoke_lineage::LineageIndex;
use smoke_storage::{DataType, Relation, Rid, Value};

use crate::json::{parse, render_u32_array, Json};
use crate::{Direction, Explain, LineageQuery, LineageResult, Strategy};

/// How a [`QuerySpec`] selects its starting rids (an owned mirror of
/// [`crate::Selection`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SelectionSpec {
    /// Every position of the traced relation.
    All,
    /// An explicit rid set.
    Rids(Vec<Rid>),
    /// The rids whose rows satisfy a predicate.
    Predicate(Expr),
}

/// An owned, wire-serializable lineage query.
///
/// ```
/// use smoke_core::{AggExpr, Expr};
/// use smoke_planner::wire::QuerySpec;
///
/// let spec = QuerySpec::backward()
///     .rids([3, 1, 3])
///     .filter(Expr::col("v_bin").eq(Expr::lit(2)))
///     .aggregate(&["v_bin"], vec![AggExpr::count("cnt")]);
/// let decoded = QuerySpec::decode(&spec.encode()).unwrap();
/// assert_eq!(decoded, spec);
/// // Equivalent specs share a cache key: rid order and duplicates are
/// // normalized away.
/// assert_eq!(
///     spec.cache_key(),
///     QuerySpec::backward()
///         .rids([1, 3])
///         .filter(Expr::lit(2).eq(Expr::col("v_bin")))
///         .aggregate(&["v_bin"], vec![AggExpr::count("cnt")])
///         .cache_key()
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Trace direction.
    pub direction: Direction,
    /// Starting-rid selection.
    pub selection: SelectionSpec,
    /// Names of the views whose forward indexes the trace composes through
    /// (multi-view queries only).
    pub chain: Vec<String>,
    /// Residual filter over the traced rows.
    pub filter: Option<Expr>,
    /// Group-by keys of the consuming aggregate.
    pub keys: Vec<String>,
    /// Aggregate expressions of the consuming aggregate.
    pub aggs: Vec<AggExpr>,
    /// Forces a specific strategy instead of the cost-based choice.
    pub strategy: Option<Strategy>,
}

impl QuerySpec {
    fn new(direction: Direction) -> Self {
        QuerySpec {
            direction,
            selection: SelectionSpec::All,
            chain: Vec::new(),
            filter: None,
            keys: Vec::new(),
            aggs: Vec::new(),
            strategy: None,
        }
    }

    /// A backward query (output → base).
    pub fn backward() -> Self {
        QuerySpec::new(Direction::Backward)
    }

    /// A forward query (base → output).
    pub fn forward() -> Self {
        QuerySpec::new(Direction::Forward)
    }

    /// A multi-view query; add chain entries with [`QuerySpec::then_through`].
    pub fn multi_view() -> Self {
        QuerySpec::new(Direction::MultiView)
    }

    /// Starts the trace from an explicit rid set.
    pub fn rids(mut self, rids: impl IntoIterator<Item = Rid>) -> Self {
        self.selection = SelectionSpec::Rids(rids.into_iter().collect());
        self
    }

    /// Starts the trace from the rows matching `predicate`.
    pub fn matching(mut self, predicate: Expr) -> Self {
        self.selection = SelectionSpec::Predicate(predicate);
        self
    }

    /// Appends a view name to the compose chain.
    pub fn then_through(mut self, view: impl Into<String>) -> Self {
        self.chain.push(view.into());
        self
    }

    /// Restricts the traced rows to those satisfying `predicate`.
    pub fn filter(mut self, predicate: Expr) -> Self {
        self.filter = Some(predicate);
        self
    }

    /// Aggregates the traced rows.
    pub fn aggregate(mut self, keys: &[&str], aggs: Vec<AggExpr>) -> Self {
        self.keys = keys.iter().map(|k| k.to_string()).collect();
        self.aggs = aggs;
        self
    }

    /// Forces the given strategy instead of the planner's choice.
    pub fn force(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Resolves the spec into an executable [`LineageQuery`], mapping each
    /// chain entry to an index through `resolve` (typically "the forward
    /// index of the named view"). Unresolvable names error.
    pub fn to_query<'i>(
        &self,
        mut resolve: impl FnMut(&str) -> Option<&'i LineageIndex>,
    ) -> Result<LineageQuery<'i>> {
        let mut query = match self.direction {
            Direction::Backward => LineageQuery::backward(),
            Direction::Forward => LineageQuery::forward(),
            Direction::MultiView => LineageQuery::multi_view(),
        };
        query = match &self.selection {
            SelectionSpec::All => query,
            SelectionSpec::Rids(rids) => query.rids(rids.iter().copied()),
            SelectionSpec::Predicate(p) => query.matching(p.clone()),
        };
        for view in &self.chain {
            let idx = resolve(view).ok_or_else(|| {
                EngineError::InvalidPlan(format!(
                    "`then_through` names unknown or index-less view `{view}`"
                ))
            })?;
            query = query.then_through(idx);
        }
        if let Some(f) = &self.filter {
            query = query.filter(f.clone());
        }
        if !self.keys.is_empty() || !self.aggs.is_empty() {
            let keys: Vec<&str> = self.keys.iter().map(|k| k.as_str()).collect();
            query = query.aggregate(&keys, self.aggs.clone());
        }
        Ok(query)
    }

    /// The canonical form of this spec: rid sets sorted and deduplicated,
    /// commutative boolean/equality operands ordered, `IN` lists sorted. Two
    /// specs that normalize identically answer identically.
    pub fn normalized(&self) -> QuerySpec {
        let selection = match &self.selection {
            SelectionSpec::All => SelectionSpec::All,
            SelectionSpec::Rids(rids) => {
                let mut rids = rids.clone();
                rids.sort_unstable();
                rids.dedup();
                SelectionSpec::Rids(rids)
            }
            SelectionSpec::Predicate(p) => SelectionSpec::Predicate(normalize_expr(p)),
        };
        QuerySpec {
            direction: self.direction,
            selection,
            chain: self.chain.clone(),
            filter: self.filter.as_ref().map(normalize_expr),
            keys: self.keys.clone(),
            aggs: self.aggs.clone(),
            strategy: self.strategy,
        }
    }

    /// The cache key of this spec: the compact encoding of its normalized
    /// form. Equivalent queries collide (by design); distinct queries differ.
    pub fn cache_key(&self) -> String {
        self.normalized().encode()
    }

    /// Encodes the spec as compact JSON.
    pub fn encode(&self) -> String {
        self.to_json().render()
    }

    /// Decodes a spec from JSON text.
    pub fn decode(text: &str) -> Result<QuerySpec> {
        QuerySpec::from_json(&parse(text)?)
    }

    /// The spec as a [`Json`] value (for embedding in larger messages).
    pub fn to_json(&self) -> Json {
        let sel = match &self.selection {
            SelectionSpec::All => Json::str("all"),
            SelectionSpec::Rids(rids) => {
                Json::Arr(rids.iter().map(|&r| Json::Int(r as i64)).collect())
            }
            SelectionSpec::Predicate(p) => Json::obj([("pred", expr_to_json(p))]),
        };
        Json::obj([
            ("dir", Json::str(direction_name(self.direction))),
            ("sel", sel),
            (
                "chain",
                Json::Arr(self.chain.iter().map(Json::str).collect()),
            ),
            (
                "filter",
                self.filter.as_ref().map_or(Json::Null, expr_to_json),
            ),
            ("keys", Json::Arr(self.keys.iter().map(Json::str).collect())),
            (
                "aggs",
                Json::Arr(self.aggs.iter().map(agg_to_json).collect()),
            ),
            (
                "strategy",
                self.strategy
                    .map_or(Json::Null, |s| Json::str(s.to_string())),
            ),
        ])
    }

    /// Parses a spec out of a [`Json`] value.
    pub fn from_json(v: &Json) -> Result<QuerySpec> {
        let direction = direction_from_name(
            v.get("dir")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("query is missing `dir`"))?,
        )?;
        let selection = match v.get("sel") {
            Some(Json::Str(s)) if s == "all" => SelectionSpec::All,
            Some(Json::Arr(items)) => SelectionSpec::Rids(
                items
                    .iter()
                    .map(|i| {
                        i.as_i64()
                            .and_then(|r| u32::try_from(r).ok())
                            .ok_or_else(|| bad("rid sets must contain non-negative integers"))
                    })
                    .collect::<Result<_>>()?,
            ),
            Some(obj) => match obj.get("pred") {
                Some(pred) => SelectionSpec::Predicate(expr_from_json(pred)?),
                None => return Err(bad("query is missing a valid `sel`")),
            },
            None => return Err(bad("query is missing a valid `sel`")),
        };
        let chain = match v.get("chain") {
            None | Some(Json::Null) => Vec::new(),
            Some(Json::Arr(items)) => items
                .iter()
                .map(|i| {
                    i.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| bad("chain entries must be view names"))
                })
                .collect::<Result<_>>()?,
            _ => return Err(bad("`chain` must be an array of view names")),
        };
        let filter = match v.get("filter") {
            None | Some(Json::Null) => None,
            Some(f) => Some(expr_from_json(f)?),
        };
        let keys = match v.get("keys") {
            None | Some(Json::Null) => Vec::new(),
            Some(Json::Arr(items)) => items
                .iter()
                .map(|i| {
                    i.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| bad("group-by keys must be strings"))
                })
                .collect::<Result<_>>()?,
            _ => return Err(bad("`keys` must be an array of column names")),
        };
        let aggs = match v.get("aggs") {
            None | Some(Json::Null) => Vec::new(),
            Some(Json::Arr(items)) => items.iter().map(agg_from_json).collect::<Result<_>>()?,
            _ => return Err(bad("`aggs` must be an array")),
        };
        let strategy = match v.get("strategy") {
            None | Some(Json::Null) => None,
            Some(s) => Some(strategy_from_name(
                s.as_str().ok_or_else(|| bad("`strategy` must be a name"))?,
            )?),
        };
        Ok(QuerySpec {
            direction,
            selection,
            chain,
            filter,
            keys,
            aggs,
            strategy,
        })
    }
}

fn bad(msg: &str) -> EngineError {
    EngineError::InvalidPlan(format!("wire decode: {msg}"))
}

// ---- names ----------------------------------------------------------------

fn direction_name(d: Direction) -> &'static str {
    match d {
        Direction::Backward => "backward",
        Direction::Forward => "forward",
        Direction::MultiView => "multi_view",
    }
}

fn direction_from_name(name: &str) -> Result<Direction> {
    match name {
        "backward" => Ok(Direction::Backward),
        "forward" => Ok(Direction::Forward),
        "multi_view" => Ok(Direction::MultiView),
        other => Err(bad(&format!("unknown direction `{other}`"))),
    }
}

/// Parses a [`Strategy`] from its `Display` name.
pub fn strategy_from_name(name: &str) -> Result<Strategy> {
    match name {
        "EagerTrace" => Ok(Strategy::EagerTrace),
        "LazyRewrite" => Ok(Strategy::LazyRewrite),
        "PartitionPruned" => Ok(Strategy::PartitionPruned),
        "CubeHit" => Ok(Strategy::CubeHit),
        other => Err(bad(&format!("unknown strategy `{other}`"))),
    }
}

fn cmp_name(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "eq",
        CmpOp::Ne => "ne",
        CmpOp::Lt => "lt",
        CmpOp::Le => "le",
        CmpOp::Gt => "gt",
        CmpOp::Ge => "ge",
    }
}

fn cmp_from_name(name: &str) -> Result<CmpOp> {
    match name {
        "eq" => Ok(CmpOp::Eq),
        "ne" => Ok(CmpOp::Ne),
        "lt" => Ok(CmpOp::Lt),
        "le" => Ok(CmpOp::Le),
        "gt" => Ok(CmpOp::Gt),
        "ge" => Ok(CmpOp::Ge),
        other => Err(bad(&format!("unknown comparison `{other}`"))),
    }
}

/// The mirror of a comparison when its operands are swapped
/// (`lit < col` ≡ `col > lit`).
fn cmp_mirror(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

fn arith_name(op: ArithOp) -> &'static str {
    match op {
        ArithOp::Add => "add",
        ArithOp::Sub => "sub",
        ArithOp::Mul => "mul",
        ArithOp::Div => "div",
    }
}

fn arith_from_name(name: &str) -> Result<ArithOp> {
    match name {
        "add" => Ok(ArithOp::Add),
        "sub" => Ok(ArithOp::Sub),
        "mul" => Ok(ArithOp::Mul),
        "div" => Ok(ArithOp::Div),
        other => Err(bad(&format!("unknown arithmetic op `{other}`"))),
    }
}

fn agg_func_name(f: AggFunc) -> &'static str {
    match f {
        AggFunc::Count => "count",
        AggFunc::Sum => "sum",
        AggFunc::SumSq => "sum_sq",
        AggFunc::SumSqrt => "sum_sqrt",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
        AggFunc::Avg => "avg",
        AggFunc::CountDistinct => "count_distinct",
    }
}

fn agg_func_from_name(name: &str) -> Result<AggFunc> {
    match name {
        "count" => Ok(AggFunc::Count),
        "sum" => Ok(AggFunc::Sum),
        "sum_sq" => Ok(AggFunc::SumSq),
        "sum_sqrt" => Ok(AggFunc::SumSqrt),
        "min" => Ok(AggFunc::Min),
        "max" => Ok(AggFunc::Max),
        "avg" => Ok(AggFunc::Avg),
        "count_distinct" => Ok(AggFunc::CountDistinct),
        other => Err(bad(&format!("unknown aggregate function `{other}`"))),
    }
}

fn datatype_name(t: DataType) -> &'static str {
    match t {
        DataType::Int => "int",
        DataType::Float => "float",
        DataType::Str => "str",
    }
}

fn datatype_from_name(name: &str) -> Result<DataType> {
    match name {
        "int" => Ok(DataType::Int),
        "float" => Ok(DataType::Float),
        "str" => Ok(DataType::Str),
        other => Err(bad(&format!("unknown data type `{other}`"))),
    }
}

// ---- values / expressions / aggregates ------------------------------------

/// Encodes a [`Value`] as a tagged JSON object (`{"i":5}`, `{"f":2.5}`,
/// `{"s":"x"}`), keeping the Int/Float distinction the engine's coercion
/// rules depend on.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::obj([("i", Json::Int(*i))]),
        Value::Float(f) => Json::obj([("f", Json::Num(*f))]),
        Value::Str(s) => Json::obj([("s", Json::str(s.clone()))]),
    }
}

/// Decodes a tagged [`Value`].
pub fn value_from_json(v: &Json) -> Result<Value> {
    if let Some(i) = v.get("i") {
        return i
            .as_i64()
            .map(Value::Int)
            .ok_or_else(|| bad("`i` values must be integers"));
    }
    if let Some(f) = v.get("f") {
        return f
            .as_f64()
            .map(Value::Float)
            .ok_or_else(|| bad("`f` values must be numbers"));
    }
    if let Some(s) = v.get("s") {
        return s
            .as_str()
            .map(|s| Value::Str(s.to_string()))
            .ok_or_else(|| bad("`s` values must be strings"));
    }
    Err(bad("values must be tagged {\"i\"|\"f\"|\"s\": ...}"))
}

/// Encodes an expression tree as tagged JSON.
pub fn expr_to_json(e: &Expr) -> Json {
    match e {
        Expr::Column(name) => Json::obj([("col", Json::str(name.clone()))]),
        Expr::Literal(v) => Json::obj([("lit", value_to_json(v))]),
        Expr::Cmp { op, left, right } => Json::obj([
            ("cmp", Json::str(cmp_name(*op))),
            ("l", expr_to_json(left)),
            ("r", expr_to_json(right)),
        ]),
        Expr::Arith { op, left, right } => Json::obj([
            ("arith", Json::str(arith_name(*op))),
            ("l", expr_to_json(left)),
            ("r", expr_to_json(right)),
        ]),
        Expr::And(l, r) => Json::obj([("and", Json::Arr(vec![expr_to_json(l), expr_to_json(r)]))]),
        Expr::Or(l, r) => Json::obj([("or", Json::Arr(vec![expr_to_json(l), expr_to_json(r)]))]),
        Expr::Not(inner) => Json::obj([("not", expr_to_json(inner))]),
        Expr::InList { expr, list } => Json::obj([
            ("in", expr_to_json(expr)),
            ("list", Json::Arr(list.iter().map(value_to_json).collect())),
        ]),
    }
}

/// Decodes an expression tree.
///
/// This recurses once per nesting level, as deep as the parser admits
/// ([`crate::json::MAX_DEPTH`]). Every node with children decodes in a
/// helper of its own, so the frame that repeats per level stays small even
/// in an unoptimized build, where the admitted depth fits a 2 MiB thread.
pub fn expr_from_json(v: &Json) -> Result<Expr> {
    if let Some(col) = v.get("col") {
        let name = col.as_str().ok_or_else(|| bad("`col` must be a string"))?;
        return Ok(Expr::Column(name.to_string()));
    }
    if let Some(lit) = v.get("lit") {
        return value_from_json(lit).map(Expr::Literal);
    }
    if let Some(op) = v.get("cmp") {
        return cmp_from_json(v, op);
    }
    if let Some(op) = v.get("arith") {
        return arith_from_json(v, op);
    }
    if let Some(Json::Arr(items)) = v.get("and") {
        return connective_from_json(items, Expr::And);
    }
    if let Some(Json::Arr(items)) = v.get("or") {
        return connective_from_json(items, Expr::Or);
    }
    if let Some(inner) = v.get("not") {
        return operand(inner).map(Expr::Not);
    }
    if let Some(inner) = v.get("in") {
        return in_list_from_json(v, inner);
    }
    Err(bad("unrecognized expression node"))
}

fn operand(v: &Json) -> Result<Box<Expr>> {
    expr_from_json(v).map(Box::new)
}

fn cmp_from_json(v: &Json, op: &Json) -> Result<Expr> {
    let op = cmp_from_name(op.as_str().ok_or_else(|| bad("`cmp` must be a name"))?)?;
    Ok(Expr::Cmp {
        op,
        left: operand(v.get("l").ok_or_else(|| bad("`cmp` needs `l`"))?)?,
        right: operand(v.get("r").ok_or_else(|| bad("`cmp` needs `r`"))?)?,
    })
}

fn arith_from_json(v: &Json, op: &Json) -> Result<Expr> {
    let op = arith_from_name(op.as_str().ok_or_else(|| bad("`arith` must be a name"))?)?;
    Ok(Expr::Arith {
        op,
        left: operand(v.get("l").ok_or_else(|| bad("`arith` needs `l`"))?)?,
        right: operand(v.get("r").ok_or_else(|| bad("`arith` needs `r`"))?)?,
    })
}

fn connective_from_json(items: &[Json], build: fn(Box<Expr>, Box<Expr>) -> Expr) -> Result<Expr> {
    let [l, r] = items else {
        return Err(bad("boolean connectives take exactly two operands"));
    };
    Ok(build(operand(l)?, operand(r)?))
}

fn in_list_from_json(v: &Json, inner: &Json) -> Result<Expr> {
    let list = v
        .get("list")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("`in` needs a `list` array"))?;
    Ok(Expr::InList {
        expr: operand(inner)?,
        list: list.iter().map(value_from_json).collect::<Result<_>>()?,
    })
}

fn agg_to_json(a: &AggExpr) -> Json {
    Json::obj([
        ("fn", Json::str(agg_func_name(a.func))),
        (
            "col",
            a.column
                .as_ref()
                .map_or(Json::Null, |c| Json::str(c.clone())),
        ),
        ("as", Json::str(a.alias.clone())),
    ])
}

fn agg_from_json(v: &Json) -> Result<AggExpr> {
    let func = agg_func_from_name(
        v.get("fn")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("aggregates need a `fn` name"))?,
    )?;
    let column = match v.get("col") {
        None | Some(Json::Null) => None,
        Some(c) => Some(
            c.as_str()
                .ok_or_else(|| bad("aggregate `col` must be a string"))?
                .to_string(),
        ),
    };
    let alias = v
        .get("as")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("aggregates need an `as` alias"))?
        .to_string();
    Ok(AggExpr {
        func,
        column,
        alias,
    })
}

// ---- normalization --------------------------------------------------------

/// Canonicalizes an expression: commutative operands ordered by their
/// encoding, literal-first comparisons flipped column-first (with the
/// operator mirrored), `IN` lists sorted and deduplicated.
fn normalize_expr(e: &Expr) -> Expr {
    match e {
        Expr::Column(_) | Expr::Literal(_) => e.clone(),
        Expr::Cmp { op, left, right } => {
            let l = normalize_expr(left);
            let r = normalize_expr(right);
            if matches!(l, Expr::Literal(_)) && !matches!(r, Expr::Literal(_)) {
                Expr::Cmp {
                    op: cmp_mirror(*op),
                    left: Box::new(r),
                    right: Box::new(l),
                }
            } else {
                Expr::Cmp {
                    op: *op,
                    left: Box::new(l),
                    right: Box::new(r),
                }
            }
        }
        Expr::Arith { op, left, right } => Expr::Arith {
            op: *op,
            left: Box::new(normalize_expr(left)),
            right: Box::new(normalize_expr(right)),
        },
        Expr::And(l, r) => {
            let (l, r) = ordered_pair(normalize_expr(l), normalize_expr(r));
            Expr::And(Box::new(l), Box::new(r))
        }
        Expr::Or(l, r) => {
            let (l, r) = ordered_pair(normalize_expr(l), normalize_expr(r));
            Expr::Or(Box::new(l), Box::new(r))
        }
        Expr::Not(inner) => Expr::Not(Box::new(normalize_expr(inner))),
        Expr::InList { expr, list } => {
            let mut list = list.clone();
            list.sort_by(|a, b| a.total_cmp(b));
            list.dedup_by(|a, b| a.total_cmp(b) == std::cmp::Ordering::Equal);
            Expr::InList {
                expr: Box::new(normalize_expr(expr)),
                list,
            }
        }
    }
}

/// Orders two commutative operands by their rendered encoding.
fn ordered_pair(l: Expr, r: Expr) -> (Expr, Expr) {
    if expr_to_json(&l).render() <= expr_to_json(&r).render() {
        (l, r)
    } else {
        (r, l)
    }
}

// ---- relations / results / explain ----------------------------------------

/// Encodes a relation as `{"name", "schema": [[col, type], ...],
/// "data": [[value, ...], ...]}`.
pub fn relation_to_json(rel: &Relation) -> Json {
    let schema = Json::Arr(
        rel.schema()
            .fields()
            .iter()
            .map(|f| {
                Json::Arr(vec![
                    Json::str(f.name.clone()),
                    Json::str(datatype_name(f.data_type)),
                ])
            })
            .collect(),
    );
    let data = Json::Arr(
        (0..rel.len())
            .map(|rid| {
                Json::Arr(
                    (0..rel.columns().len())
                        .map(|c| value_to_json(&rel.value(rid, c)))
                        .collect(),
                )
            })
            .collect(),
    );
    Json::obj([
        ("name", Json::str(rel.name().to_string())),
        ("schema", schema),
        ("data", data),
    ])
}

/// Decodes a relation encoded by [`relation_to_json`].
pub fn relation_from_json(v: &Json) -> Result<Relation> {
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("relations need a `name`"))?;
    let schema = v
        .get("schema")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("relations need a `schema` array"))?;
    let mut builder = Relation::builder(name);
    for field in schema {
        let [col, ty] = field.as_arr().unwrap_or_default() else {
            return Err(bad("schema entries are [name, type] pairs"));
        };
        let col = col
            .as_str()
            .ok_or_else(|| bad("schema column names must be strings"))?;
        let ty = datatype_from_name(
            ty.as_str()
                .ok_or_else(|| bad("schema types must be names"))?,
        )?;
        builder = builder.column(col, ty);
    }
    let data = v
        .get("data")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("relations need a `data` array"))?;
    for row in data {
        let cells = row
            .as_arr()
            .ok_or_else(|| bad("relation rows must be arrays"))?;
        builder = builder.row(cells.iter().map(value_from_json).collect::<Result<_>>()?);
    }
    builder.build().map_err(EngineError::from)
}

/// Encodes a [`LineageResult`] as a tree: the reference encoding. The
/// server writes the same bytes with [`write_result`]; this stays public
/// because the benchmark names it (see ROADMAP item 11(h)).
pub fn result_to_json(result: &LineageResult) -> Json {
    Json::obj([
        ("strategy", Json::str(result.strategy.to_string())),
        (
            "rids",
            Json::Arr(result.rids.iter().map(|&r| Json::Int(r as i64)).collect()),
        ),
        (
            "rows",
            result.rows.as_ref().map_or(Json::Null, relation_to_json),
        ),
    ])
}

/// Decodes a [`LineageResult`] encoded by [`result_to_json`]: the reference
/// decoding. The client decodes the same bodies to the same values with
/// [`result_from_reply`]; this stays public because the benchmark names it
/// (see ROADMAP item 11(h)).
pub fn result_from_json(v: &Json) -> Result<LineageResult> {
    let strategy = strategy_from_name(
        v.get("strategy")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("results need a `strategy`"))?,
    )?;
    let rids = v
        .get("rids")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("results need a `rids` array"))?
        .iter()
        .map(|i| {
            i.as_i64()
                .and_then(|r| u32::try_from(r).ok())
                .ok_or_else(|| bad("result rids must be non-negative integers"))
        })
        .collect::<Result<_>>()?;
    let rows = match v.get("rows") {
        None | Some(Json::Null) => None,
        Some(r) => Some(relation_from_json(r)?),
    };
    Ok(LineageResult {
        strategy,
        rids,
        rows,
    })
}

/// Appends the text of `result_to_json(result)` to `out`, byte for byte,
/// without building the tree: the rids go straight through the integer
/// renderer. This is what the server sends.
pub fn write_result(result: &LineageResult, out: &mut String) {
    out.push_str("{\"strategy\":");
    Json::str(result.strategy.to_string()).render_into(out);
    out.push_str(",\"rids\":");
    render_u32_array(&result.rids, out);
    out.push_str(",\"rows\":");
    result
        .rows
        .as_ref()
        .map_or(Json::Null, relation_to_json)
        .render_into(out);
    out.push('}');
}

/// Decodes the `"result"` object of a reply read by
/// [`parse_reply`](crate::json::parse_reply), with the rid list it lifted
/// out of that object: the same value, or the same failure, as
/// [`result_from_json`] over what [`parse`] reads. The lifted slot holds an
/// empty array, which decodes like any other, and the lifted rids (all
/// `u32`s already) take its place.
pub fn result_from_reply(v: &Json, rids: Option<Vec<Rid>>) -> Result<LineageResult> {
    let mut result = result_from_json(v)?;
    if let Some(rids) = rids {
        result.rids = rids;
    }
    Ok(result)
}

/// Encodes an [`Explain`] record. Infeasible candidates carry `"cost": null`
/// (JSON cannot express infinity). `"residency"` is `null` and every
/// `"pages"` estimate `0` when the planner had no I/O model (in-RAM base).
pub fn explain_to_json(explain: &Explain) -> Json {
    let cost = |c: f64| {
        if c.is_finite() {
            Json::Num(c)
        } else {
            Json::Null
        }
    };
    Json::obj([
        ("strategy", Json::str(explain.strategy.to_string())),
        ("cost", cost(explain.cost)),
        ("width", Json::Int(explain.selection_width as i64)),
        ("fanout", Json::Num(explain.est_fanout)),
        ("residency", explain.residency.map_or(Json::Null, Json::Num)),
        (
            "candidates",
            Json::Arr(
                explain
                    .candidates
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("strategy", Json::str(c.strategy.to_string())),
                            ("cost", cost(c.cost)),
                            ("pages", Json::Num(c.est_pages)),
                            ("feasible", Json::Bool(c.feasible)),
                            ("note", Json::str(c.note.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(spec: &QuerySpec) {
        let decoded = QuerySpec::decode(&spec.encode()).unwrap();
        assert_eq!(&decoded, spec);
    }

    #[test]
    fn specs_round_trip() {
        roundtrip(&QuerySpec::backward());
        roundtrip(&QuerySpec::forward().rids([0, 7, 3]));
        roundtrip(
            &QuerySpec::multi_view()
                .rids([1])
                .then_through("by_bin")
                .then_through("by_z"),
        );
        roundtrip(
            &QuerySpec::backward()
                .matching(Expr::col("cnt").ge(Expr::lit(10)))
                .filter(
                    Expr::col("v")
                        .lt(Expr::lit(40.0))
                        .and(Expr::col("z").eq(Expr::lit(1))),
                )
                .aggregate(
                    &["v_bin"],
                    vec![AggExpr::count("c"), AggExpr::sum("v", "total")],
                )
                .force(Strategy::LazyRewrite),
        );
    }

    #[test]
    fn normalization_identifies_equivalent_specs() {
        let a = QuerySpec::backward().rids([3, 1, 2, 2]);
        let b = QuerySpec::backward().rids([1, 2, 3]);
        assert_eq!(a.cache_key(), b.cache_key());

        let flipped = QuerySpec::backward()
            .rids([0])
            .filter(Expr::lit(3).eq(Expr::col("v_bin")));
        let straight = QuerySpec::backward()
            .rids([0])
            .filter(Expr::col("v_bin").eq(Expr::lit(3)));
        assert_eq!(flipped.cache_key(), straight.cache_key());

        let and_lr = QuerySpec::backward().rids([0]).filter(
            Expr::col("a")
                .gt(Expr::lit(1))
                .and(Expr::col("b").lt(Expr::lit(2))),
        );
        let and_rl = QuerySpec::backward().rids([0]).filter(
            Expr::col("b")
                .lt(Expr::lit(2))
                .and(Expr::col("a").gt(Expr::lit(1))),
        );
        assert_eq!(and_lr.cache_key(), and_rl.cache_key());
    }

    #[test]
    fn normalization_mirrors_inequalities_when_flipping() {
        // `5 < col` must normalize to `col > 5`, not `col < 5`.
        let flipped = QuerySpec::backward()
            .rids([0])
            .filter(Expr::lit(5).lt(Expr::col("x")));
        let straight = QuerySpec::backward()
            .rids([0])
            .filter(Expr::col("x").gt(Expr::lit(5)));
        let wrong = QuerySpec::backward()
            .rids([0])
            .filter(Expr::col("x").lt(Expr::lit(5)));
        assert_eq!(flipped.cache_key(), straight.cache_key());
        assert_ne!(flipped.cache_key(), wrong.cache_key());
    }

    #[test]
    fn distinct_specs_keep_distinct_keys() {
        let base = QuerySpec::backward().rids([1]);
        assert_ne!(
            base.cache_key(),
            QuerySpec::backward().rids([2]).cache_key()
        );
        assert_ne!(base.cache_key(), QuerySpec::forward().rids([1]).cache_key());
        assert_ne!(
            base.cache_key(),
            base.clone().force(Strategy::EagerTrace).cache_key()
        );
        assert_ne!(
            base.cache_key(),
            base.clone()
                .aggregate(&["z"], vec![AggExpr::count("c")])
                .cache_key()
        );
    }

    #[test]
    fn in_list_normalization_sorts_and_dedups() {
        let a = QuerySpec::backward().rids([0]).filter(Expr::InList {
            expr: Box::new(Expr::col("z")),
            list: vec![Value::Int(3), Value::Int(1), Value::Int(3)],
        });
        let b = QuerySpec::backward().rids([0]).filter(Expr::InList {
            expr: Box::new(Expr::col("z")),
            list: vec![Value::Int(1), Value::Int(3)],
        });
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn to_query_resolves_chains_and_rejects_unknown_views() {
        let idx = LineageIndex::Identity(4);
        let spec = QuerySpec::multi_view().rids([0]).then_through("other");
        let q = spec
            .to_query(|name| (name == "other").then_some(&idx))
            .unwrap();
        assert_eq!(q.direction(), Direction::MultiView);
        assert!(spec.to_query(|_| None).is_err());
    }

    #[test]
    fn relations_round_trip() {
        let rel = Relation::builder("t")
            .column("k", DataType::Int)
            .column("v", DataType::Float)
            .column("s", DataType::Str)
            .row(vec![
                Value::Int(1),
                Value::Float(2.5),
                Value::Str("a".into()),
            ])
            .row(vec![
                Value::Int(-7),
                Value::Float(0.0),
                Value::Str("".into()),
            ])
            .build()
            .unwrap();
        let back = relation_from_json(&relation_to_json(&rel)).unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn results_round_trip_with_and_without_rows() {
        let bare = LineageResult {
            strategy: Strategy::EagerTrace,
            rids: vec![0, 5, 9],
            rows: None,
        };
        let back = result_from_json(&result_to_json(&bare)).unwrap();
        assert_eq!(back.strategy, Strategy::EagerTrace);
        assert_eq!(back.rids, vec![0, 5, 9]);
        assert!(back.rows.is_none());

        let with_rows = LineageResult {
            strategy: Strategy::CubeHit,
            rids: vec![],
            rows: Some(
                Relation::builder("answer")
                    .column("cnt", DataType::Int)
                    .row(vec![Value::Int(42)])
                    .build()
                    .unwrap(),
            ),
        };
        let back = result_from_json(&result_to_json(&with_rows)).unwrap();
        assert_eq!(back.rows.unwrap().value(0, 0), Value::Int(42));
    }

    #[test]
    fn decode_rejects_malformed_specs() {
        for bad in [
            "{}",
            r#"{"dir":"sideways","sel":"all"}"#,
            r#"{"dir":"backward","sel":[-1]}"#,
            r#"{"dir":"backward","sel":"all","strategy":"Magic"}"#,
            r#"{"dir":"backward","sel":"all","aggs":[{"fn":"median","as":"m"}]}"#,
        ] {
            assert!(QuerySpec::decode(bad).is_err(), "{bad} should fail");
        }
    }
}
