//! Semantic analysis: names → indices, AST → [`LogicalPlan`].
//!
//! The analyzer resolves table/column names against a [`Catalog`], lowers
//! AST expressions onto the engine's positional [`Expr`] surface, and
//! assembles the logical plan (scan → join → filter → aggregate → having →
//! project → order/limit). Type checking comes free from
//! [`Expr::data_type`] — the analyzer's job is to run it at every lowered
//! node and map failures back to the **source span** of the AST node that
//! produced them, so a type mismatch three joins deep still points at the
//! right characters of the query text.

use std::sync::Arc;

use accordion_data::schema::{Field, Schema};
use accordion_data::sort::SortKey;
use accordion_data::types::{parse_date32, Value};
use accordion_expr::agg::{AggKind, AggSpec};
use accordion_expr::scalar::{BinaryOp, Expr};
use accordion_plan::catalog::Catalog;
use accordion_plan::logical::LogicalPlan;

use crate::ast;
use crate::error::{Span, SqlError};

/// Lowers parsed [`ast::Select`] statements to logical plans.
pub struct Analyzer<'a> {
    catalog: &'a Catalog,
    /// Original SQL text — used to derive output column names for
    /// unaliased expression items (`count(*)` keeps its spelling) and to
    /// match `ORDER BY` expressions against projected items.
    src: &'a str,
}

/// One resolvable column: where it came from and where it lives.
struct ScopeColumn {
    qualifier: String,
    name: String,
}

/// The flat namespace of the current FROM clause: columns of every joined
/// table, in plan output order.
struct Scope {
    columns: Vec<ScopeColumn>,
    schema: Schema,
}

impl Scope {
    fn resolve(
        &self,
        qualifier: Option<&ast::Ident>,
        name: &ast::Ident,
    ) -> Result<usize, SqlError> {
        let want_q = qualifier.map(|q| q.lower());
        let want_n = name.lower();
        let matches: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.name == want_n && want_q.as_deref().map(|q| c.qualifier == q).unwrap_or(true)
            })
            .map(|(i, _)| i)
            .collect();
        let span = qualifier.map(|q| q.span.to(name.span)).unwrap_or(name.span);
        let display = match qualifier {
            Some(q) => format!("{}.{}", q.value, name.value),
            None => name.value.clone(),
        };
        match matches.len() {
            0 => Err(SqlError::analysis(
                format!("unknown column '{display}'"),
                span,
            )),
            1 => Ok(matches[0]),
            _ => Err(SqlError::analysis(
                format!("ambiguous column '{display}' (qualify it with a table name)"),
                span,
            )),
        }
    }
}

/// A collected aggregate call, keyed for structural dedup.
struct CollectedAgg {
    kind: AggKind,
    /// Lowered input expression; `None` for `count(*)`.
    input: Option<Expr>,
    spec: AggSpec,
}

impl<'a> Analyzer<'a> {
    pub fn new(catalog: &'a Catalog, src: &'a str) -> Analyzer<'a> {
        Analyzer { catalog, src }
    }

    /// Analyzes a SELECT into a validated logical plan.
    pub fn analyze(&self, select: &ast::Select) -> Result<Arc<LogicalPlan>, SqlError> {
        let (mut plan, scope) = self.build_from(&select.from)?;

        // WHERE.
        if let Some(pred) = &select.selection {
            let lowered = self.lower(pred, &scope)?;
            self.require_bool(&lowered, &scope.schema, pred.span, "WHERE")?;
            plan = Arc::new(LogicalPlan::Filter {
                input: plan,
                predicate: lowered,
            });
        }

        let is_agg = !select.group_by.is_empty()
            || select.items.iter().any(|i| match i {
                ast::SelectItem::Expr { expr, .. } => contains_function(expr),
                ast::SelectItem::Wildcard(_) => false,
            })
            || select
                .having
                .as_ref()
                .map(contains_function)
                .unwrap_or(false);

        let output = if is_agg {
            self.analyze_aggregate(select, plan, &scope)?
        } else {
            if let Some(h) = &select.having {
                return Err(SqlError::analysis(
                    "HAVING requires GROUP BY or an aggregate in the query",
                    h.span,
                ));
            }
            self.analyze_plain_projection(select, plan, &scope)?
        };

        self.apply_order_limit(select, output)
    }

    // ---- FROM / JOIN ---------------------------------------------------

    fn scan(&self, factor: &ast::TableFactor) -> Result<(Arc<LogicalPlan>, Scope), SqlError> {
        let t = self
            .catalog
            .get(&factor.name.value)
            .map_err(|e| SqlError::analysis(error_text(e), factor.name.span))?;
        let qualifier = factor.qualifier();
        let columns = t
            .schema
            .fields()
            .iter()
            .map(|f| ScopeColumn {
                qualifier: qualifier.clone(),
                name: f.name.to_ascii_lowercase(),
            })
            .collect();
        let schema = t.schema.as_ref().clone();
        let projection: Vec<usize> = (0..t.schema.len()).collect();
        let plan = Arc::new(LogicalPlan::TableScan {
            table: t.name.clone(),
            table_schema: t.schema.clone(),
            projection,
        });
        Ok((plan, Scope { columns, schema }))
    }

    fn build_from(&self, from: &ast::From) -> Result<(Arc<LogicalPlan>, Scope), SqlError> {
        let (mut plan, mut scope) = self.scan(&from.base)?;
        for join in &from.joins {
            let (right_plan, right_scope) = self.scan(&join.table)?;
            let rq = &right_scope.columns[0].qualifier;
            if scope.columns.iter().any(|c| &c.qualifier == rq) {
                return Err(SqlError::analysis(
                    format!("duplicate table alias '{rq}' (alias one of the occurrences)"),
                    join.table.name.span,
                ));
            }
            let left_width = scope.columns.len();
            // Combined scope: left columns then right columns — exactly the
            // join's output layout.
            let mut columns = scope.columns;
            columns.extend(right_scope.columns);
            let mut fields = scope.schema.fields().to_vec();
            fields.extend(right_scope.schema.fields().iter().cloned());
            let combined = Scope {
                columns,
                schema: Schema::new(fields),
            };

            // Split the ON condition into equi pairs and a residual filter.
            // An equality between columns of different types is residual:
            // the join kernels hash and compare a key's bytes, so an INT64
            // 3 and a FLOAT64 3.0 would never meet there, while the
            // expression kernels compare them as numbers.
            let mut equi: Vec<(usize, usize)> = Vec::new();
            let mut residual: Option<Expr> = None;
            let mut mixed: Option<(Span, String)> = None;
            for conjunct in split_conjuncts(&join.on) {
                let lowered = self.lower(conjunct, &combined)?;
                if let Expr::Binary { left, op, right } = &lowered {
                    if *op == BinaryOp::Eq {
                        if let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref())
                        {
                            let (l, r) = if *a < left_width && *b >= left_width {
                                (*a, *b)
                            } else if *b < left_width && *a >= left_width {
                                (*b, *a)
                            } else {
                                return Err(SqlError::analysis(
                                    "join equality must compare a column from each side",
                                    conjunct.span,
                                ));
                            };
                            let (lf, rf) = (combined.schema.field(l), combined.schema.field(r));
                            if lf.data_type == rf.data_type {
                                equi.push((l, r - left_width));
                                continue;
                            }
                            mixed.get_or_insert_with(|| {
                                let typed = |f: &Field| format!("{} ({})", f.name, f.data_type);
                                (conjunct.span, format!("{} = {}", typed(lf), typed(rf)))
                            });
                        }
                    }
                }
                self.require_bool(&lowered, &combined.schema, conjunct.span, "JOIN ON")?;
                residual = Some(match residual {
                    None => lowered,
                    Some(prev) => Expr::and(prev, lowered),
                });
            }
            if equi.is_empty() {
                return Err(match mixed {
                    Some((span, columns)) => SqlError::analysis(
                        format!(
                            "join condition needs an equality between columns of the same \
                             type: {columns} can filter joined rows, not match them"
                        ),
                        span,
                    ),
                    None => SqlError::analysis(
                        "join condition must contain at least one equality between the joined \
                         tables",
                        join.on.span,
                    ),
                });
            }

            let joined = Arc::new(LogicalPlan::Join {
                left: plan,
                right: right_plan,
                on: equi,
            });
            joined
                .validate()
                .map_err(|e| SqlError::analysis(error_text(e), join.span))?;
            plan = match residual {
                Some(pred) => Arc::new(LogicalPlan::Filter {
                    input: joined,
                    predicate: pred,
                }),
                None => joined,
            };
            scope = combined;
        }
        Ok((plan, scope))
    }

    // ---- projection (no aggregation) -----------------------------------

    fn analyze_plain_projection(
        &self,
        select: &ast::Select,
        plan: Arc<LogicalPlan>,
        scope: &Scope,
    ) -> Result<Arc<LogicalPlan>, SqlError> {
        let mut exprs: Vec<(Expr, String)> = Vec::new();
        for item in &select.items {
            match item {
                ast::SelectItem::Wildcard(_) => {
                    for (i, f) in scope.schema.fields().iter().enumerate() {
                        exprs.push((Expr::Column(i), f.name.clone()));
                    }
                }
                ast::SelectItem::Expr { expr, alias } => {
                    let lowered = self.lower(expr, scope)?;
                    exprs.push((lowered, self.output_name(expr, alias)));
                }
            }
        }
        let projected = Arc::new(LogicalPlan::Project { input: plan, exprs });
        projected
            .validate()
            .map_err(|e| SqlError::analysis(error_text(e), select.span))?;
        Ok(projected)
    }

    // ---- aggregation ---------------------------------------------------

    fn analyze_aggregate(
        &self,
        select: &ast::Select,
        plan: Arc<LogicalPlan>,
        scope: &Scope,
    ) -> Result<Arc<LogicalPlan>, SqlError> {
        // Resolve GROUP BY items to input column indices. A positional
        // integer refers to a SELECT item (1-based, `GROUP BY 1, 2`).
        let mut group_indices: Vec<usize> = Vec::new();
        for g in &select.group_by {
            let target = match &g.kind {
                ast::ExprKind::IntLit(k) => {
                    let idx = *k;
                    if idx < 1 || idx as usize > select.items.len() {
                        return Err(SqlError::analysis(
                            format!(
                                "GROUP BY position {idx} is out of range (1..={})",
                                select.items.len()
                            ),
                            g.span,
                        ));
                    }
                    match &select.items[idx as usize - 1] {
                        ast::SelectItem::Expr { expr, .. } => expr,
                        ast::SelectItem::Wildcard(_) => {
                            return Err(SqlError::analysis(
                                "GROUP BY position cannot refer to '*'",
                                g.span,
                            ))
                        }
                    }
                }
                _ => g,
            };
            let lowered = self.lower(target, scope)?;
            match lowered {
                Expr::Column(i) => group_indices.push(i),
                _ => {
                    return Err(SqlError::analysis(
                        "GROUP BY supports plain columns (or SELECT item positions)",
                        g.span,
                    ))
                }
            }
        }

        // Collect aggregate calls from the SELECT list and HAVING, deduping
        // structurally identical calls.
        let mut aggs: Vec<CollectedAgg> = Vec::new();
        for item in &select.items {
            match item {
                ast::SelectItem::Wildcard(span) => {
                    return Err(SqlError::analysis(
                        "SELECT * cannot be combined with GROUP BY or aggregates",
                        *span,
                    ))
                }
                ast::SelectItem::Expr { expr, .. } => self.collect_aggs(expr, scope, &mut aggs)?,
            }
        }
        if let Some(h) = &select.having {
            self.collect_aggs(h, scope, &mut aggs)?;
        }
        if aggs.is_empty() && select.group_by.is_empty() {
            return Err(SqlError::analysis(
                "HAVING requires GROUP BY or an aggregate in the query",
                select
                    .having
                    .as_ref()
                    .map(|h| h.span)
                    .unwrap_or(select.span),
            ));
        }

        let agg_plan = Arc::new(LogicalPlan::Aggregate {
            input: plan,
            group_by: group_indices.clone(),
            aggs: aggs.iter().map(|a| a.spec.clone()).collect(),
        });
        agg_plan
            .validate()
            .map_err(|e| SqlError::analysis(error_text(e), select.span))?;
        let agg_schema = agg_plan.schema();

        // Project SELECT items over the aggregate's output.
        let mut exprs: Vec<(Expr, String)> = Vec::new();
        for item in &select.items {
            let ast::SelectItem::Expr { expr, alias } = item else {
                unreachable!("wildcard rejected above")
            };
            let lowered = self.lower_post_agg(expr, scope, &group_indices, &aggs)?;
            exprs.push((lowered, self.output_name(expr, alias)));
        }

        // HAVING filters between the aggregate and the projection.
        let filtered = match &select.having {
            Some(h) => {
                let lowered = self.lower_post_agg(h, scope, &group_indices, &aggs)?;
                self.require_bool(&lowered, &agg_schema, h.span, "HAVING")?;
                Arc::new(LogicalPlan::Filter {
                    input: agg_plan,
                    predicate: lowered,
                })
            }
            None => agg_plan,
        };

        let projected = Arc::new(LogicalPlan::Project {
            input: filtered,
            exprs,
        });
        projected
            .validate()
            .map_err(|e| SqlError::analysis(error_text(e), select.span))?;
        Ok(projected)
    }

    /// Recursively collects aggregate function calls lowered against the
    /// pre-aggregation scope.
    fn collect_aggs(
        &self,
        e: &ast::Expr,
        scope: &Scope,
        out: &mut Vec<CollectedAgg>,
    ) -> Result<(), SqlError> {
        match &e.kind {
            ast::ExprKind::Function {
                name,
                args,
                is_star,
            } => {
                let kind = agg_kind(name)?;
                let input = if *is_star {
                    if kind != AggKind::Count {
                        return Err(SqlError::analysis(
                            format!("{}(*) is not supported — only count(*)", name.value),
                            e.span,
                        ));
                    }
                    None
                } else {
                    if args.len() != 1 {
                        return Err(SqlError::analysis(
                            format!(
                                "{} takes exactly one argument, got {}",
                                name.value,
                                args.len()
                            ),
                            e.span,
                        ));
                    }
                    if contains_function(&args[0]) {
                        return Err(SqlError::analysis(
                            "aggregate calls cannot be nested",
                            args[0].span,
                        ));
                    }
                    Some((self.lower(&args[0], scope)?, args[0].span))
                };
                if out
                    .iter()
                    .any(|a| a.kind == kind && a.input == input.as_ref().map(|(e, _)| e.clone()))
                {
                    return Ok(());
                }
                let internal = format!("__agg{}", out.len());
                let spec = match &input {
                    None => AggSpec::count_star(internal),
                    Some((expr, span)) => {
                        let dt = expr
                            .data_type(&scope.schema)
                            .and_then(|dt| kind.check_argument(dt).map(|()| dt))
                            .map_err(|err| SqlError::analysis(error_text(err), *span))?;
                        AggSpec::new(kind, expr.clone(), dt, internal)
                    }
                };
                out.push(CollectedAgg {
                    kind,
                    input: input.map(|(e, _)| e),
                    spec,
                });
                Ok(())
            }
            _ => {
                for child in child_exprs(e) {
                    self.collect_aggs(child, scope, out)?;
                }
                Ok(())
            }
        }
    }

    /// Lowers an expression in the post-aggregation namespace: group-by
    /// columns and aggregate calls are the only inputs that exist.
    fn lower_post_agg(
        &self,
        e: &ast::Expr,
        pre: &Scope,
        group_indices: &[usize],
        aggs: &[CollectedAgg],
    ) -> Result<Expr, SqlError> {
        match &e.kind {
            ast::ExprKind::Function {
                name,
                args,
                is_star,
            } => {
                let kind = agg_kind(name)?;
                let input = if *is_star {
                    None
                } else {
                    Some(self.lower(&args[0], pre)?)
                };
                let pos = aggs
                    .iter()
                    .position(|a| a.kind == kind && a.input == input)
                    .expect("aggregate collected in the first pass");
                Ok(Expr::Column(group_indices.len() + pos))
            }
            ast::ExprKind::Column { qualifier, name } => {
                let idx = pre.resolve(qualifier.as_ref(), name)?;
                match group_indices.iter().position(|g| *g == idx) {
                    Some(pos) => Ok(Expr::Column(pos)),
                    None => Err(SqlError::analysis(
                        format!(
                            "column '{}' must appear in GROUP BY or inside an aggregate",
                            name.value
                        ),
                        e.span,
                    )),
                }
            }
            _ => self.lower_generic(e, &|child| {
                self.lower_post_agg(child, pre, group_indices, aggs)
            }),
        }
    }

    // ---- ORDER BY / LIMIT ----------------------------------------------

    fn apply_order_limit(
        &self,
        select: &ast::Select,
        plan: Arc<LogicalPlan>,
    ) -> Result<Arc<LogicalPlan>, SqlError> {
        if select.order_by.is_empty() {
            return Ok(match select.limit {
                Some(l) => Arc::new(LogicalPlan::Limit {
                    input: plan,
                    n: l.n as usize,
                }),
                None => plan,
            });
        }
        let out_schema = plan.schema();
        let mut keys = Vec::new();
        for item in &select.order_by {
            let column = self.resolve_order_target(&item.expr, &out_schema)?;
            keys.push(SortKey {
                column,
                descending: item.descending,
            });
        }
        // ORDER BY without LIMIT: a Top-N over every row, which never cuts
        // its candidates and so is one typed sort.
        let n = select.limit.map(|l| l.n as usize).unwrap_or(usize::MAX);
        Ok(Arc::new(LogicalPlan::TopN {
            input: plan,
            keys,
            n,
        }))
    }

    /// `ORDER BY` targets an output column: by 1-based position, by output
    /// name (alias or derived), or by spelling the projected expression.
    fn resolve_order_target(&self, e: &ast::Expr, out: &Schema) -> Result<usize, SqlError> {
        if let ast::ExprKind::IntLit(k) = &e.kind {
            if *k >= 1 && (*k as usize) <= out.len() {
                return Ok(*k as usize - 1);
            }
            return Err(SqlError::analysis(
                format!("ORDER BY position {k} is out of range (1..={})", out.len()),
                e.span,
            ));
        }
        let text = self.text(e.span);
        let candidates = [
            text.trim().to_ascii_lowercase(),
            match &e.kind {
                ast::ExprKind::Column { name, .. } => name.lower(),
                _ => String::new(),
            },
        ];
        for (i, f) in out.fields().iter().enumerate() {
            let fname = f.name.to_ascii_lowercase();
            if candidates.iter().any(|c| !c.is_empty() && *c == fname) {
                return Ok(i);
            }
        }
        Err(SqlError::analysis(
            format!(
                "ORDER BY must name an output column (one of: {})",
                out.fields()
                    .iter()
                    .map(|f| f.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            e.span,
        ))
    }

    // ---- expression lowering -------------------------------------------

    /// Lowers a scalar expression against `scope`, type-checking every node
    /// and mapping failures to that node's span.
    fn lower(&self, e: &ast::Expr, scope: &Scope) -> Result<Expr, SqlError> {
        match &e.kind {
            ast::ExprKind::Column { qualifier, name } => {
                Ok(Expr::Column(scope.resolve(qualifier.as_ref(), name)?))
            }
            ast::ExprKind::Function { name, .. } => Err(SqlError::analysis(
                format!("aggregate function '{}' is not allowed here", name.value),
                e.span,
            )),
            _ => {
                let lowered = self.lower_generic(e, &|child| self.lower(child, scope))?;
                self.type_check(&lowered, &scope.schema, e.span)?;
                Ok(lowered)
            }
        }
    }

    /// Structure-preserving lowering for the variants that don't touch the
    /// namespace; children are lowered by `rec` (so this is shared between
    /// the plain and post-aggregate contexts).
    fn lower_generic(
        &self,
        e: &ast::Expr,
        rec: &dyn Fn(&ast::Expr) -> Result<Expr, SqlError>,
    ) -> Result<Expr, SqlError> {
        match &e.kind {
            ast::ExprKind::Column { .. } | ast::ExprKind::Function { .. } => {
                unreachable!("handled by the calling context")
            }
            ast::ExprKind::IntLit(v) => Ok(Expr::lit_i64(*v)),
            ast::ExprKind::FloatLit(v) => Ok(Expr::lit_f64(*v)),
            ast::ExprKind::StringLit(s) => Ok(Expr::lit_str(s)),
            ast::ExprKind::BoolLit(b) => Ok(Expr::Literal(Value::Bool(*b))),
            ast::ExprKind::NullLit => Ok(Expr::Literal(Value::Null)),
            ast::ExprKind::DateLit(s) => {
                let days = parse_date32(s).ok_or_else(|| {
                    SqlError::analysis(
                        format!("invalid date literal '{s}' (expected YYYY-MM-DD)"),
                        e.span,
                    )
                })?;
                Ok(Expr::lit_date(days))
            }
            ast::ExprKind::Binary { left, op, right } => {
                Ok(Expr::binary(rec(left)?, *op, rec(right)?))
            }
            ast::ExprKind::Not(inner) => Ok(Expr::Not(Arc::new(rec(inner)?))),
            ast::ExprKind::Between {
                expr,
                negated,
                low,
                high,
            } => {
                let b = Expr::between(rec(expr)?, rec(low)?, rec(high)?);
                Ok(if *negated { Expr::Not(Arc::new(b)) } else { b })
            }
            ast::ExprKind::InList {
                expr,
                negated,
                list,
            } => {
                let mut values = Vec::with_capacity(list.len());
                for item in list {
                    match rec(item)? {
                        Expr::Literal(v) => values.push(v),
                        _ => {
                            return Err(SqlError::analysis(
                                "IN list values must be literals",
                                item.span,
                            ))
                        }
                    }
                }
                let l = Expr::InList {
                    expr: Arc::new(rec(expr)?),
                    list: values,
                };
                Ok(if *negated { Expr::Not(Arc::new(l)) } else { l })
            }
            ast::ExprKind::Like {
                expr,
                negated,
                pattern,
            } => {
                let pat = match &pattern.kind {
                    ast::ExprKind::StringLit(s) => s.clone(),
                    _ => {
                        return Err(SqlError::analysis(
                            "LIKE pattern must be a string literal",
                            pattern.span,
                        ))
                    }
                };
                let l = Expr::Like {
                    expr: Arc::new(rec(expr)?),
                    pattern: pat,
                };
                Ok(if *negated { Expr::Not(Arc::new(l)) } else { l })
            }
            ast::ExprKind::IsNull { expr, negated } => {
                let t = Expr::IsNull(Arc::new(rec(expr)?));
                Ok(if *negated { Expr::Not(Arc::new(t)) } else { t })
            }
            ast::ExprKind::Case {
                branches,
                otherwise,
            } => {
                let lowered: Vec<(Expr, Expr)> = branches
                    .iter()
                    .map(|(c, v)| Ok((rec(c)?, rec(v)?)))
                    .collect::<Result<_, SqlError>>()?;
                let els = match otherwise {
                    Some(o) => Some(Arc::new(rec(o)?)),
                    None => None,
                };
                Ok(Expr::Case {
                    branches: lowered,
                    otherwise: els,
                })
            }
            ast::ExprKind::ExtractYear(inner) => Ok(Expr::ExtractYear(Arc::new(rec(inner)?))),
        }
    }

    /// Runs the engine type checker on a lowered node, attributing failures
    /// to `span`. Bare NULL literals are exempt (they type only in context).
    fn type_check(&self, lowered: &Expr, schema: &Schema, span: Span) -> Result<(), SqlError> {
        if matches!(lowered, Expr::Literal(Value::Null)) {
            return Ok(());
        }
        lowered
            .data_type(schema)
            .map_err(|err| SqlError::analysis(error_text(err), span))?;
        Ok(())
    }

    fn require_bool(
        &self,
        lowered: &Expr,
        schema: &Schema,
        span: Span,
        clause: &str,
    ) -> Result<(), SqlError> {
        let dt = lowered
            .data_type(schema)
            .map_err(|err| SqlError::analysis(error_text(err), span))?;
        if dt != accordion_data::types::DataType::Bool {
            return Err(SqlError::analysis(
                format!("{clause} condition must be a boolean, got {dt}"),
                span,
            ));
        }
        Ok(())
    }

    /// Output column name for a projection item: the alias if given, the
    /// column name for a bare column, otherwise the expression's spelling.
    fn output_name(&self, expr: &ast::Expr, alias: &Option<ast::Ident>) -> String {
        if let Some(a) = alias {
            return a.value.clone();
        }
        if let ast::ExprKind::Column { name, .. } = &expr.kind {
            return name.value.clone();
        }
        self.text(expr.span).trim().to_string()
    }

    fn text(&self, span: Span) -> &str {
        let start = span.start.min(self.src.len());
        let end = span.end.clamp(start, self.src.len());
        &self.src[start..end]
    }
}

/// Flattens a conjunction (`a AND b AND c`) into its conjuncts.
fn split_conjuncts(e: &ast::Expr) -> Vec<&ast::Expr> {
    match &e.kind {
        ast::ExprKind::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut out = split_conjuncts(left);
            out.extend(split_conjuncts(right));
            out
        }
        _ => vec![e],
    }
}

/// True when the expression tree contains a function call (aggregate).
fn contains_function(e: &ast::Expr) -> bool {
    if matches!(e.kind, ast::ExprKind::Function { .. }) {
        return true;
    }
    child_exprs(e).into_iter().any(contains_function)
}

/// Immediate child expressions of a node.
fn child_exprs(e: &ast::Expr) -> Vec<&ast::Expr> {
    match &e.kind {
        ast::ExprKind::Binary { left, right, .. } => vec![left, right],
        ast::ExprKind::Not(inner) | ast::ExprKind::ExtractYear(inner) => vec![inner],
        ast::ExprKind::Between {
            expr, low, high, ..
        } => vec![expr, low, high],
        ast::ExprKind::InList { expr, list, .. } => {
            let mut v: Vec<&ast::Expr> = vec![expr];
            v.extend(list.iter());
            v
        }
        ast::ExprKind::Like { expr, pattern, .. } => vec![expr, pattern],
        ast::ExprKind::IsNull { expr, .. } => vec![expr],
        ast::ExprKind::Case {
            branches,
            otherwise,
        } => {
            let mut v: Vec<&ast::Expr> = Vec::new();
            for (c, val) in branches {
                v.push(c);
                v.push(val);
            }
            if let Some(o) = otherwise {
                v.push(o);
            }
            v
        }
        ast::ExprKind::Function { args, .. } => args.iter().collect(),
        _ => Vec::new(),
    }
}

/// Maps a function name to its aggregate kind.
fn agg_kind(name: &ast::Ident) -> Result<AggKind, SqlError> {
    match name.lower().as_str() {
        "count" => Ok(AggKind::Count),
        "sum" => Ok(AggKind::Sum),
        "avg" => Ok(AggKind::Avg),
        "min" => Ok(AggKind::Min),
        "max" => Ok(AggKind::Max),
        other => Err(SqlError::analysis(
            format!("unknown function '{other}' (supported: count, sum, avg, min, max)"),
            name.span,
        )),
    }
}

/// Message text of an engine error, stripped of the variant wrapper.
fn error_text(e: accordion_common::AccordionError) -> String {
    use accordion_common::AccordionError as E;
    match e {
        E::Parse(m)
        | E::Analysis(m)
        | E::Plan(m)
        | E::Execution(m)
        | E::Storage(m)
        | E::Io(m)
        | E::Internal(m) => m,
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_data::types::DataType;
    use accordion_storage::catalog::TableMeta;
    use accordion_storage::split::SplitSet;

    use crate::parser::parse_one;

    fn catalog() -> Catalog {
        let c = Catalog::new();
        let sales = vec![
            Field::new("region", DataType::Utf8),
            Field::new("item_id", DataType::Int64),
            Field::new("qty", DataType::Int64),
            Field::new("price", DataType::Float64),
            Field::new("sold_on", DataType::Date32),
        ];
        let items = vec![
            Field::new("item_id", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ];
        for (name, fields) in [("sales", sales), ("items", items)] {
            c.register(TableMeta {
                name: name.into(),
                schema: Schema::shared(fields),
                splits: SplitSet::default(),
            });
        }
        c
    }

    fn plan(sql: &str) -> Arc<LogicalPlan> {
        try_plan(sql).unwrap()
    }

    fn try_plan(sql: &str) -> Result<Arc<LogicalPlan>, SqlError> {
        let c = catalog();
        let stmt = parse_one(sql).unwrap();
        let crate::ast::Statement::Select(sel) = stmt else {
            panic!("expected SELECT")
        };
        Analyzer::new(&c, sql).analyze(&sel)
    }

    #[test]
    fn lowers_scan_filter_project() {
        let p = plan("SELECT region, qty * 2 AS double_qty FROM sales WHERE price > 1.5");
        let s = p.schema();
        assert_eq!(s.field(0).name, "region");
        assert_eq!(s.field(1).name, "double_qty");
        assert_eq!(s.field(1).data_type, DataType::Int64);
    }

    #[test]
    fn wildcard_expands_in_order() {
        let p = plan("SELECT * FROM sales");
        assert_eq!(p.schema().len(), 5);
        assert_eq!(p.schema().field(4).name, "sold_on");
    }

    #[test]
    fn group_by_with_positional_and_having() {
        let p = plan(
            "SELECT region, sum(qty) AS total, count(*) AS n FROM sales \
             GROUP BY 1 HAVING count(*) > 2",
        );
        let s = p.schema();
        assert_eq!(s.field(0).name, "region");
        assert_eq!(s.field(1).name, "total");
        assert_eq!(s.field(2).name, "n");
        // Filter (HAVING) sits between Aggregate and Project.
        let LogicalPlan::Project { input, .. } = p.as_ref() else {
            panic!("expected Project on top")
        };
        assert!(matches!(input.as_ref(), LogicalPlan::Filter { .. }));
    }

    #[test]
    fn aggregate_dedups_identical_calls() {
        let p = plan(
            "SELECT region, count(*) AS a, count(*) AS b FROM sales \
             GROUP BY region HAVING count(*) > 0",
        );
        // Find the Aggregate node: it must contain exactly one agg spec.
        fn find_agg(p: &LogicalPlan) -> Option<usize> {
            match p {
                LogicalPlan::Aggregate { aggs, .. } => Some(aggs.len()),
                LogicalPlan::Project { input, .. }
                | LogicalPlan::Filter { input, .. }
                | LogicalPlan::TopN { input, .. }
                | LogicalPlan::Limit { input, .. } => find_agg(input),
                _ => None,
            }
        }
        assert_eq!(find_agg(&p), Some(1));
    }

    #[test]
    fn join_splits_equi_and_residual() {
        let p = plan(
            "SELECT name, qty FROM sales s INNER JOIN items i \
             ON s.item_id = i.item_id AND i.name <> 'junk'",
        );
        // Expect Project → Filter(residual) → Join.
        let LogicalPlan::Project { input, .. } = p.as_ref() else {
            panic!("Project on top")
        };
        let LogicalPlan::Filter { input, .. } = input.as_ref() else {
            panic!("residual Filter, got {input:?}")
        };
        let LogicalPlan::Join { on, .. } = input.as_ref() else {
            panic!("Join under Filter")
        };
        assert_eq!(on, &vec![(1usize, 0usize)]);
    }

    #[test]
    fn join_without_equality_is_rejected() {
        let e = try_plan("SELECT qty FROM sales s JOIN items i ON s.qty > i.item_id").unwrap_err();
        assert!(e.message.contains("at least one equality"), "{e:?}");
    }

    #[test]
    fn join_equality_across_types_is_residual_and_never_the_only_key() {
        // price is FLOAT64, item_id INT64: `=` unifies them, a hash key
        // would not.
        let p = plan(
            "SELECT name FROM sales s JOIN items i \
             ON s.item_id = i.item_id AND s.price = i.item_id",
        );
        let LogicalPlan::Project { input, .. } = p.as_ref() else {
            panic!("Project on top")
        };
        let LogicalPlan::Filter { input, predicate } = input.as_ref() else {
            panic!("residual Filter, got {input:?}")
        };
        assert_eq!(predicate.referenced_columns(), vec![3, 5]);
        let LogicalPlan::Join { on, .. } = input.as_ref() else {
            panic!("Join under Filter")
        };
        assert_eq!(on, &vec![(1usize, 0usize)]);

        let sql = "SELECT name FROM sales s JOIN items i ON s.price = i.item_id";
        let e = try_plan(sql).unwrap_err();
        assert_eq!(&sql[e.span.start..e.span.end], "s.price = i.item_id");
        assert!(
            e.message.contains("price (FLOAT64) = item_id (INT64)"),
            "{e:?}"
        );
    }

    #[test]
    fn order_by_name_position_and_spelling() {
        let p = plan("SELECT region, qty FROM sales ORDER BY qty DESC, 1");
        let LogicalPlan::TopN { keys, n, .. } = p.as_ref() else {
            panic!("TopN")
        };
        assert_eq!(*n, usize::MAX);
        assert_eq!(keys[0].column, 1);
        assert!(keys[0].descending);
        assert_eq!(keys[1].column, 0);

        let p = plan(
            "SELECT region, count(*) FROM sales GROUP BY region ORDER BY count(*) DESC LIMIT 3",
        );
        let LogicalPlan::TopN { keys, n, .. } = p.as_ref() else {
            panic!("TopN")
        };
        assert_eq!(*n, 3);
        assert_eq!(keys[0].column, 1);
    }

    #[test]
    fn limit_without_order_is_plain_limit() {
        let p = plan("SELECT qty FROM sales LIMIT 7");
        assert!(matches!(p.as_ref(), LogicalPlan::Limit { n: 7, .. }));
    }

    #[test]
    fn unknown_names_carry_spans() {
        let sql = "SELECT qty FROM nope";
        let e = try_plan(sql).unwrap_err();
        assert_eq!(&sql[e.span.start..e.span.end], "nope");

        let sql = "SELECT mystery FROM sales";
        let e = try_plan(sql).unwrap_err();
        assert_eq!(&sql[e.span.start..e.span.end], "mystery");
        assert!(e.message.contains("unknown column"));
    }

    #[test]
    fn type_mismatch_points_at_the_offending_node() {
        let sql = "SELECT qty FROM sales WHERE qty > 'banana' AND price > 1.0";
        let e = try_plan(sql).unwrap_err();
        assert!(e.message.contains("cannot compare"), "{e:?}");
        assert_eq!(&sql[e.span.start..e.span.end], "qty > 'banana'");
    }

    #[test]
    fn ambiguous_column_is_rejected() {
        let e = try_plan("SELECT item_id FROM sales s JOIN items i ON s.item_id = i.item_id")
            .unwrap_err();
        assert!(e.message.contains("ambiguous"), "{e:?}");
    }

    #[test]
    fn bare_column_outside_group_by_is_rejected() {
        let e = try_plan("SELECT region, qty FROM sales GROUP BY region").unwrap_err();
        assert!(e.message.contains("must appear in GROUP BY"), "{e:?}");
    }

    #[test]
    fn date_literals_validated_with_spans() {
        let sql = "SELECT qty FROM sales WHERE sold_on < DATE '1998-13-99'";
        let e = try_plan(sql).unwrap_err();
        assert_eq!(&sql[e.span.start..e.span.end], "DATE '1998-13-99'");
    }

    #[test]
    fn in_list_requires_literals_and_like_requires_string() {
        let e = try_plan("SELECT qty FROM sales WHERE qty IN (1, qty)").unwrap_err();
        assert!(e.message.contains("literals"), "{e:?}");
        let e = try_plan("SELECT qty FROM sales WHERE region LIKE region").unwrap_err();
        assert!(e.message.contains("string literal"), "{e:?}");
    }

    #[test]
    fn where_must_be_boolean() {
        let e = try_plan("SELECT qty FROM sales WHERE qty + 1").unwrap_err();
        assert!(e.message.contains("must be a boolean"), "{e:?}");
    }

    #[test]
    fn unknown_function_rejected() {
        let e = try_plan("SELECT median(qty) FROM sales GROUP BY region").unwrap_err();
        assert!(e.message.contains("unknown function"), "{e:?}");
    }

    #[test]
    fn between_in_like_case_extract_lower() {
        let p = plan(
            "SELECT CASE WHEN qty BETWEEN 1 AND 5 THEN 'low' ELSE 'high' END AS bucket, \
             EXTRACT(YEAR FROM sold_on) AS yr \
             FROM sales WHERE region IN ('na', 'eu') AND region LIKE 'n%' \
             AND region IS NOT NULL AND NOT qty = 4",
        );
        assert_eq!(p.schema().field(0).name, "bucket");
        assert_eq!(p.schema().field(1).data_type, DataType::Int64);
    }
}
