//! Logical query plans.
//!
//! Expressions reference input columns positionally; names are carried in
//! the per-node output [`Schema`] so front-ends can resolve identifiers.

use std::fmt;
use std::sync::Arc;

use accordion_common::{AccordionError, Result};
use accordion_data::schema::{Field, Schema, SchemaRef};
use accordion_data::sort::SortKey;
use accordion_data::types::DataType;
use accordion_expr::agg::AggSpec;
use accordion_expr::scalar::Expr;

/// A logical plan node. Children are `Arc`-shared.
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Scan of a catalog table, with optional column projection.
    TableScan {
        table: String,
        /// Full table schema.
        table_schema: SchemaRef,
        /// Indices of the projected columns (into `table_schema`).
        projection: Vec<usize>,
    },
    /// Row filter.
    Filter {
        input: Arc<LogicalPlan>,
        predicate: Expr,
    },
    /// Column computation / projection.
    Project {
        input: Arc<LogicalPlan>,
        exprs: Vec<(Expr, String)>,
    },
    /// Group-by aggregation (split into partial/final by the optimizer).
    Aggregate {
        input: Arc<LogicalPlan>,
        /// Group-by columns (indices into input schema).
        group_by: Vec<usize>,
        aggs: Vec<AggSpec>,
    },
    /// Inner equi-join: `on` pairs left/right key column indices. With no
    /// pairs it is the cross join, every left row with every right row.
    Join {
        left: Arc<LogicalPlan>,
        right: Arc<LogicalPlan>,
        on: Vec<(usize, usize)>,
    },
    /// ORDER BY + LIMIT.
    TopN {
        input: Arc<LogicalPlan>,
        keys: Vec<SortKey>,
        n: usize,
    },
    /// Plain LIMIT.
    Limit { input: Arc<LogicalPlan>, n: usize },
}

impl LogicalPlan {
    /// Output schema of this node.
    pub fn schema(&self) -> Schema {
        match self {
            LogicalPlan::TableScan {
                table_schema,
                projection,
                ..
            } => table_schema.project(projection),
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Project { input, exprs } => {
                let in_schema = input.schema();
                Schema::new(
                    exprs
                        .iter()
                        .map(|(e, name)| {
                            let dt = e.data_type(&in_schema).unwrap_or(DataType::Int64);
                            Field::new(name.clone(), dt)
                        })
                        .collect(),
                )
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let in_schema = input.schema();
                let mut fields: Vec<Field> = group_by
                    .iter()
                    .map(|&i| in_schema.field(i).clone())
                    .collect();
                fields.extend(
                    aggs.iter()
                        .map(|a| Field::new(a.name.clone(), a.output_type())),
                );
                Schema::new(fields)
            }
            LogicalPlan::Join { left, right, .. } => left.schema().join(&right.schema()),
            LogicalPlan::TopN { input, .. } | LogicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// Direct children of this node.
    pub fn children(&self) -> Vec<&Arc<LogicalPlan>> {
        match self {
            LogicalPlan::TableScan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::TopN { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Pre-order traversal.
    pub fn visit(&self, f: &mut dyn FnMut(&LogicalPlan)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    /// Number of nodes in the plan.
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// Validates expression/column references against child schemas.
    pub fn validate(&self) -> Result<()> {
        match self {
            LogicalPlan::TableScan {
                table_schema,
                projection,
                ..
            } => {
                for &i in projection {
                    if i >= table_schema.len() {
                        return Err(AccordionError::Plan(format!(
                            "scan projection #{i} out of range"
                        )));
                    }
                }
            }
            LogicalPlan::Filter { input, predicate } => {
                input.validate()?;
                let schema = input.schema();
                predicate.data_type(&schema)?;
                check_refs(predicate, &schema)?;
            }
            LogicalPlan::Project { input, exprs } => {
                input.validate()?;
                let schema = input.schema();
                for (e, _) in exprs {
                    e.data_type(&schema)?;
                    check_refs(e, &schema)?;
                }
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                input.validate()?;
                let schema = input.schema();
                for &g in group_by {
                    if g >= schema.len() {
                        return Err(AccordionError::Plan(format!(
                            "group-by column #{g} out of range"
                        )));
                    }
                }
                for a in aggs {
                    if let Some(e) = &a.input {
                        check_refs(e, &schema)?;
                        a.kind.check_argument(e.data_type(&schema)?)?;
                    }
                }
            }
            LogicalPlan::Join { left, right, on } => {
                left.validate()?;
                right.validate()?;
                let (ls, rs) = (left.schema(), right.schema());
                for &(l, r) in on {
                    if l >= ls.len() || r >= rs.len() {
                        return Err(AccordionError::Plan(format!(
                            "join key ({l},{r}) out of range"
                        )));
                    }
                    let lt = ls.field(l).data_type;
                    let rt = rs.field(r).data_type;
                    // Numeric pairs included: the join kernels hash and
                    // compare key bytes, so INT64 3 never meets FLOAT64 3.0.
                    if lt != rt {
                        return Err(AccordionError::Plan(format!(
                            "join key type mismatch: {lt} vs {rt}"
                        )));
                    }
                }
            }
            LogicalPlan::TopN { input, keys, .. } => {
                input.validate()?;
                let schema = input.schema();
                for k in keys {
                    if k.column >= schema.len() {
                        return Err(AccordionError::Plan(format!(
                            "sort column #{} out of range",
                            k.column
                        )));
                    }
                }
            }
            LogicalPlan::Limit { input, .. } => input.validate()?,
        }
        Ok(())
    }

    /// Multi-line indented plan rendering (EXPLAIN-style).
    pub fn display(&self) -> String {
        let mut out = String::new();
        self.fmt_indent(&mut out, 0);
        out
    }

    fn fmt_indent(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            LogicalPlan::TableScan {
                table, projection, ..
            } => {
                out.push_str(&format!("{pad}TableScan: {table} cols={projection:?}\n"));
            }
            LogicalPlan::Filter { input, .. } => {
                out.push_str(&format!("{pad}Filter\n"));
                input.fmt_indent(out, indent + 1);
            }
            LogicalPlan::Project { input, exprs } => {
                let names: Vec<&str> = exprs.iter().map(|(_, n)| n.as_str()).collect();
                out.push_str(&format!("{pad}Project: {names:?}\n"));
                input.fmt_indent(out, indent + 1);
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let names: Vec<&str> = aggs.iter().map(|a| a.name.as_str()).collect();
                out.push_str(&format!(
                    "{pad}Aggregate: group={group_by:?} aggs={names:?}\n"
                ));
                input.fmt_indent(out, indent + 1);
            }
            LogicalPlan::Join { left, right, on } => {
                out.push_str(&format!("{pad}Join: on={on:?}\n"));
                left.fmt_indent(out, indent + 1);
                right.fmt_indent(out, indent + 1);
            }
            LogicalPlan::TopN { input, keys, n } => {
                let cols: Vec<usize> = keys.iter().map(|k| k.column).collect();
                let n = top_n_display(*n);
                out.push_str(&format!("{pad}TopN: n={n} keys={cols:?}\n"));
                input.fmt_indent(out, indent + 1);
            }
            LogicalPlan::Limit { input, n } => {
                out.push_str(&format!("{pad}Limit: {n}\n"));
                input.fmt_indent(out, indent + 1);
            }
        }
    }
}

/// A Top-N's row count as plan displays print it: ORDER BY without LIMIT
/// is a Top-N over every row, `n=all`.
pub(crate) fn top_n_display(n: usize) -> String {
    if n == usize::MAX {
        "all".to_string()
    } else {
        n.to_string()
    }
}

fn check_refs(e: &Expr, schema: &Schema) -> Result<()> {
    for c in e.referenced_columns() {
        if c >= schema.len() {
            return Err(AccordionError::Plan(format!(
                "expression references column #{c}, schema has {}",
                schema.len()
            )));
        }
    }
    Ok(())
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_expr::agg::AggKind;

    fn scan() -> Arc<LogicalPlan> {
        let schema = Schema::shared(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Float64),
            Field::new("c", DataType::Utf8),
        ]);
        Arc::new(LogicalPlan::TableScan {
            table: "t".into(),
            table_schema: schema,
            projection: vec![0, 1, 2],
        })
    }

    #[test]
    fn scan_schema_projects() {
        let s = LogicalPlan::TableScan {
            table: "t".into(),
            table_schema: Schema::shared(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Float64),
            ]),
            projection: vec![1],
        };
        assert_eq!(s.schema().len(), 1);
        assert_eq!(s.schema().field(0).name, "b");
    }

    #[test]
    fn aggregate_schema() {
        let agg = LogicalPlan::Aggregate {
            input: scan(),
            group_by: vec![2],
            aggs: vec![AggSpec::new(
                AggKind::Sum,
                Expr::col(1),
                DataType::Float64,
                "total",
            )],
        };
        let s = agg.schema();
        assert_eq!(s.field(0).name, "c");
        assert_eq!(s.field(1).name, "total");
        assert_eq!(s.field(1).data_type, DataType::Float64);
        agg.validate().unwrap();
    }

    #[test]
    fn join_schema_concatenates() {
        let j = LogicalPlan::Join {
            left: scan(),
            right: scan(),
            on: vec![(0, 0)],
        };
        assert_eq!(j.schema().len(), 6);
        j.validate().unwrap();
    }

    #[test]
    fn validate_catches_bad_refs() {
        let f = LogicalPlan::Filter {
            input: scan(),
            predicate: Expr::gt(Expr::col(9), Expr::lit_i64(0)),
        };
        assert!(f.validate().is_err());
        let j = LogicalPlan::Join {
            left: scan(),
            right: scan(),
            on: vec![(0, 2)],
        };
        assert!(j.validate().is_err(), "int vs utf8 join key");
        // Numeric but different: the join kernels would hash and compare
        // an INT64 and a FLOAT64 key as unequal bytes.
        let j = LogicalPlan::Join {
            left: scan(),
            right: scan(),
            on: vec![(0, 1)],
        };
        let err = j.validate().unwrap_err().to_string();
        assert!(err.contains("INT64 vs FLOAT64"), "{err}");
    }

    #[test]
    fn traversal_and_display() {
        let plan = LogicalPlan::TopN {
            input: Arc::new(LogicalPlan::Filter {
                input: scan(),
                predicate: Expr::gt(Expr::col(0), Expr::lit_i64(1)),
            }),
            keys: vec![SortKey::desc(1)],
            n: 10,
        };
        assert_eq!(plan.node_count(), 3);
        let text = plan.display();
        assert!(text.contains("TopN"));
        assert!(text.contains("TableScan"));
    }
}
