//! Fluent logical plan builder with name-based column resolution.
//!
//! Used by tests and `examples/quickstart.rs` to build plans without SQL.
//! Column references can be given by name (`col("l_orderkey")`); the builder
//! resolves them against the current output schema.

use std::sync::Arc;

use accordion_common::{AccordionError, Result};
use accordion_data::schema::Schema;
use accordion_data::sort::SortKey;
use accordion_data::types::DataType;
use accordion_expr::agg::{AggKind, AggSpec};
use accordion_expr::scalar::Expr;

use crate::catalog::Catalog;
use crate::logical::LogicalPlan;

/// Fluent builder over [`LogicalPlan`].
#[derive(Debug, Clone)]
pub struct LogicalPlanBuilder {
    plan: Arc<LogicalPlan>,
}

impl LogicalPlanBuilder {
    /// Starts from a full table scan of a catalog table.
    pub fn scan(catalog: &Catalog, table: &str) -> Result<Self> {
        let t = catalog.get(table)?;
        let projection: Vec<usize> = (0..t.schema.len()).collect();
        Ok(LogicalPlanBuilder {
            plan: Arc::new(LogicalPlan::TableScan {
                table: t.name.clone(),
                table_schema: t.schema.clone(),
                projection,
            }),
        })
    }

    /// Current output schema.
    pub fn schema(&self) -> Schema {
        self.plan.schema()
    }

    /// Resolves a column name to its index in the current schema.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.schema()
            .index_of(name)
            .ok_or_else(|| AccordionError::Analysis(format!("unknown column '{name}'")))
    }

    /// A column-reference expression by name.
    pub fn col(&self, name: &str) -> Result<Expr> {
        Ok(Expr::Column(self.column_index(name)?))
    }

    /// Data type of a named column.
    pub fn col_type(&self, name: &str) -> Result<DataType> {
        Ok(self.schema().field(self.column_index(name)?).data_type)
    }

    /// Adds a filter node.
    pub fn filter(self, predicate: Expr) -> Result<Self> {
        let plan = Arc::new(LogicalPlan::Filter {
            input: self.plan,
            predicate,
        });
        plan.validate()?;
        Ok(LogicalPlanBuilder { plan })
    }

    /// Adds a projection node computing `exprs`.
    pub fn project(self, exprs: Vec<(Expr, &str)>) -> Result<Self> {
        let plan = Arc::new(LogicalPlan::Project {
            input: self.plan,
            exprs: exprs.into_iter().map(|(e, n)| (e, n.to_string())).collect(),
        });
        plan.validate()?;
        Ok(LogicalPlanBuilder { plan })
    }

    /// Keeps only the named columns (in the given order).
    pub fn select(self, names: &[&str]) -> Result<Self> {
        let exprs: Vec<(Expr, &str)> = names
            .iter()
            .map(|n| Ok((self.col(n)?, *n)))
            .collect::<Result<_>>()?;
        self.project(exprs)
    }

    /// Inner equi-join on named key pairs `(left_name, right_name)`; with no
    /// pairs, the cross join.
    pub fn join(self, right: LogicalPlanBuilder, keys: &[(&str, &str)]) -> Result<Self> {
        let on: Vec<(usize, usize)> = keys
            .iter()
            .map(|(l, r)| Ok((self.column_index(l)?, right.column_index(r)?)))
            .collect::<Result<_>>()?;
        let plan = Arc::new(LogicalPlan::Join {
            left: self.plan,
            right: right.plan,
            on,
        });
        plan.validate()?;
        Ok(LogicalPlanBuilder { plan })
    }

    /// Group-by aggregation with named group columns.
    pub fn aggregate(self, group_by: &[&str], aggs: Vec<AggSpec>) -> Result<Self> {
        let group: Vec<usize> = group_by
            .iter()
            .map(|n| self.column_index(n))
            .collect::<Result<_>>()?;
        let plan = Arc::new(LogicalPlan::Aggregate {
            input: self.plan,
            group_by: group,
            aggs,
        });
        plan.validate()?;
        Ok(LogicalPlanBuilder { plan })
    }

    /// Convenience: builds an [`AggSpec`] for `kind(column_name)`.
    pub fn agg(&self, kind: AggKind, column: &str, out_name: &str) -> Result<AggSpec> {
        Ok(AggSpec::new(
            kind,
            self.col(column)?,
            self.col_type(column)?,
            out_name,
        ))
    }

    /// ORDER BY (named columns) + LIMIT.
    pub fn top_n(self, keys: &[(&str, bool)], n: usize) -> Result<Self> {
        let sort_keys: Vec<SortKey> = keys
            .iter()
            .map(|(name, desc)| {
                Ok(SortKey {
                    column: self.column_index(name)?,
                    descending: *desc,
                })
            })
            .collect::<Result<_>>()?;
        let plan = Arc::new(LogicalPlan::TopN {
            input: self.plan,
            keys: sort_keys,
            n,
        });
        plan.validate()?;
        Ok(LogicalPlanBuilder { plan })
    }

    /// LIMIT without ordering.
    pub fn limit(self, n: usize) -> Result<Self> {
        Ok(LogicalPlanBuilder {
            plan: Arc::new(LogicalPlan::Limit {
                input: self.plan,
                n,
            }),
        })
    }

    /// Finalizes the plan.
    pub fn build(self) -> Arc<LogicalPlan> {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_data::page::DataPage;
    use accordion_data::schema::Field;
    use accordion_data::types::Value;
    use accordion_storage::catalog::Catalog as StorageCatalog;
    use accordion_storage::table::TableBuilder;

    fn catalog() -> StorageCatalog {
        let c = StorageCatalog::new();
        let schema = Schema::shared(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("price", DataType::Float64),
        ]);
        let mut b = TableBuilder::new("items", schema, 8);
        for i in 0..10 {
            b.push_row(vec![
                Value::Int64(i),
                Value::Utf8(format!("item{i}")),
                Value::Float64(i as f64),
            ]);
        }
        b.register(&c, 1);

        let schema = Schema::shared(vec![
            Field::new("item_id", DataType::Int64),
            Field::new("qty", DataType::Int64),
        ]);
        let mut b = TableBuilder::new("sales", schema, 8);
        for i in 0..10 {
            b.push_row(vec![Value::Int64(i % 5), Value::Int64(i)]);
        }
        b.register(&c, 1);
        c
    }

    #[test]
    fn scan_select_filter() {
        let c = catalog();
        let b = LogicalPlanBuilder::scan(&c, "items").unwrap();
        let pred = Expr::gt(b.col("price").unwrap(), Expr::lit_f64(3.0));
        let plan = b
            .filter(pred)
            .unwrap()
            .select(&["name", "price"])
            .unwrap()
            .build();
        let s = plan.schema();
        assert_eq!(s.len(), 2);
        assert_eq!(s.field(0).name, "name");
        plan.validate().unwrap();
    }

    #[test]
    fn join_by_names() {
        let c = catalog();
        let items = LogicalPlanBuilder::scan(&c, "items").unwrap();
        let sales = LogicalPlanBuilder::scan(&c, "sales").unwrap();
        let joined = items.join(sales, &[("id", "item_id")]).unwrap();
        assert_eq!(joined.schema().len(), 5);
        assert_eq!(joined.column_index("qty").unwrap(), 4);
    }

    #[test]
    fn aggregate_with_helper() {
        let c = catalog();
        let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
        let sum = b.agg(AggKind::Sum, "qty", "total_qty").unwrap();
        let plan = b.aggregate(&["item_id"], vec![sum]).unwrap();
        let s = plan.schema();
        assert_eq!(s.field(0).name, "item_id");
        assert_eq!(s.field(1).name, "total_qty");
        assert_eq!(s.field(1).data_type, DataType::Int64);
    }

    #[test]
    fn top_n_by_name() {
        let c = catalog();
        let plan = LogicalPlanBuilder::scan(&c, "items")
            .unwrap()
            .top_n(&[("price", true)], 3)
            .unwrap()
            .build();
        match plan.as_ref() {
            LogicalPlan::TopN { keys, n, .. } => {
                assert_eq!(*n, 3);
                assert_eq!(keys[0].column, 2);
                assert!(keys[0].descending);
            }
            _ => panic!("expected TopN"),
        }
    }

    #[test]
    fn unknown_names_error() {
        let c = catalog();
        let b = LogicalPlanBuilder::scan(&c, "items").unwrap();
        assert!(b.col("nope").is_err());
        assert!(b.clone().select(&["nope"]).is_err());
        assert!(LogicalPlanBuilder::scan(&c, "missing_table").is_err());
    }

    #[test]
    fn cross_join_schema() {
        let c = catalog();
        let items = LogicalPlanBuilder::scan(&c, "items").unwrap();
        let sales = LogicalPlanBuilder::scan(&c, "sales").unwrap();
        let x = items.join(sales, &[]).unwrap();
        assert_eq!(x.schema().len(), 5);
    }

    // Silence unused import warning for DataPage in this test module.
    #[allow(dead_code)]
    fn _unused(_: Option<DataPage>) {}
}
