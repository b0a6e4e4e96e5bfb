//! SQL front-end for the Accordion IQRE engine.
//!
//! Zero-dependency, hand-written pipeline from query text to a logical
//! plan the executor can run:
//!
//! 1. [`lexer`] — tokens with byte spans.
//! 2. [`parser`] — recursive-descent parse into the typed, span-carrying
//!    [`ast`]. SELECT (projection/aliases, WHERE, INNER JOIN … ON, GROUP
//!    BY, HAVING, ORDER BY, LIMIT), `SET`, `SHOW` and `EXPLAIN [ANALYZE]`; batch parsing
//!    recovers at `;` boundaries and reports every error.
//! 3. [`analyzer`] — resolves names against a [`Catalog`], lowers to
//!    [`LogicalPlan`], and maps type errors (from the engine's expression
//!    type checker) back to source spans.
//!
//! The one-call entry point is [`plan_select`]:
//!
//! ```
//! use accordion_data::schema::{Field, Schema};
//! use accordion_data::types::DataType;
//! use accordion_plan::catalog::Catalog;
//! use accordion_storage::catalog::TableMeta;
//! use accordion_storage::split::SplitSet;
//!
//! let catalog = Catalog::new();
//! catalog.register(TableMeta {
//!     name: "t".into(),
//!     schema: Schema::shared(vec![Field::new("x", DataType::Int64)]),
//!     splits: SplitSet::default(),
//! });
//! let plan = accordion_sql::plan_select(&catalog, "SELECT x FROM t WHERE x > 3").unwrap();
//! assert_eq!(plan.schema().field(0).name, "x");
//! ```

pub mod analyzer;
pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;

use std::sync::Arc;

use accordion_common::{AccordionError, Result};
use accordion_plan::catalog::Catalog;
use accordion_plan::logical::LogicalPlan;

pub use analyzer::Analyzer;
pub use ast::Statement;
pub use error::{Span, SqlError, SqlErrorKind};
pub use parser::{parse_one, parse_statements};

/// Parses and analyzes a single SELECT statement into a logical plan.
/// Errors are rendered against `sql` with caret diagnostics.
pub fn plan_select(catalog: &Catalog, sql: &str) -> Result<Arc<LogicalPlan>> {
    match parse_one(sql).map_err(|e| e.into_engine(sql))? {
        Statement::Select(select) => Analyzer::new(catalog, sql)
            .analyze(&select)
            .map_err(|e| e.into_engine(sql)),
        other => Err(AccordionError::Analysis(format!(
            "expected a SELECT statement, got {}",
            statement_kind(&other)
        ))),
    }
}

/// Short display name of a statement variant, for messages.
pub fn statement_kind(s: &Statement) -> &'static str {
    match s {
        Statement::Select(_) => "SELECT",
        Statement::Set { .. } => "SET",
        Statement::Show { .. } => "SHOW",
        Statement::Explain { .. } => "EXPLAIN",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_data::schema::{Field, Schema};
    use accordion_data::types::DataType;
    use accordion_storage::catalog::TableMeta;
    use accordion_storage::split::SplitSet;

    fn catalog() -> Catalog {
        let c = Catalog::new();
        c.register(TableMeta {
            name: "t".into(),
            schema: Schema::shared(vec![
                Field::new("x", DataType::Int64),
                Field::new("s", DataType::Utf8),
            ]),
            splits: SplitSet::default(),
        });
        c
    }

    #[test]
    fn plan_select_end_to_end() {
        let c = catalog();
        let p = plan_select(
            &c,
            "SELECT s, x + 1 AS y FROM t WHERE x > 1 ORDER BY y LIMIT 2",
        )
        .unwrap();
        let s = p.schema();
        assert_eq!(s.field(0).name, "s");
        assert_eq!(s.field(1).name, "y");
    }

    #[test]
    fn errors_are_rendered_with_carets() {
        let c = catalog();
        let err = plan_select(&c, "SELECT nope FROM t").unwrap_err();
        let AccordionError::Analysis(msg) = err else {
            panic!("expected analysis error")
        };
        assert!(msg.contains("unknown column 'nope'"), "{msg}");
        assert!(msg.contains("^^^^"), "{msg}");

        let err = plan_select(&c, "SELECT FROM t").unwrap_err();
        assert!(matches!(err, AccordionError::Parse(_)));
    }

    #[test]
    fn non_select_statements_are_rejected() {
        let c = catalog();
        let err = plan_select(&c, "SET dop = 4").unwrap_err();
        let AccordionError::Analysis(msg) = err else {
            panic!()
        };
        assert!(msg.contains("SET"), "{msg}");
    }
}
