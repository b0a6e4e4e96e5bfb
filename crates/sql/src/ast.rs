//! Typed, span-carrying SQL AST.
//!
//! Every node records the byte [`Span`] of the source text it was parsed
//! from, so the analyzer can attach precise locations to name-resolution
//! and type errors. The expression surface deliberately mirrors what the
//! engine's `accordion_expr::scalar::Expr` can evaluate — the parser
//! accepts nothing the executor could not run.

use std::fmt;

use accordion_expr::scalar::BinaryOp;

use crate::error::Span;

/// An identifier with its source span. `value` preserves original casing;
/// comparisons in the analyzer are case-insensitive.
#[derive(Debug, Clone, PartialEq)]
pub struct Ident {
    pub value: String,
    pub span: Span,
}

impl Ident {
    /// Case-folded form used for name resolution.
    pub fn lower(&self) -> String {
        self.value.to_ascii_lowercase()
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.value)
    }
}

/// One parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(Box<Select>),
    /// `SET name = value` — session variable assignment. The value is kept
    /// as raw text (quotes stripped for string literals) because the set of
    /// variables and their syntaxes belongs to the server session layer.
    Set {
        name: Ident,
        value: String,
        value_span: Span,
        span: Span,
    },
    /// `SHOW TABLES` or `SHOW name`.
    Show {
        name: Ident,
        span: Span,
    },
    /// `EXPLAIN [ANALYZE] <select>`: the SELECT's plans, or how it ran.
    Explain {
        analyze: bool,
        select: Box<Select>,
        span: Span,
    },
}

impl Statement {
    /// The source span covering the whole statement (without the
    /// terminating `;`).
    pub fn span(&self) -> Span {
        match self {
            Statement::Select(s) => s.span,
            Statement::Set { span, .. }
            | Statement::Show { span, .. }
            | Statement::Explain { span, .. } => *span,
        }
    }
}

/// A full `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub items: Vec<SelectItem>,
    pub from: From,
    pub selection: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<Limit>,
    pub span: Span,
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard(Span),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<Ident> },
}

/// `FROM base [INNER JOIN t ON cond]*` — left-deep inner joins only.
#[derive(Debug, Clone, PartialEq)]
pub struct From {
    pub base: TableFactor,
    pub joins: Vec<Join>,
}

/// A table reference with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableFactor {
    pub name: Ident,
    pub alias: Option<Ident>,
}

impl TableFactor {
    /// The name columns of this table are qualified by: the alias if given,
    /// the table name otherwise.
    pub fn qualifier(&self) -> String {
        self.alias
            .as_ref()
            .map(|a| a.lower())
            .unwrap_or_else(|| self.name.lower())
    }
}

/// `INNER JOIN table ON condition`.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub table: TableFactor,
    pub on: Expr,
    pub span: Span,
}

/// `ORDER BY expr [ASC|DESC]`.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub descending: bool,
}

/// `LIMIT n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Limit {
    pub n: u64,
    pub span: Span,
}

/// A spanned expression node.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
}

impl Expr {
    pub fn new(kind: ExprKind, span: Span) -> Expr {
        Expr { kind, span }
    }
}

/// Expression variants — mirrors the engine's evaluable surface.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// `[qualifier.]name` column reference.
    Column {
        qualifier: Option<Ident>,
        name: Ident,
    },
    IntLit(i64),
    FloatLit(f64),
    StringLit(String),
    /// `DATE 'YYYY-MM-DD'` — the literal text is validated by the analyzer
    /// so the error lands on this node's span.
    DateLit(String),
    BoolLit(bool),
    NullLit,
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    Not(Box<Expr>),
    Between {
        expr: Box<Expr>,
        negated: bool,
        low: Box<Expr>,
        high: Box<Expr>,
    },
    InList {
        expr: Box<Expr>,
        negated: bool,
        list: Vec<Expr>,
    },
    Like {
        expr: Box<Expr>,
        negated: bool,
        pattern: Box<Expr>,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    Case {
        branches: Vec<(Expr, Expr)>,
        otherwise: Option<Box<Expr>>,
    },
    /// `EXTRACT(YEAR FROM expr)`.
    ExtractYear(Box<Expr>),
    /// `name(args)` or `name(*)` — the analyzer decides whether this is an
    /// aggregate call (count/sum/avg/min/max) and rejects anything else.
    Function {
        name: Ident,
        args: Vec<Expr>,
        is_star: bool,
    },
}
