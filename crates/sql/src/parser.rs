//! Recursive-descent SQL parser with multi-statement error recovery.
//!
//! Grammar (statements separated by `;`):
//!
//! ```text
//! statement  := select | set | show
//! select     := SELECT item (',' item)* FROM table join*
//!               [WHERE expr] [GROUP BY expr (',' expr)*] [HAVING expr]
//!               [ORDER BY order (',' order)*] [LIMIT int]
//! item       := '*' | expr [[AS] ident]
//! table      := ident [[AS] ident]
//! join       := [INNER] JOIN table ON expr
//! set        := SET ident ['=' | TO] raw-value
//! show       := SHOW ident
//! ```
//!
//! Expressions use precedence climbing: `OR < AND < NOT < comparison /
//! BETWEEN / IN / LIKE / IS < addition < multiplication < unary < primary`.
//! On a syntax error inside a statement, [`parse_statements`] records the
//! spanned error and resynchronizes at the next `;`, so one bad statement
//! in a batch does not hide diagnostics for the rest.

use accordion_expr::scalar::BinaryOp;

use crate::ast::{
    Expr, ExprKind, From, Ident, Join, Limit, OrderItem, Select, SelectItem, Statement, TableFactor,
};
use crate::error::{Span, SqlError};
use crate::lexer::{tokenize, Token, TokenKind};

/// Words that terminate an implicit (AS-less) alias or a bare identifier.
const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "by", "having", "order", "limit", "join", "inner", "on",
    "as", "and", "or", "not", "between", "in", "like", "is", "null", "true", "false", "case",
    "when", "then", "else", "end", "extract", "date", "set", "show", "asc", "desc", "distinct",
];

/// Parses a batch of `;`-separated statements. On syntax errors, recovers at
/// statement boundaries and reports every error found.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>, Vec<SqlError>> {
    let tokens = match tokenize(sql) {
        Ok(t) => t,
        Err(e) => return Err(vec![e]),
    };
    let mut p = Parser {
        tokens,
        pos: 0,
        src: sql,
    };
    let mut statements = Vec::new();
    let mut errors = Vec::new();
    loop {
        while p.eat(&TokenKind::Semicolon) {}
        if p.at(&TokenKind::Eof) {
            break;
        }
        match p.parse_statement() {
            Ok(s) => {
                statements.push(s);
                if !p.at(&TokenKind::Semicolon) && !p.at(&TokenKind::Eof) {
                    errors.push(p.unexpected("';' between statements"));
                    p.recover_to_semicolon();
                }
            }
            Err(e) => {
                errors.push(e);
                p.recover_to_semicolon();
            }
        }
    }
    if errors.is_empty() {
        Ok(statements)
    } else {
        Err(errors)
    }
}

/// Parses exactly one statement (a trailing `;` is allowed).
pub fn parse_one(sql: &str) -> Result<Statement, SqlError> {
    let mut statements = parse_statements(sql).map_err(|mut es| es.remove(0))?;
    match statements.len() {
        0 => Err(SqlError::parse("empty statement", Span::new(0, sql.len()))),
        1 => Ok(statements.remove(0)),
        _ => Err(SqlError::parse(
            "expected a single statement",
            Span::new(0, sql.len()),
        )),
    }
}

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    src: &'a str,
}

impl<'a> Parser<'a> {
    // ---- token helpers -------------------------------------------------

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn next(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek().kind == *kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, SqlError> {
        if self.at(kind) {
            Ok(self.next())
        } else {
            Err(self.unexpected(&kind.describe()))
        }
    }

    /// True when the current token is the given keyword (case-insensitive).
    fn at_kw(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<Token, SqlError> {
        if self.at_kw(kw) {
            Ok(self.next())
        } else {
            Err(self.unexpected(&kw.to_ascii_uppercase()))
        }
    }

    fn unexpected(&self, expected: &str) -> SqlError {
        let t = self.peek();
        SqlError::parse(
            format!("expected {expected}, found {}", t.kind.describe()),
            t.span,
        )
    }

    /// Consumes a non-reserved identifier (table/column/alias/variable).
    fn ident(&mut self, what: &str) -> Result<Ident, SqlError> {
        match &self.peek().kind {
            TokenKind::Ident(s) if !RESERVED.contains(&s.to_ascii_lowercase().as_str()) => {
                let ident = Ident {
                    value: s.clone(),
                    span: self.peek().span,
                };
                self.next();
                Ok(ident)
            }
            _ => Err(self.unexpected(what)),
        }
    }

    /// Fails with `message`, pointing at the token, when it is `DISTINCT`:
    /// a keyword the grammar reserves but does not implement.
    fn reject_distinct(&self, message: &str) -> Result<(), SqlError> {
        if self.at_kw("distinct") {
            return Err(SqlError::parse(message, self.peek().span));
        }
        Ok(())
    }

    fn recover_to_semicolon(&mut self) {
        while !self.at(&TokenKind::Semicolon) && !self.at(&TokenKind::Eof) {
            self.next();
        }
    }

    // ---- statements ----------------------------------------------------

    fn parse_statement(&mut self) -> Result<Statement, SqlError> {
        if self.at_kw("select") {
            Ok(Statement::Select(Box::new(self.parse_select()?)))
        } else if self.at_kw("set") {
            self.parse_set()
        } else if self.at_kw("show") {
            self.parse_show()
        } else if self.at_kw("explain") {
            let kw = self.next();
            let analyze = self.eat_kw("analyze");
            let select = self.parse_select()?;
            Ok(Statement::Explain {
                analyze,
                span: kw.span.to(select.span),
                select: Box::new(select),
            })
        } else {
            Err(self.unexpected("SELECT, SET, SHOW or EXPLAIN"))
        }
    }

    fn parse_set(&mut self) -> Result<Statement, SqlError> {
        let kw = self.expect_kw("set")?;
        let name = self.ident("a variable name")?;
        if !self.eat(&TokenKind::Eq) {
            self.eat_kw("to");
        }
        // The value is everything up to the statement boundary, taken as a
        // raw source slice (so `auto:4000` needs no quoting); a single
        // string literal is unquoted.
        let first = self.peek().clone();
        if matches!(first.kind, TokenKind::Semicolon | TokenKind::Eof) {
            return Err(self.unexpected("a value"));
        }
        if let TokenKind::String(s) = &first.kind {
            self.next();
            if self.at(&TokenKind::Semicolon) || self.at(&TokenKind::Eof) {
                return Ok(Statement::Set {
                    span: kw.span.to(first.span),
                    name,
                    value: s.clone(),
                    value_span: first.span,
                });
            }
        }
        let mut last = first.span;
        while !self.at(&TokenKind::Semicolon) && !self.at(&TokenKind::Eof) {
            last = self.next().span;
        }
        let value_span = first.span.to(last);
        Ok(Statement::Set {
            span: kw.span.to(value_span),
            name,
            value: self.src[value_span.start..value_span.end]
                .trim()
                .to_string(),
            value_span,
        })
    }

    fn parse_show(&mut self) -> Result<Statement, SqlError> {
        let kw = self.expect_kw("show")?;
        let name = self.ident("a variable name or TABLES")?;
        Ok(Statement::Show {
            span: kw.span.to(name.span),
            name,
        })
    }

    // ---- SELECT --------------------------------------------------------

    fn parse_select(&mut self) -> Result<Select, SqlError> {
        let kw = self.expect_kw("select")?;
        self.reject_distinct("SELECT DISTINCT is not supported; use GROUP BY")?;
        let mut items = vec![self.parse_select_item()?];
        while self.eat(&TokenKind::Comma) {
            items.push(self.parse_select_item()?);
        }
        self.expect_kw("from")?;
        let from = self.parse_from()?;
        let selection = if self.eat_kw("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            group_by.push(self.parse_expr()?);
            while self.eat(&TokenKind::Comma) {
                group_by.push(self.parse_expr()?);
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.parse_expr()?;
                let descending = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderItem { expr, descending });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            let t = self.peek().clone();
            match t.kind {
                TokenKind::Int(n) if n >= 0 => {
                    self.next();
                    Some(Limit {
                        n: n as u64,
                        span: t.span,
                    })
                }
                _ => return Err(self.unexpected("a non-negative integer")),
            }
        } else {
            None
        };
        let end = self.tokens[self.pos.saturating_sub(1)].span;
        Ok(Select {
            items,
            from,
            selection,
            group_by,
            having,
            order_by,
            limit,
            span: kw.span.to(end),
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, SqlError> {
        if self.at(&TokenKind::Star) {
            let t = self.next();
            return Ok(SelectItem::Wildcard(t.span));
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    /// `[AS] ident`, where an AS-less alias must not be a reserved word.
    fn parse_alias(&mut self) -> Result<Option<Ident>, SqlError> {
        if self.eat_kw("as") {
            return Ok(Some(self.ident("an alias")?));
        }
        if let TokenKind::Ident(s) = &self.peek().kind {
            if !RESERVED.contains(&s.to_ascii_lowercase().as_str()) {
                return Ok(Some(self.ident("an alias")?));
            }
        }
        Ok(None)
    }

    fn parse_from(&mut self) -> Result<From, SqlError> {
        let base = self.parse_table_factor()?;
        let mut joins = Vec::new();
        loop {
            let start = self.peek().span;
            if self.eat_kw("inner") {
                self.expect_kw("join")?;
            } else if !self.eat_kw("join") {
                break;
            }
            let table = self.parse_table_factor()?;
            self.expect_kw("on")?;
            let on = self.parse_expr()?;
            let span = start.to(on.span);
            joins.push(Join { table, on, span });
        }
        Ok(From { base, joins })
    }

    fn parse_table_factor(&mut self) -> Result<TableFactor, SqlError> {
        let name = self.ident("a table name")?;
        let alias = self.parse_alias()?;
        Ok(TableFactor { name, alias })
    }

    // ---- expressions ---------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, SqlError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_and()?;
        while self.eat_kw("or") {
            let right = self.parse_and()?;
            let span = left.span.to(right.span);
            left = Expr::new(
                ExprKind::Binary {
                    left: Box::new(left),
                    op: BinaryOp::Or,
                    right: Box::new(right),
                },
                span,
            );
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_not()?;
        while self.eat_kw("and") {
            let right = self.parse_not()?;
            let span = left.span.to(right.span);
            left = Expr::new(
                ExprKind::Binary {
                    left: Box::new(left),
                    op: BinaryOp::And,
                    right: Box::new(right),
                },
                span,
            );
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, SqlError> {
        if self.at_kw("not") {
            let kw = self.next();
            let inner = self.parse_not()?;
            let span = kw.span.to(inner.span);
            return Ok(Expr::new(ExprKind::Not(Box::new(inner)), span));
        }
        self.parse_comparison()
    }

    fn comparison_op(&self) -> Option<BinaryOp> {
        match self.peek().kind {
            TokenKind::Eq => Some(BinaryOp::Eq),
            TokenKind::NotEq => Some(BinaryOp::NotEq),
            TokenKind::Lt => Some(BinaryOp::Lt),
            TokenKind::LtEq => Some(BinaryOp::LtEq),
            TokenKind::Gt => Some(BinaryOp::Gt),
            TokenKind::GtEq => Some(BinaryOp::GtEq),
            _ => None,
        }
    }

    fn parse_comparison(&mut self) -> Result<Expr, SqlError> {
        let mut expr = self.parse_additive()?;
        loop {
            if let Some(op) = self.comparison_op() {
                self.next();
                let right = self.parse_additive()?;
                let span = expr.span.to(right.span);
                expr = Expr::new(
                    ExprKind::Binary {
                        left: Box::new(expr),
                        op,
                        right: Box::new(right),
                    },
                    span,
                );
                continue;
            }
            // `NOT` directly followed by BETWEEN / IN / LIKE negates the
            // postfix predicate.
            let negated = if self.at_kw("not") {
                let save = self.pos;
                self.next();
                if self.at_kw("between") || self.at_kw("in") || self.at_kw("like") {
                    true
                } else {
                    self.pos = save;
                    break;
                }
            } else {
                false
            };
            if self.eat_kw("between") {
                let low = self.parse_additive()?;
                self.expect_kw("and")?;
                let high = self.parse_additive()?;
                let span = expr.span.to(high.span);
                expr = Expr::new(
                    ExprKind::Between {
                        expr: Box::new(expr),
                        negated,
                        low: Box::new(low),
                        high: Box::new(high),
                    },
                    span,
                );
            } else if self.eat_kw("in") {
                self.expect(&TokenKind::LParen)?;
                let mut list = vec![self.parse_expr()?];
                while self.eat(&TokenKind::Comma) {
                    list.push(self.parse_expr()?);
                }
                let close = self.expect(&TokenKind::RParen)?;
                let span = expr.span.to(close.span);
                expr = Expr::new(
                    ExprKind::InList {
                        expr: Box::new(expr),
                        negated,
                        list,
                    },
                    span,
                );
            } else if self.eat_kw("like") {
                let pattern = self.parse_additive()?;
                let span = expr.span.to(pattern.span);
                expr = Expr::new(
                    ExprKind::Like {
                        expr: Box::new(expr),
                        negated,
                        pattern: Box::new(pattern),
                    },
                    span,
                );
            } else if self.at_kw("is") {
                let kw = self.next();
                let negated = self.eat_kw("not");
                let null_kw = self.expect_kw("null")?;
                let span = expr.span.to(kw.span).to(null_kw.span);
                expr = Expr::new(
                    ExprKind::IsNull {
                        expr: Box::new(expr),
                        negated,
                    },
                    span,
                );
            } else {
                break;
            }
        }
        Ok(expr)
    }

    fn parse_additive(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                _ => break,
            };
            self.next();
            let right = self.parse_multiplicative()?;
            let span = left.span.to(right.span);
            left = Expr::new(
                ExprKind::Binary {
                    left: Box::new(left),
                    op,
                    right: Box::new(right),
                },
                span,
            );
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                _ => break,
            };
            self.next();
            let right = self.parse_unary()?;
            let span = left.span.to(right.span);
            left = Expr::new(
                ExprKind::Binary {
                    left: Box::new(left),
                    op,
                    right: Box::new(right),
                },
                span,
            );
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, SqlError> {
        if self.at(&TokenKind::Plus) {
            self.next();
            return self.parse_unary();
        }
        if self.at(&TokenKind::Minus) {
            let minus = self.next();
            let inner = self.parse_unary()?;
            let span = minus.span.to(inner.span);
            // Fold `-literal`; otherwise multiply by -1 (preserves the
            // int/float typing rules of the engine).
            return Ok(match inner.kind {
                ExprKind::IntLit(v) => Expr::new(ExprKind::IntLit(-v), span),
                ExprKind::FloatLit(v) => Expr::new(ExprKind::FloatLit(-v), span),
                _ => Expr::new(
                    ExprKind::Binary {
                        left: Box::new(Expr::new(ExprKind::IntLit(-1), minus.span)),
                        op: BinaryOp::Mul,
                        right: Box::new(inner),
                    },
                    span,
                ),
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, SqlError> {
        let t = self.peek().clone();
        match &t.kind {
            TokenKind::LParen => {
                self.next();
                let inner = self.parse_expr()?;
                let close = self.expect(&TokenKind::RParen)?;
                Ok(Expr::new(inner.kind, t.span.to(close.span)))
            }
            TokenKind::Int(v) => {
                self.next();
                Ok(Expr::new(ExprKind::IntLit(*v), t.span))
            }
            TokenKind::Float(v) => {
                self.next();
                Ok(Expr::new(ExprKind::FloatLit(*v), t.span))
            }
            TokenKind::String(s) => {
                self.next();
                Ok(Expr::new(ExprKind::StringLit(s.clone()), t.span))
            }
            TokenKind::Ident(word) => {
                let lower = word.to_ascii_lowercase();
                match lower.as_str() {
                    "true" | "false" => {
                        self.next();
                        Ok(Expr::new(ExprKind::BoolLit(lower == "true"), t.span))
                    }
                    "null" => {
                        self.next();
                        Ok(Expr::new(ExprKind::NullLit, t.span))
                    }
                    "date" => {
                        self.next();
                        let lit = self.peek().clone();
                        match lit.kind {
                            TokenKind::String(s) => {
                                self.next();
                                Ok(Expr::new(ExprKind::DateLit(s), t.span.to(lit.span)))
                            }
                            _ => Err(self.unexpected("a date string like '1998-09-02'")),
                        }
                    }
                    "case" => self.parse_case(),
                    "extract" => self.parse_extract(),
                    _ => self.parse_column_or_function(),
                }
            }
            _ => Err(self.unexpected("an expression")),
        }
    }

    fn parse_case(&mut self) -> Result<Expr, SqlError> {
        let kw = self.expect_kw("case")?;
        let mut branches = Vec::new();
        while self.eat_kw("when") {
            let cond = self.parse_expr()?;
            self.expect_kw("then")?;
            let value = self.parse_expr()?;
            branches.push((cond, value));
        }
        if branches.is_empty() {
            return Err(self.unexpected("WHEN"));
        }
        let otherwise = if self.eat_kw("else") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        let end = self.expect_kw("end")?;
        Ok(Expr::new(
            ExprKind::Case {
                branches,
                otherwise,
            },
            kw.span.to(end.span),
        ))
    }

    fn parse_extract(&mut self) -> Result<Expr, SqlError> {
        let kw = self.expect_kw("extract")?;
        self.expect(&TokenKind::LParen)?;
        self.expect_kw("year")?;
        self.expect_kw("from")?;
        let inner = self.parse_expr()?;
        let close = self.expect(&TokenKind::RParen)?;
        Ok(Expr::new(
            ExprKind::ExtractYear(Box::new(inner)),
            kw.span.to(close.span),
        ))
    }

    fn parse_column_or_function(&mut self) -> Result<Expr, SqlError> {
        let name = self.ident("a column name")?;
        // Function call.
        if self.at(&TokenKind::LParen) {
            self.next();
            if self.at(&TokenKind::Star) {
                self.next();
                let close = self.expect(&TokenKind::RParen)?;
                let span = name.span.to(close.span);
                return Ok(Expr::new(
                    ExprKind::Function {
                        name,
                        args: Vec::new(),
                        is_star: true,
                    },
                    span,
                ));
            }
            self.reject_distinct(&format!(
                "{}(DISTINCT ...) is not supported; GROUP BY the argument first",
                name.value
            ))?;
            let mut args = Vec::new();
            if !self.at(&TokenKind::RParen) {
                args.push(self.parse_expr()?);
                while self.eat(&TokenKind::Comma) {
                    args.push(self.parse_expr()?);
                }
            }
            let close = self.expect(&TokenKind::RParen)?;
            let span = name.span.to(close.span);
            return Ok(Expr::new(
                ExprKind::Function {
                    name,
                    args,
                    is_star: false,
                },
                span,
            ));
        }
        // Qualified column.
        if self.eat(&TokenKind::Dot) {
            let col = self.ident("a column name")?;
            let span = name.span.to(col.span);
            return Ok(Expr::new(
                ExprKind::Column {
                    qualifier: Some(name),
                    name: col,
                },
                span,
            ));
        }
        let span = name.span;
        Ok(Expr::new(
            ExprKind::Column {
                qualifier: None,
                name,
            },
            span,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(sql: &str) -> Select {
        match parse_one(sql).unwrap() {
            Statement::Select(s) => *s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn parses_the_full_select_shape() {
        let s = select(
            "SELECT l_returnflag AS flag, sum(l_quantity) qty, count(*) \
             FROM lineitem \
             WHERE l_shipdate <= DATE '1998-09-02' AND l_discount BETWEEN 0.05 AND 0.07 \
             GROUP BY l_returnflag HAVING count(*) > 1 \
             ORDER BY flag DESC, qty LIMIT 10;",
        );
        assert_eq!(s.items.len(), 3);
        assert!(s.selection.is_some());
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].descending);
        assert!(!s.order_by[1].descending);
        assert_eq!(s.limit.unwrap().n, 10);
        match &s.items[0] {
            SelectItem::Expr { alias: Some(a), .. } => assert_eq!(a.value, "flag"),
            other => panic!("expected aliased item, got {other:?}"),
        }
    }

    #[test]
    fn parses_joins_left_deep() {
        let s = select(
            "SELECT * FROM customer c \
             INNER JOIN orders o ON c.c_custkey = o.o_custkey \
             JOIN lineitem ON o.o_orderkey = lineitem.l_orderkey",
        );
        assert_eq!(s.from.base.qualifier(), "c");
        assert_eq!(s.from.joins.len(), 2);
        assert_eq!(s.from.joins[0].table.qualifier(), "o");
        assert_eq!(s.from.joins[1].table.qualifier(), "lineitem");
    }

    #[test]
    fn precedence_or_binds_weakest() {
        let s = select("SELECT a FROM t WHERE a = 1 OR b = 2 AND NOT c = 3");
        let ExprKind::Binary { op, right, .. } = s.selection.unwrap().kind else {
            panic!("expected binary")
        };
        assert_eq!(op, BinaryOp::Or);
        let ExprKind::Binary { op, right, .. } = right.kind else {
            panic!("expected AND under OR")
        };
        assert_eq!(op, BinaryOp::And);
        assert!(matches!(right.kind, ExprKind::Not(_)));
    }

    #[test]
    fn arithmetic_precedence_and_parens() {
        let s = select("SELECT a + b * (c - 1) FROM t");
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        let ExprKind::Binary { op, right, .. } = &expr.kind else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::Add);
        let ExprKind::Binary { op, .. } = &right.kind else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::Mul);
    }

    #[test]
    fn postfix_predicates() {
        let s = select(
            "SELECT a FROM t WHERE a NOT IN (1, 2) AND b NOT LIKE 'x%' \
             AND c IS NOT NULL AND d NOT BETWEEN 1 AND 2 AND e IS NULL",
        );
        let mut found = Vec::new();
        fn walk(e: &Expr, found: &mut Vec<&'static str>) {
            match &e.kind {
                ExprKind::Binary { left, right, .. } => {
                    walk(left, found);
                    walk(right, found);
                }
                ExprKind::InList { negated, .. } => found.push(if *negated { "!in" } else { "in" }),
                ExprKind::Like { negated, .. } => {
                    found.push(if *negated { "!like" } else { "like" })
                }
                ExprKind::IsNull { negated, .. } => {
                    found.push(if *negated { "!null" } else { "null" })
                }
                ExprKind::Between { negated, .. } => {
                    found.push(if *negated { "!between" } else { "between" })
                }
                _ => {}
            }
        }
        walk(&s.selection.unwrap(), &mut found);
        assert_eq!(found, vec!["!in", "!like", "!null", "!between", "null"]);
    }

    #[test]
    fn unary_minus_folds_literals() {
        let s = select("SELECT -3, -2.5, -a FROM t");
        let kinds: Vec<&ExprKind> = s
            .items
            .iter()
            .map(|i| match i {
                SelectItem::Expr { expr, .. } => &expr.kind,
                _ => panic!(),
            })
            .collect();
        assert_eq!(*kinds[0], ExprKind::IntLit(-3));
        assert_eq!(*kinds[1], ExprKind::FloatLit(-2.5));
        assert!(matches!(kinds[2], ExprKind::Binary { .. }));
    }

    #[test]
    fn case_extract_date() {
        let s = select(
            "SELECT CASE WHEN a > 1 THEN 'hi' ELSE 'lo' END, \
             EXTRACT(YEAR FROM d) FROM t WHERE d < DATE '1995-01-01'",
        );
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        assert!(matches!(expr.kind, ExprKind::Case { .. }));
        let SelectItem::Expr { expr, .. } = &s.items[1] else {
            panic!()
        };
        assert!(matches!(expr.kind, ExprKind::ExtractYear(_)));
        assert!(matches!(s.selection.unwrap().kind, ExprKind::Binary { .. }));
    }

    #[test]
    fn set_and_show_statements() {
        match parse_one("SET deadline_ms = 4000").unwrap() {
            Statement::Set { name, value, .. } => {
                assert_eq!(name.value, "deadline_ms");
                assert_eq!(value, "4000");
            }
            other => panic!("{other:?}"),
        }
        match parse_one("SET elasticity = auto:2500;").unwrap() {
            Statement::Set { value, .. } => assert_eq!(value, "auto:2500"),
            other => panic!("{other:?}"),
        }
        match parse_one("SET elasticity = 'auto:2500'").unwrap() {
            Statement::Set { value, .. } => assert_eq!(value, "auto:2500"),
            other => panic!("{other:?}"),
        }
        match parse_one("SHOW tables").unwrap() {
            Statement::Show { name, .. } => assert_eq!(name.value, "tables"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn explain_wraps_one_select() {
        let explained = |sql| match parse_one(sql).unwrap() {
            s @ Statement::Explain { analyze, .. } => (analyze, s.span()),
            other => panic!("{other:?}"),
        };
        let (plain, analyze) = (
            "EXPLAIN SELECT a FROM t",
            "explain Analyze SELECT a FROM t;",
        );
        assert_eq!(explained(plain), (false, Span::new(0, 23)));
        assert_eq!(explained(analyze), (true, Span::new(0, 31)));
        assert!(parse_one("EXPLAIN SET dop = 2").is_err());
    }

    #[test]
    fn error_recovery_reports_every_bad_statement() {
        let errs = parse_statements("SELECT FROM t; SELECT a FROM t; SELECT a FROM WHERE; SET;")
            .unwrap_err();
        assert_eq!(errs.len(), 3, "{errs:?}");
        // Spans point into the right statements.
        assert!(errs[0].span.start < 14);
        assert!(errs[1].span.start > 14);
        assert!(errs[2].span.start > errs[1].span.start);
    }

    #[test]
    fn spans_cover_the_reported_token() {
        let sql = "SELECT a FROM t WHERE a ><";
        let errs = parse_statements(sql).unwrap_err();
        assert_eq!(&sql[errs[0].span.start..errs[0].span.end], "<");
    }

    #[test]
    fn eof_mid_statement_is_an_error_not_a_hang() {
        assert!(parse_one("SELECT a FROM").is_err());
        assert!(parse_one("SELECT a FROM t WHERE").is_err());
        assert!(parse_one("SELECT CASE WHEN a THEN").is_err());
        assert!(parse_one("").is_err());
    }

    #[test]
    fn distinct_is_a_keyword_not_a_column() {
        // Not a column named DISTINCT aliased by the next word: against a
        // table with a `distinct` column that reads the wrong column.
        let sql = "SELECT DISTINCT l_returnflag FROM lineitem";
        let err = parse_one(sql).unwrap_err();
        assert!(
            err.message.contains("SELECT DISTINCT is not supported"),
            "{err:?}"
        );
        assert_eq!(&sql[err.span.start..err.span.end], "DISTINCT");

        let sql = "SELECT count(distinct x) FROM t";
        let err = parse_one(sql).unwrap_err();
        assert!(
            err.message.contains("count(DISTINCT ...) is not supported"),
            "{err:?}"
        );
        assert_eq!(&sql[err.span.start..err.span.end], "distinct");

        // Nor is it an alias or a bare column anywhere else.
        assert!(parse_one("SELECT a distinct FROM t").is_err());
        assert!(parse_one("SELECT a FROM t WHERE distinct = 1").is_err());
    }

    #[test]
    fn single_statement_enforced() {
        assert!(parse_one("SELECT a FROM t; SELECT b FROM t").is_err());
    }
}
