//! Vectorized expression evaluation and aggregate functions.
//!
//! * [`scalar`] — the scalar expression tree ([`scalar::Expr`]) and its
//!   evaluator, one column kernel per variant: column references, literals,
//!   arithmetic, comparisons, boolean logic, `BETWEEN`, `IN`, `LIKE`, `CASE`,
//!   `EXTRACT YEAR`, `IS NULL`. (`reference`, test builds only, is the
//!   row-at-a-time evaluator the kernels are checked against.)
//! * [`agg`] — aggregate functions (COUNT/SUM/AVG/MIN/MAX) factored into
//!   the **two-phase** model the paper requires for elasticity (§4.1): the
//!   partial phase is stateless-per-page-stream (its state can be destroyed
//!   and rebuilt, so partial-agg stages can be freely re-parallelized) and
//!   the final phase merges partial states at fixed parallelism 1.

pub mod agg;
#[cfg(test)]
mod reference;
pub mod scalar;

pub use agg::{AggKind, AggSpec};
pub use scalar::{BinaryOp, Expr};
