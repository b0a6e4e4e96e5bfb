//! Result oracle: what every statement must return.
//!
//! Expectations come from the serial reference executor
//! (`exec::execute_logical` at dop 1), which shares no scheduling with the
//! paths under test. A result is compared as (row count, fingerprint). The
//! fingerprint follows the rule of `cluster::matrix::result_checksum` —
//! order-insensitive, floats quantized to seven significant digits so the
//! summation order of parallel merges cannot change it — but works on the
//! text rows a client receives, and combines row hashes with a commutative
//! sum instead of sorting, so checking a 174 k-row result stays cheap next
//! to the statement it checks.

use std::collections::HashMap;

use accordion_common::Result;
use accordion_data::types::{DataType, Value};
use accordion_exec::{execute_logical, ExecOptions, QueryResult};
use accordion_plan::optimizer::{Optimizer, OptimizerConfig};
use accordion_storage::catalog::Catalog;

use crate::workloads::{sql, Workload};

/// What one statement must return.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    pub rows: usize,
    pub fingerprint: u64,
    /// Which result columns are floats (quantized before hashing).
    pub float_cols: Vec<bool>,
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Fingerprint of a result given as text rows.
pub fn fingerprint<R: AsRef<[String]>>(rows: &[R], float_cols: &[bool]) -> u64 {
    let mut sum = 0u64;
    for row in rows {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (i, field) in row.as_ref().iter().enumerate() {
            let is_float = float_cols.get(i).copied().unwrap_or(false);
            match field.parse::<f64>() {
                Ok(x) if is_float && x.is_finite() => {
                    let x = if x == 0.0 { 0.0 } else { x };
                    h = fnv(h, format!("{x:.6e}").as_bytes());
                }
                _ => h = fnv(h, field.as_bytes()),
            }
            // Field separator, so ("ab","c") and ("a","bc") differ.
            h = fnv(h, &[0x1f]);
        }
        sum = sum.wrapping_add(h);
    }
    sum
}

/// Text rows of an in-process result, as a client decodes them from the
/// protocol: strings unquoted, everything else in its `Display` form.
pub fn text_rows(result: &QueryResult) -> Vec<Vec<String>> {
    result
        .pages
        .iter()
        .flat_map(|p| p.rows())
        .map(|row| row.iter().map(Value::to_string).collect())
        .collect()
}

impl Expectation {
    /// Runs `sql` through the serial executor at dop 1.
    pub fn compute(catalog: &Catalog, sql: &str, page_rows: usize) -> Result<Expectation> {
        let plan = accordion_sql::plan_select(catalog, sql)?;
        let serial = Optimizer::new(OptimizerConfig::default().with_parallelism(1));
        let result = execute_logical(
            catalog,
            &plan,
            &serial,
            &ExecOptions::with_page_rows(page_rows),
        )?;
        let float_cols: Vec<bool> = result
            .schema
            .fields()
            .iter()
            .map(|f| f.data_type == DataType::Float64)
            .collect();
        let rows = text_rows(&result);
        Ok(Expectation {
            rows: rows.len(),
            fingerprint: fingerprint(&rows, &float_cols),
            float_cols,
        })
    }

    /// `Err` with the reason when `rows` is not the expected result.
    pub fn check<R: AsRef<[String]>>(&self, rows: &[R]) -> std::result::Result<(), String> {
        if rows.len() != self.rows {
            return Err(format!("expected {} rows, got {}", self.rows, rows.len()));
        }
        let got = fingerprint(rows, &self.float_cols);
        if got != self.fingerprint {
            return Err(format!(
                "result fingerprint {got:016x} differs from the expected {:016x}",
                self.fingerprint
            ));
        }
        Ok(())
    }
}

/// Expectations for every distinct statement of a workload.
pub fn for_workload(
    catalog: &Catalog,
    workload: &Workload,
    page_rows: usize,
) -> Result<HashMap<&'static str, Expectation>> {
    let mut out = HashMap::new();
    for step in &workload.round {
        if !out.contains_key(step.stmt) {
            let exp = Expectation::compute(catalog, sql(step.stmt), page_rows)?;
            out.insert(step.stmt, exp);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(data: &[[&str; 2]]) -> Vec<Vec<String>> {
        data.iter()
            .map(|r| r.iter().map(|s| s.to_string()).collect())
            .collect()
    }

    #[test]
    fn fingerprint_ignores_order_and_float_noise_but_not_content() {
        let floats = [false, true];
        let a = rows(&[["x", "1.0000000001"], ["y", "2.5"]]);
        let b = rows(&[["y", "2.5"], ["x", "1.0"]]);
        assert_eq!(fingerprint(&a, &floats), fingerprint(&b, &floats));
        let c = rows(&[["y", "2.5"], ["x", "1.001"]]);
        assert_ne!(fingerprint(&a, &floats), fingerprint(&c, &floats));
        // The same text in a non-float column is compared exactly.
        assert_ne!(
            fingerprint(&a, &[false, false]),
            fingerprint(&b, &[false, false])
        );
        // Field boundaries matter.
        assert_ne!(
            fingerprint(&rows(&[["ab", "c"]]), &[false, false]),
            fingerprint(&rows(&[["a", "bc"]]), &[false, false])
        );
    }

    #[test]
    fn a_tampered_expectation_trips_the_check() {
        let data = rows(&[["x", "1.5"], ["y", "2.5"]]);
        let good = Expectation {
            rows: 2,
            fingerprint: fingerprint(&data, &[false, true]),
            float_cols: vec![false, true],
        };
        assert!(good.check(&data).is_ok());
        let wrong_count = Expectation {
            rows: 3,
            ..good.clone()
        };
        assert!(wrong_count.check(&data).unwrap_err().contains("3 rows"));
        let wrong_print = Expectation {
            fingerprint: good.fingerprint ^ 1,
            ..good
        };
        assert!(wrong_print
            .check(&data)
            .unwrap_err()
            .contains("fingerprint"));
    }
}
