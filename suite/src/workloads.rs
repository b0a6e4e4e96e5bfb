//! Statements and workloads.
//!
//! The `.sql` files under `suite/sql/` are the only query definition the
//! suite knows; a workload is a named list of them (a **round**) plus the
//! path the round takes through the system.

use crate::speed::SpeedExponents;

/// Every statement file, by name.
pub const STATEMENTS: [(&str, &str); 7] = [
    ("q1", include_str!("../sql/q1.sql")),
    ("q3", include_str!("../sql/q3.sql")),
    ("q6", include_str!("../sql/q6.sql")),
    ("q_expr", include_str!("../sql/q_expr.sql")),
    ("q_shuffle", include_str!("../sql/q_shuffle.sql")),
    ("q_top", include_str!("../sql/q_top.sql")),
    ("q_wide", include_str!("../sql/q_wide.sql")),
];

/// SQL text of statement `name`; panics on a name that has no file, which
/// is a bug in the workload table below.
pub fn sql(name: &str) -> &'static str {
    STATEMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, sql)| *sql)
        .unwrap_or_else(|| panic!("no statement file for '{name}'"))
}

/// How a workload's statements reach the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `core::QueryServer` in the bench process, `core::Client` over
    /// loopback TCP.
    Server,
    /// Bench process is the coordinator (`core::Fleet`) of one spawned
    /// worker process.
    Dist,
}

/// A deadline relative to the statement's own calibrated dop-1 time `T1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Deadline {
    /// 3.0 · T1: dop 1 meets it, so the cheapest answer is to stay there.
    Loose,
    /// 0.7 · T1: reachable only by growing to dop 2 early.
    Tight,
}

impl Deadline {
    pub fn factor(self) -> f64 {
        match self {
            Deadline::Loose => 3.0,
            Deadline::Tight => 0.7,
        }
    }

    fn suffix(self) -> &'static str {
        match self {
            Deadline::Loose => "loose",
            Deadline::Tight => "tight",
        }
    }
}

/// One statement of a round.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Statement file name.
    pub stmt: &'static str,
    /// `Some` runs the statement at `SET dop = 1; SET elasticity = auto;
    /// SET deadline_ms = D`.
    pub deadline: Option<Deadline>,
}

impl Step {
    /// `q1`, or `q1@tight` for a deadline step.
    pub fn label(&self) -> String {
        match self.deadline {
            None => self.stmt.to_string(),
            Some(d) => format!("{}@{}", self.stmt, d.suffix()),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub path: Path,
    pub round: Vec<Step>,
    /// How this workload's times follow the machine's speed. Fitted on the
    /// sizing host over twenty runs that saw all of its states
    /// (`tools/fit_exponents.py`); part of the metrics' definition.
    pub speed: SpeedExponents,
}

fn plain(stmts: &[&'static str]) -> Vec<Step> {
    stmts
        .iter()
        .map(|stmt| Step {
            stmt,
            deadline: None,
        })
        .collect()
}

/// The four workloads. Names are final: `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    let slo = |stmt, d| Step {
        stmt,
        deadline: Some(d),
    };
    vec![
        Workload {
            name: "scan_agg",
            path: Path::Server,
            round: plain(&["q1", "q6", "q_expr"]),
            speed: SpeedExponents {
                latency: 0.62,
                cpu: 0.75,
                setup: 0.77,
            },
        },
        Workload {
            name: "join_shuffle",
            path: Path::Server,
            round: plain(&["q3", "q_shuffle", "q_top", "q_wide"]),
            speed: SpeedExponents {
                latency: 0.71,
                cpu: 0.72,
                setup: 0.85,
            },
        },
        Workload {
            name: "dist_shuffle",
            path: Path::Dist,
            round: plain(&["q1", "q6", "q_shuffle", "q_wide"]),
            speed: SpeedExponents {
                latency: 0.77,
                cpu: 0.67,
                setup: 0.84,
            },
        },
        Workload {
            name: "elastic_slo",
            path: Path::Server,
            round: vec![
                slo("q1", Deadline::Loose),
                slo("q1", Deadline::Tight),
                slo("q6", Deadline::Loose),
                slo("q6", Deadline::Tight),
            ],
            speed: SpeedExponents {
                latency: 0.11,
                cpu: 0.58,
                setup: 0.43,
            },
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_step_names_a_statement_file() {
        for w in all() {
            assert!(!w.round.is_empty());
            for step in &w.round {
                assert!(!sql(step.stmt).trim().is_empty(), "{}", step.label());
            }
        }
        assert_eq!(by_name("elastic_slo").unwrap().round[1].label(), "q1@tight");
        assert!(by_name("nope").is_none());
    }
}
