//! Session state: the variables a client tunes with `SET`, and how they
//! become per-query [`ExecOptions`] / [`Optimizer`] settings.
//!
//! Four variables exist, all session-scoped (never shared across
//! connections):
//!
//! | variable      | meaning                                               |
//! |---------------|-------------------------------------------------------|
//! | `deadline_ms` | target completion deadline for `auto` elasticity      |
//! | `elasticity`  | controller mode (`off`, `auto[:ms]`, `forced:<dop>`, `forced-grow`, `forced-shrink`, `cycle[:h:l]`) |
//! | `dop`         | planned Source-stage parallelism (the optimizer knob), 1..=[`MAX_SESSION_DOP`] |
//! | `nodes`       | worker nodes this session's SELECTs run across, a quoted comma-separated address list; `''` (the default) runs them in the server alone |
//!
//! `SET elasticity = auto` (no suffix) adopts the session's current
//! `deadline_ms`; `SET elasticity = auto:2500` pins both. Malformed values
//! are rejected via [`ElasticityConfig::try_parse_mode`] and leave the
//! session unchanged.

use std::net::SocketAddr;

use accordion_common::config::{ElasticityConfig, ElasticityMode};
use accordion_common::{AccordionError, Result};
use accordion_exec::ExecOptions;
use accordion_plan::optimizer::{Optimizer, OptimizerConfig};

/// Largest `dop` a session may plan at. The next SELECT asks the scheduler
/// for that many task threads, so the value is hostile input until it is
/// bounded; 1024 is far beyond any pool this engine runs on.
pub const MAX_SESSION_DOP: u32 = 1024;

/// Per-connection tunables. Fresh sessions start from the server's base
/// [`ExecOptions`] and default DOP.
#[derive(Debug, Clone)]
pub struct SessionVars {
    /// Deadline handed to `auto` elasticity, milliseconds.
    pub deadline_ms: u64,
    /// Elasticity controller configuration for this session's queries.
    pub elasticity: ElasticityConfig,
    /// Planned Source-stage parallelism.
    pub dop: u32,
    /// Worker nodes SELECTs are distributed over; none runs them locally.
    pub nodes: Vec<String>,
    /// The server-wide option template (page size, network shape); the
    /// session overlays its own elasticity on top.
    base: ExecOptions,
}

impl SessionVars {
    pub fn new(base: &ExecOptions, default_dop: u32) -> Self {
        let deadline_ms = match base.elasticity.mode {
            ElasticityMode::Auto { deadline_ms } => deadline_ms,
            _ => ElasticityConfig::DEFAULT_AUTO_DEADLINE_MS,
        };
        SessionVars {
            deadline_ms,
            elasticity: base.elasticity,
            dop: default_dop.max(1),
            nodes: Vec::new(),
            base: base.clone(),
        }
    }

    /// Applies one `SET name = value`; returns the acknowledgment line.
    pub fn set(&mut self, name: &str, value: &str) -> Result<String> {
        match name {
            "deadline_ms" => {
                let ms: u64 = value.trim().parse().map_err(|_| {
                    AccordionError::Parse(format!("invalid deadline_ms value '{value}'"))
                })?;
                if ms == 0 {
                    return Err(AccordionError::Parse(
                        "deadline_ms must be positive".to_string(),
                    ));
                }
                self.deadline_ms = ms;
                // An active auto controller re-targets immediately.
                if let ElasticityMode::Auto { .. } = self.elasticity.mode {
                    self.elasticity.mode = ElasticityMode::Auto { deadline_ms: ms };
                }
                Ok(format!("deadline_ms = {ms}"))
            }
            "elasticity" => {
                let value = value.trim();
                let mut mode = ElasticityConfig::try_parse_mode(value)?;
                if let ElasticityMode::Auto { deadline_ms } = &mut mode {
                    // Bare `auto` adopts the session deadline instead of the
                    // global default; `auto:<ms>` re-pins the session's.
                    if value.contains(':') {
                        self.deadline_ms = *deadline_ms;
                    } else {
                        *deadline_ms = self.deadline_ms;
                    }
                }
                self.elasticity.mode = mode;
                Ok(format!("elasticity = {mode}"))
            }
            "dop" => {
                let dop: u32 = value
                    .trim()
                    .parse()
                    .map_err(|_| AccordionError::Parse(format!("invalid dop value '{value}'")))?;
                if dop == 0 {
                    return Err(AccordionError::Parse("dop must be positive".to_string()));
                }
                if dop > MAX_SESSION_DOP {
                    return Err(AccordionError::Parse(format!(
                        "dop must be at most {MAX_SESSION_DOP}"
                    )));
                }
                self.dop = dop;
                Ok(format!("dop = {dop}"))
            }
            "nodes" => {
                let nodes: Vec<String> = value
                    .split(',')
                    .map(|a| a.trim().to_string())
                    .filter(|a| !a.is_empty())
                    .collect();
                if let Some(bad) = nodes.iter().find(|a| a.parse::<SocketAddr>().is_err()) {
                    return Err(AccordionError::Parse(format!(
                        "invalid node address '{bad}' (expected ip:port)"
                    )));
                }
                self.nodes = nodes;
                self.show("nodes")
            }
            other => Err(AccordionError::Parse(format!(
                "unknown session variable '{other}' (expected deadline_ms, elasticity, dop, or nodes)"
            ))),
        }
    }

    /// Answers one `SHOW name`.
    pub fn show(&self, name: &str) -> Result<String> {
        match name {
            "deadline_ms" => Ok(format!("deadline_ms = {}", self.deadline_ms)),
            "elasticity" => Ok(format!("elasticity = {}", self.elasticity.mode)),
            "dop" => Ok(format!("dop = {}", self.dop)),
            "nodes" => Ok(format!("nodes = {}", self.nodes.join(","))),
            "all" => Ok(format!(
                "deadline_ms = {}, elasticity = {}, dop = {}, nodes = {}",
                self.deadline_ms,
                self.elasticity.mode,
                self.dop,
                self.nodes.join(",")
            )),
            other => Err(AccordionError::Parse(format!(
                "unknown session variable '{other}' (expected deadline_ms, elasticity, dop, nodes, or ALL)"
            ))),
        }
    }

    /// The per-query [`ExecOptions`]: the server's base options with this
    /// session's elasticity overlaid. (`worker_threads` is irrelevant here
    /// — the shared executor's pool is sized once at startup.)
    pub fn exec_options(&self) -> ExecOptions {
        let mut opts = self.base.clone();
        opts.elasticity = self.elasticity;
        opts
    }

    /// The per-query optimizer, planning scans at this session's DOP.
    pub fn optimizer(&self) -> Optimizer {
        Optimizer::new(OptimizerConfig::default().with_parallelism(self.dop))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars() -> SessionVars {
        SessionVars::new(&ExecOptions::with_page_rows(64), 4)
    }

    #[test]
    fn set_and_show_the_three_variables() {
        let mut v = vars();
        assert_eq!(v.set("dop", "7").unwrap(), "dop = 7");
        assert_eq!(v.show("dop").unwrap(), "dop = 7");
        assert_eq!(v.set("deadline_ms", "2500").unwrap(), "deadline_ms = 2500");
        assert_eq!(
            v.set("elasticity", "forced-grow").unwrap(),
            "elasticity = forced-grow"
        );
        assert_eq!(v.elasticity.mode, ElasticityMode::ForcedGrow);
        assert!(v.show("all").unwrap().contains("forced-grow"));
    }

    #[test]
    fn bare_auto_adopts_the_session_deadline() {
        let mut v = vars();
        v.set("deadline_ms", "750").unwrap();
        v.set("elasticity", "auto").unwrap();
        assert_eq!(v.elasticity.mode, ElasticityMode::Auto { deadline_ms: 750 });
        // An explicit suffix re-pins the session deadline too.
        v.set("elasticity", "auto:300").unwrap();
        assert_eq!(v.deadline_ms, 300);
        // Re-targeting the deadline updates the active auto mode.
        v.set("deadline_ms", "900").unwrap();
        assert_eq!(v.elasticity.mode, ElasticityMode::Auto { deadline_ms: 900 });
    }

    #[test]
    fn every_mode_is_accepted_in_any_case_and_shown_in_lowercase() {
        // The grammar round-trip is `config`'s test; a session echoes it and
        // fills a bare `auto` with its own deadline.
        let mut v = vars();
        v.set("deadline_ms", "750").unwrap();
        for (value, shown) in [("Forced-Grow", "forced-grow"), ("AUTO", "auto:750")] {
            let ack = format!("elasticity = {shown}");
            assert_eq!(v.set("elasticity", value).unwrap(), ack, "{value}");
            assert_eq!(v.show("elasticity").unwrap(), ack, "{value}");
        }
    }

    #[test]
    fn malformed_values_are_rejected_and_leave_state_unchanged() {
        let mut v = vars();
        let before = v.elasticity.mode;
        assert!(v.set("elasticity", "warp-speed").is_err());
        assert!(v.set("elasticity", "auto:0").is_err());
        assert!(v.set("elasticity", "forced:abc").is_err());
        assert_eq!(v.elasticity.mode, before);
        assert!(v.set("dop", "0").is_err());
        assert!(v.set("dop", "-3").is_err());
        assert!(v.set("dop", "1025").is_err());
        assert!(v.set("dop", "4000000000").is_err());
        assert_eq!(v.dop, 4);
        assert_eq!(v.set("dop", "1024").unwrap(), "dop = 1024");
        v.set("dop", "4").unwrap();
        assert!(v.set("deadline_ms", "soon").is_err());
        assert!(v.set("page_rows", "9").is_err());
        assert!(v.show("page_rows").is_err());
    }

    #[test]
    fn nodes_is_an_address_list_and_empty_means_local() {
        let mut v = vars();
        assert_eq!(v.show("nodes").unwrap(), "nodes = ");
        let ack = v.set("nodes", "127.0.0.1:5001, 127.0.0.1:5002").unwrap();
        assert_eq!(ack, "nodes = 127.0.0.1:5001,127.0.0.1:5002");
        assert!(v.show("all").unwrap().ends_with(&ack));
        // A name is not an address; a rejected list leaves the old one.
        assert!(v.set("nodes", "127.0.0.1:5001,worker-2").is_err());
        assert_eq!(v.nodes, ["127.0.0.1:5001", "127.0.0.1:5002"]);
        assert_eq!(v.set("nodes", "").unwrap(), "nodes = ");
        assert!(v.nodes.is_empty());
    }

    #[test]
    fn exec_options_overlay_session_elasticity() {
        let mut v = vars();
        v.set("elasticity", "forced:6").unwrap();
        let opts = v.exec_options();
        assert_eq!(opts.page_rows, 64);
        assert_eq!(
            opts.elasticity.mode,
            ElasticityMode::Forced { target_dop: 6 }
        );
        assert_eq!(v.optimizer().config().scan_parallelism, 4);
    }
}
