//! Network, elasticity and admission configuration, each fact stated once:
//! [`NetworkConfig`] is what every exchange buffer and transport reads,
//! [`ElasticityMode`] is the whole controller configuration, and
//! [`AdmissionConfig`] is a concurrency limit plus a wait-queue length — a
//! gate that rejects is one whose queue has no room.
//!
//! The defaults model the paper's testbed shrunk to a single process: the
//! paper used 1 coordinator + 10 compute + 10 storage nodes (c5.2xlarge,
//! 8 vCPU, 10 Gbps NIC). Here each "node" is a driver thread pool, and
//! node-to-node pages travel over real TCP (see `accordion-net`).

/// The data-plane network: the limits of the elastic exchange buffers
/// (`accordion-net`) and the timeouts of the TCP transports.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Initial capacity (in pages) of every elastic exchange buffer. The
    /// paper starts all buffers at the size of one page (§4.2.2).
    pub initial_buffer_pages: usize,
    /// Upper bound on elastic buffer capacity, in pages (`None` = buffers
    /// may grow without limit under consumer-side demand).
    pub max_buffer_pages: Option<usize>,
    /// TCP connect (and handshake) timeout for real network transports —
    /// the page exchange between worker processes and the query-server
    /// client — in milliseconds.
    pub connect_timeout_ms: u64,
    /// Read timeout of the query-server client, milliseconds. `None`
    /// blocks indefinitely. Node-to-node sessions never time out a read —
    /// an idle session just means upstream has nothing to send yet — and
    /// their waiters end on an ERR, an EOF or the query's poison instead.
    pub read_timeout_ms: Option<u64>,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            initial_buffer_pages: 1,
            max_buffer_pages: Some(256),
            connect_timeout_ms: 5_000,
            read_timeout_ms: None,
        }
    }
}

impl NetworkConfig {
    /// Starts a [`NetworkConfigBuilder`] from the default configuration —
    /// the one way to shape the network: buffer limits and transport
    /// timeouts both hang off the builder.
    pub fn builder() -> NetworkConfigBuilder {
        NetworkConfigBuilder {
            config: NetworkConfig::default(),
        }
    }
}

/// Builder for [`NetworkConfig`]: replaces the former sprawl of
/// `with_*` constructors with one chainable surface.
///
/// ```
/// use accordion_common::config::NetworkConfig;
/// let net = NetworkConfig::builder()
///     .fixed_buffers(2)
///     .connect_timeout_ms(500)
///     .build();
/// assert_eq!(net.max_buffer_pages, Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct NetworkConfigBuilder {
    config: NetworkConfig,
}

impl NetworkConfigBuilder {
    /// Shape the elastic buffers: start at `initial` pages, grow up to
    /// `max` (`None` = unbounded).
    pub fn buffer_pages(mut self, initial: usize, max: Option<usize>) -> Self {
        assert!(initial > 0, "buffer capacity must be positive");
        self.config.initial_buffer_pages = initial;
        self.config.max_buffer_pages = max;
        self
    }

    /// Fix every exchange buffer at exactly `pages` (no elastic growth).
    pub fn fixed_buffers(self, pages: usize) -> Self {
        self.buffer_pages(pages, Some(pages))
    }

    /// Let exchange buffers grow without bound (still starting at
    /// `initial_buffer_pages`).
    pub fn unbounded_buffers(mut self) -> Self {
        self.config.max_buffer_pages = None;
        self
    }

    /// TCP connect timeout for real transports, milliseconds.
    pub fn connect_timeout_ms(mut self, ms: u64) -> Self {
        self.config.connect_timeout_ms = ms.max(1);
        self
    }

    /// Read timeout for real transports (`None` = block indefinitely).
    pub fn read_timeout_ms(mut self, ms: Option<u64>) -> Self {
        self.config.read_timeout_ms = ms;
        self
    }

    pub fn build(self) -> NetworkConfig {
        self.config
    }
}

/// How (and whether) the runtime elasticity controller retunes Source-stage
/// DOP mid-query (paper §5.2, Fig 13). The mode is all there is to
/// configure: *when* the controller looks is not a setting — the claims
/// and scan pages that reach a decision boundary step it (see
/// `accordion_cluster::elastic`), and every claimed split is one, so
/// re-parallelization always happens **between splits**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ElasticityMode {
    /// No controller: stages keep their planned parallelism.
    #[default]
    Off,
    /// The what-if predictor picks the **smallest** DOP within the stage's
    /// bounds whose predicted completion time (`T_remain = V_remain /
    /// R_consume`) meets the deadline; if none does, the largest.
    Auto {
        /// Target completion deadline for every Source stage, milliseconds.
        deadline_ms: u64,
    },
    /// Test schedule injector: retune to exactly `target_dop` (clamped to
    /// the stage's bounds) at the first decision point, then go passive.
    Forced { target_dop: u32 },
    /// Test schedule injector: double the DOP (clamped) at the first
    /// decision point, then go passive. `ACCORDION_ELASTICITY=forced-grow`.
    ForcedGrow,
    /// Test schedule injector: drop to the stage's minimum DOP at the first
    /// decision point, then go passive. `ACCORDION_ELASTICITY=forced-shrink`.
    ForcedShrink,
    /// Test/bench schedule injector: alternate between `high` and `low` DOP
    /// at successive decision boundaries (grow → shrink → grow → …),
    /// hammering repeated mid-query retunes on one execution.
    /// `ACCORDION_ELASTICITY=cycle[:high:low]`.
    Cycle { high: u32, low: u32 },
}

/// A second name for [`ElasticityMode`], which is the whole elasticity
/// configuration; the benchmark suite spells it this way.
pub type ElasticityConfig = ElasticityMode;

/// The canonical spelling of a mode, in the grammar
/// [`ElasticityMode::try_parse_mode`] reads: what `SET` / `SHOW` echo and
/// what a coordinator sends its workers.
impl std::fmt::Display for ElasticityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElasticityMode::Off => write!(f, "off"),
            ElasticityMode::Auto { deadline_ms } => write!(f, "auto:{deadline_ms}"),
            ElasticityMode::Forced { target_dop } => write!(f, "forced:{target_dop}"),
            ElasticityMode::ForcedGrow => write!(f, "forced-grow"),
            ElasticityMode::ForcedShrink => write!(f, "forced-shrink"),
            ElasticityMode::Cycle { high, low } => write!(f, "cycle:{high}:{low}"),
        }
    }
}

impl ElasticityMode {
    pub fn off() -> Self {
        ElasticityMode::Off
    }

    /// Deterministic test schedule: jump to `target_dop` at the first split
    /// boundary.
    pub fn forced(target_dop: u32) -> Self {
        ElasticityMode::Forced { target_dop }
    }

    /// Predictor-driven mode with a completion deadline in milliseconds.
    pub fn auto(deadline_ms: u64) -> Self {
        ElasticityMode::Auto { deadline_ms }
    }

    /// Repeated grow/shrink schedule: alternate between `high` and `low`
    /// DOP at every decision boundary.
    pub fn cycle(high: u32, low: u32) -> Self {
        ElasticityMode::Cycle { high, low }
    }

    /// Deadline used by `auto` when no explicit `auto:<deadline_ms>` suffix
    /// is given. A deadline of 0 would be degenerate — nothing can meet it,
    /// so the predictor would pin every stage at its maximum DOP.
    pub const DEFAULT_AUTO_DEADLINE_MS: u64 = 1_000;

    /// Reads `ACCORDION_ELASTICITY` (the [`Self::try_parse_mode`] grammar);
    /// anything else — including unset — is `Off`. This is what the CI
    /// elasticity matrix toggles.
    pub fn from_env() -> Self {
        Self::parse_mode(std::env::var("ACCORDION_ELASTICITY").ok().as_deref())
    }

    /// Parses one `ACCORDION_ELASTICITY` value: [`Self::try_parse_mode`]
    /// with every error — and unset — read as `Off`.
    pub fn parse_mode(value: Option<&str>) -> ElasticityMode {
        value
            .and_then(|v| Self::try_parse_mode(v).ok())
            .unwrap_or_default()
    }

    /// Strict parsing of an elasticity mode — the one grammar, behind the
    /// query server's `SET elasticity`, `--elasticity` and the env var:
    /// `off`, `forced-grow`, `forced-shrink`, `forced:<dop>`,
    /// `cycle[:high:low]`, `auto[:deadline_ms]`, in any ASCII case.
    /// Malformed values are **errors**: an interactive session should hear
    /// about its typo, while the env-var path ([`Self::from_env`]) turns
    /// them into `Off` so a bad CI matrix entry does not fail every test.
    pub fn try_parse_mode(value: &str) -> crate::error::Result<ElasticityMode> {
        use crate::error::AccordionError;
        let bad = |msg: String| Err(AccordionError::Parse(msg));
        match value.to_ascii_lowercase().as_str() {
            "off" => Ok(ElasticityMode::Off),
            "forced-grow" => Ok(ElasticityMode::ForcedGrow),
            "forced-shrink" => Ok(ElasticityMode::ForcedShrink),
            "auto" => Ok(ElasticityMode::Auto {
                deadline_ms: Self::DEFAULT_AUTO_DEADLINE_MS,
            }),
            "cycle" => Ok(ElasticityMode::Cycle { high: 4, low: 1 }),
            v => {
                if let Some(spec) = v.strip_prefix("auto:") {
                    let deadline_ms = match spec.parse::<u64>() {
                        Ok(d) if d > 0 => d,
                        Ok(_) => {
                            return bad(
                                "auto deadline must be positive (0 ms can never be met)".into()
                            )
                        }
                        Err(_) => {
                            return bad(format!(
                                "invalid auto deadline '{spec}' (expected milliseconds, \
                                 e.g. auto:2000)"
                            ))
                        }
                    };
                    return Ok(ElasticityMode::Auto { deadline_ms });
                }
                if let Some(spec) = v.strip_prefix("forced:") {
                    return match spec.parse::<u32>() {
                        Ok(dop) if dop > 0 => Ok(ElasticityMode::Forced { target_dop: dop }),
                        _ => bad(format!(
                            "invalid forced DOP '{spec}' (expected a positive integer)"
                        )),
                    };
                }
                if let Some(spec) = v.strip_prefix("cycle:") {
                    let parsed = spec
                        .split_once(':')
                        .and_then(|(h, l)| Some((h.parse::<u32>().ok()?, l.parse::<u32>().ok()?)));
                    // A schedule whose high is not above its low would grow
                    // once, or not at all, and never shrink.
                    return match parsed {
                        Some((high, low)) if high > low && low > 0 => {
                            Ok(ElasticityMode::Cycle { high, low })
                        }
                        Some((high, low)) if low > 0 => bad(format!(
                            "invalid cycle spec '{spec}' (high {high} must be above low {low})"
                        )),
                        _ => bad(format!(
                            "invalid cycle spec '{spec}' (expected cycle:<high>:<low>)"
                        )),
                    };
                }
                bad(format!(
                    "unknown elasticity mode '{v}' (expected off, auto[:deadline_ms], \
                     forced:<dop>, forced-grow, forced-shrink or cycle[:high:low])"
                ))
            }
        }
    }

    /// True when a controller should run at all.
    pub fn enabled(&self) -> bool {
        *self != ElasticityMode::Off
    }
}

/// Multi-query admission control: how many queries may run concurrently on
/// the shared compute-slot pool, and how many more may wait for a slot. A
/// gate with no room to wait (`queue_limit == 0`) rejects every arrival
/// past the limit at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum queries executing at once (`None` = unlimited, the
    /// single-tenant behavior of earlier versions).
    pub max_concurrent_queries: Option<usize>,
    /// How many queries may wait for a slot once `max_concurrent_queries`
    /// run; further arrivals are rejected outright.
    pub queue_limit: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_concurrent_queries: None,
            queue_limit: 64,
        }
    }
}

impl AdmissionConfig {
    /// Admit at most `max` concurrent queries, queueing the rest.
    pub fn queued(max: usize) -> Self {
        AdmissionConfig {
            max_concurrent_queries: Some(max.max(1)),
            ..AdmissionConfig::default()
        }
    }

    /// Admit at most `max` concurrent queries, rejecting the rest.
    pub fn rejecting(max: usize) -> Self {
        AdmissionConfig {
            queue_limit: 0,
            ..AdmissionConfig::queued(max)
        }
    }

    /// The server's `--max-queries` and strict `--admission queue|reject`
    /// (absent is `queue`): `reject` is a queue with no room.
    pub fn try_parse(max: Option<usize>, policy: Option<&str>) -> crate::error::Result<Self> {
        let queue_limit = match policy.unwrap_or("queue") {
            "queue" => AdmissionConfig::default().queue_limit,
            "reject" => 0,
            v => Err(crate::error::AccordionError::Parse(format!(
                "unknown admission policy '{v}' (expected queue or reject)"
            )))?,
        };
        Ok(AdmissionConfig {
            max_concurrent_queries: max,
            queue_limit,
        })
    }
}

/// Reads `ACCORDION_WORKER_THREADS`: the default size of the cluster
/// scheduler's compute-slot pool (see [`parse_worker_threads`]).
pub fn worker_threads_from_env() -> usize {
    parse_worker_threads(std::env::var("ACCORDION_WORKER_THREADS").ok().as_deref())
}

/// Parses one `ACCORDION_WORKER_THREADS` value. Lenient like the other
/// `ACCORDION_*` readers: anything but a positive integer — unset,
/// unparsable, zero (a pool that could run nothing) — is the default 4.
pub fn parse_worker_threads(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_threads_ignore_unparsable_and_zero() {
        assert_eq!(parse_worker_threads(None), 4);
        assert_eq!(parse_worker_threads(Some("1")), 1);
        assert_eq!(parse_worker_threads(Some("16")), 16);
        for bad in ["0", "", "-2", "four", "2.5", " 3"] {
            assert_eq!(parse_worker_threads(Some(bad)), 4, "{bad:?}");
        }
    }

    #[test]
    fn defaults_are_sane() {
        assert_eq!(
            NetworkConfig::default().initial_buffer_pages,
            1,
            "paper: buffers start at 1 page"
        );
    }

    #[test]
    fn buffer_shaping_builder() {
        let fixed = NetworkConfig::builder().fixed_buffers(1).build();
        assert_eq!(fixed.initial_buffer_pages, 1);
        assert_eq!(fixed.max_buffer_pages, Some(1));
        let open = NetworkConfig::builder().unbounded_buffers().build();
        assert_eq!(open.max_buffer_pages, None);
        let shaped = NetworkConfig::builder().buffer_pages(2, Some(16)).build();
        assert_eq!(shaped.initial_buffer_pages, 2);
        assert_eq!(shaped.max_buffer_pages, Some(16));
    }

    #[test]
    fn transport_timeouts_default_and_build() {
        let d = NetworkConfig::default();
        assert_eq!(d.connect_timeout_ms, 5_000);
        assert_eq!(d.read_timeout_ms, None, "data plane blocks by default");
        let n = NetworkConfig::builder()
            .connect_timeout_ms(250)
            .read_timeout_ms(Some(1_000))
            .build();
        assert_eq!(n.connect_timeout_ms, 250);
        assert_eq!(n.read_timeout_ms, Some(1_000));
    }

    #[test]
    fn elasticity_modes() {
        assert!(!ElasticityMode::off().enabled());
        assert!(ElasticityMode::forced(4).enabled());
        assert_eq!(
            ElasticityMode::auto(250),
            ElasticityMode::Auto { deadline_ms: 250 }
        );
        assert_eq!(
            ElasticityMode::parse_mode(Some("forced-grow")),
            ElasticityMode::ForcedGrow
        );
        assert_eq!(
            ElasticityMode::parse_mode(Some("forced-shrink")),
            ElasticityMode::ForcedShrink
        );
        assert_eq!(
            ElasticityMode::parse_mode(Some("auto:500")),
            ElasticityMode::Auto { deadline_ms: 500 }
        );
        assert_eq!(
            ElasticityMode::parse_mode(Some("cycle:6:2")),
            ElasticityMode::Cycle { high: 6, low: 2 }
        );
        // Bare `cycle` gets the default 4:1 schedule.
        assert_eq!(
            ElasticityMode::parse_mode(Some("cycle")),
            ElasticityMode::Cycle { high: 4, low: 1 }
        );
        assert_eq!(
            ElasticityMode::cycle(8, 2),
            ElasticityMode::Cycle { high: 8, low: 2 }
        );
        // Bare `auto` gets the non-degenerate default deadline instead of
        // an unmeetable 0 ms.
        assert_eq!(
            ElasticityMode::parse_mode(Some("auto")),
            ElasticityMode::Auto {
                deadline_ms: ElasticityMode::DEFAULT_AUTO_DEADLINE_MS
            }
        );
        // The env path speaks the strict grammar, `forced:<dop>` included,
        // and everything that grammar rejects is `Off` — never a guess.
        assert_eq!(
            ElasticityMode::parse_mode(Some("forced:3")),
            ElasticityMode::Forced { target_dop: 3 }
        );
        for off in [None, Some("bogus"), Some("auto:5OO"), Some("cycle:x:y")] {
            assert_eq!(ElasticityMode::parse_mode(off), ElasticityMode::Off);
        }
    }

    #[test]
    fn try_parse_mode_accepts_the_full_grammar() {
        use ElasticityMode::*;
        let ok = |s: &str| ElasticityMode::try_parse_mode(s).unwrap();
        assert_eq!(ok("off"), Off);
        assert_eq!(ok("forced-grow"), ForcedGrow);
        assert_eq!(ok("forced-shrink"), ForcedShrink);
        assert_eq!(ok("forced:3"), Forced { target_dop: 3 });
        assert_eq!(ok("cycle"), Cycle { high: 4, low: 1 });
        assert_eq!(ok("cycle:6:2"), Cycle { high: 6, low: 2 });
        assert_eq!(
            ok("auto"),
            Auto {
                deadline_ms: ElasticityMode::DEFAULT_AUTO_DEADLINE_MS
            }
        );
        assert_eq!(ok("auto:2500"), Auto { deadline_ms: 2500 });
    }

    #[test]
    fn every_mode_round_trips_through_its_display_in_any_case() {
        use ElasticityMode::*;
        for (value, shown, mode) in [
            ("OFF", "off", Off),
            ("Forced-Grow", "forced-grow", ForcedGrow),
            ("FORCED-SHRINK", "forced-shrink", ForcedShrink),
            ("Forced:3", "forced:3", Forced { target_dop: 3 }),
            ("CYCLE", "cycle:4:1", Cycle { high: 4, low: 1 }),
            ("Cycle:5:2", "cycle:5:2", Cycle { high: 5, low: 2 }),
            ("AUTO", "auto:1000", Auto { deadline_ms: 1000 }),
            ("Auto:500", "auto:500", Auto { deadline_ms: 500 }),
        ] {
            let parsed = ElasticityMode::try_parse_mode(value).unwrap();
            assert_eq!(parsed, mode, "{value}");
            assert_eq!(parsed.to_string(), shown, "{value}");
            assert_eq!(ElasticityMode::try_parse_mode(shown).unwrap(), mode);
        }
    }

    #[test]
    fn try_parse_mode_rejects_malformed_values() {
        let err = |s: &str| match ElasticityMode::try_parse_mode(s) {
            Err(crate::error::AccordionError::Parse(m)) => m,
            other => panic!("expected parse error for {s:?}, got {other:?}"),
        };
        assert!(err("bogus").contains("unknown elasticity mode"));
        assert!(err("auto:").contains("invalid auto deadline"));
        assert!(err("auto:5OO").contains("invalid auto deadline"));
        assert!(err("auto:0").contains("positive"));
        assert!(err("auto:-5").contains("invalid auto deadline"));
        assert!(err("forced:").contains("invalid forced DOP"));
        assert!(err("forced:0").contains("invalid forced DOP"));
        assert!(err("cycle:x:y").contains("invalid cycle spec"));
        assert!(err("cycle:4").contains("invalid cycle spec"));
        assert!(err("cycle:0:1").contains("invalid cycle spec"));
        // A high not above the low never cycles; the error names both.
        for (spec, high, low) in [("cycle:1:4", 1, 4), ("cycle:3:3", 3, 3)] {
            assert!(err(spec).contains(&format!("high {high} must be above low {low}")));
        }
        assert!(err("").contains("unknown elasticity mode"));
        // The lenient env-var path still falls back instead of failing.
        assert_eq!(
            ElasticityMode::parse_mode(Some("bogus")),
            ElasticityMode::Off
        );
    }

    #[test]
    fn admission_defaults_and_parsing() {
        let a = AdmissionConfig::default();
        assert_eq!(
            a.max_concurrent_queries, None,
            "default admission is unlimited"
        );
        assert_eq!(a.queue_limit, 64);
        assert_eq!(AdmissionConfig::queued(2).max_concurrent_queries, Some(2));
        assert_eq!(AdmissionConfig::rejecting(3).queue_limit, 0);
        assert_eq!(
            AdmissionConfig::rejecting(3).max_concurrent_queries,
            Some(3)
        );
        // A zero cap would deadlock every query; clamp to one.
        assert_eq!(AdmissionConfig::queued(0).max_concurrent_queries, Some(1));
        // `--admission`: nothing or `queue` queues, `reject` has no room.
        let parse = |policy| AdmissionConfig::try_parse(Some(2), policy);
        assert_eq!(parse(None).unwrap(), AdmissionConfig::queued(2));
        assert_eq!(parse(Some("queue")).unwrap(), AdmissionConfig::queued(2));
        assert_eq!(
            parse(Some("reject")).unwrap(),
            AdmissionConfig::rejecting(2)
        );
        let err = parse(Some("drop")).unwrap_err().to_string();
        assert!(err.contains("unknown admission policy 'drop'"), "{err}");
    }
}
