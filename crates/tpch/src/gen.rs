//! Deterministic, seeded TPC-H table generation (no external `dbgen`).
//!
//! Every table is derived from a single user-supplied seed through an
//! xorshift64* stream, with one independent substream per table (seeded
//! `seed ^ fnv1a(table_name)`), so a table's content depends only on
//! `(scale_factor, seed)` — never on generation order. The golden tests
//! below pin per-table row counts and content checksums for a fixed seed,
//! which is what lets tests and the repo benchmark pin row counts and
//! results across machines.
//!
//! Row counts follow the TPC-H scaling rules (`SF=1`: 150 k customers,
//! 1.5 M orders, 1–7 lineitems per order, …); the split counts follow the
//! paper's Table 1 shape at a smaller scale, with the big fact tables in
//! the most splits (orders 16, lineitem 28) so elastic scans have plenty
//! of between-splits decision boundaries.

use accordion_common::fnv1a;
use accordion_data::schema::{Field, Schema};
use accordion_data::types::{date32_from_ymd, Value};
use accordion_storage::catalog::Catalog;
use accordion_storage::table::TableBuilder;

/// xorshift64* — the same generator the engine's property tests use; no
/// external RNG dependency, identical streams on every platform.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // A zero state would be a fixed point; fold in a constant.
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform integer in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform integer in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// Folds one value into a table content checksum (order-sensitive).
fn mix_value(mut h: u64, v: &Value) -> u64 {
    let word = match v {
        Value::Null => 0xDEAD_BEEF_0BAD_F00D,
        Value::Int64(x) => *x as u64,
        Value::Date32(x) => 0x4441_5445_0000_0000 ^ (*x as u32 as u64),
        Value::Bool(x) => 2 + *x as u64,
        Value::Float64(x) => x.to_bits(),
        Value::Utf8(s) => fnv1a(s.as_bytes()),
    };
    h ^= word.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h = h.rotate_left(31);
    h.wrapping_mul(0xC4CE_B9FE_1A85_EC53)
}

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpchOptions {
    /// TPC-H scale factor; `1.0` is the standard 1 GB-class row counts.
    /// Fractional factors scale every per-SF table linearly (min 1 row).
    pub scale_factor: f64,
    /// Master seed; all table substreams derive from it.
    pub seed: u64,
    /// Rows per generated page.
    pub page_rows: usize,
}

impl Default for TpchOptions {
    fn default() -> Self {
        TpchOptions {
            scale_factor: 0.01,
            seed: 42,
            page_rows: 1024,
        }
    }
}

impl TpchOptions {
    fn scaled(&self, base: u64) -> u64 {
        ((base as f64 * self.scale_factor).round() as u64).max(1)
    }
}

/// Row count and content checksum of one generated table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableSummary {
    pub name: &'static str,
    pub rows: u64,
    pub checksum: u64,
}

/// A generated TPC-H database: the registered catalog plus per-table
/// summaries (the determinism fingerprint).
pub struct TpchData {
    pub catalog: Catalog,
    pub tables: Vec<TableSummary>,
}

impl TpchData {
    pub fn summary(&self, table: &str) -> Option<TableSummary> {
        self.tables.iter().copied().find(|t| t.name == table)
    }
}

/// One table under construction: builder plus running checksum.
struct Gen {
    name: &'static str,
    builder: TableBuilder,
    rng: Rng,
    checksum: u64,
    rows: u64,
}

impl Gen {
    fn new(name: &'static str, fields: Vec<Field>, opts: &TpchOptions) -> Self {
        Gen {
            name,
            builder: TableBuilder::new(name, Schema::shared(fields), opts.page_rows.max(1)),
            rng: Rng::new(opts.seed ^ fnv1a(name.as_bytes())),
            checksum: fnv1a(name.as_bytes()),
            rows: 0,
        }
    }

    fn push(&mut self, row: Vec<Value>) {
        for v in &row {
            self.checksum = mix_value(self.checksum, v);
        }
        self.rows += 1;
        self.builder.push_row(row);
    }

    fn register(self, catalog: &Catalog, splits: u32, out: &mut Vec<TableSummary>) {
        self.builder.register(catalog, splits);
        out.push(TableSummary {
            name: self.name,
            rows: self.rows,
            checksum: self.checksum,
        });
    }
}

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// The 25 TPC-H nations with their region keys.
const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];

fn i(v: i64) -> Value {
    Value::Int64(v)
}
fn f(v: f64) -> Value {
    Value::Float64(v)
}
fn s(v: impl Into<String>) -> Value {
    Value::Utf8(v.into())
}

/// `p_retailprice` as a pure function of the part key (the TPC-H formula),
/// so lineitem pricing never needs a cross-table lookup.
fn retail_price(partkey: i64) -> f64 {
    (90000 + (partkey % 200) * 100 + partkey % 1000) as f64 / 100.0
}

/// Rounds to cents — prices stay exactly representable, so checksums over
/// float bits are stable.
fn cents(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Generates all seven tables and registers them in a fresh catalog.
pub fn generate(opts: &TpchOptions) -> TpchData {
    let catalog = Catalog::new();
    let mut tables = Vec::new();

    let date_lo = date32_from_ymd(1992, 1, 1) as i64;
    let date_hi = date32_from_ymd(1998, 8, 2) as i64;

    // region: 5 rows, fixed.
    let mut g = Gen::new("region", crate::schemas::region(), opts);
    for (k, name) in REGIONS.iter().enumerate() {
        g.push(vec![i(k as i64), s(*name)]);
    }
    g.register(&catalog, 1, &mut tables);

    // nation: 25 rows, fixed.
    let mut g = Gen::new("nation", crate::schemas::nation(), opts);
    for (k, (name, region)) in NATIONS.iter().enumerate() {
        g.push(vec![i(k as i64), s(*name), i(*region)]);
    }
    g.register(&catalog, 1, &mut tables);

    // supplier: 10 000 × SF.
    let n_supplier = opts.scaled(10_000) as i64;
    let mut g = Gen::new("supplier", crate::schemas::supplier(), opts);
    for k in 1..=n_supplier {
        let nation = g.rng.below(25) as i64;
        let bal = cents(g.rng.range(0, 1_099_965) as f64 / 100.0 - 999.99);
        g.push(vec![i(k), s(format!("Supplier#{k:09}")), i(nation), f(bal)]);
    }
    g.register(&catalog, 4, &mut tables);

    // part: 200 000 × SF.
    let n_part = opts.scaled(200_000) as i64;
    let mut g = Gen::new("part", crate::schemas::part(), opts);
    for k in 1..=n_part {
        let brand = format!("Brand#{}{}", g.rng.range(1, 5), g.rng.range(1, 5));
        let size = g.rng.range(1, 50) as i64;
        g.push(vec![
            i(k),
            s(format!("Part#{k:09}")),
            s(brand),
            i(size),
            f(retail_price(k)),
        ]);
    }
    g.register(&catalog, 8, &mut tables);

    // customer: 150 000 × SF.
    let n_customer = opts.scaled(150_000) as i64;
    let mut g = Gen::new("customer", crate::schemas::customer(), opts);
    for k in 1..=n_customer {
        let nation = g.rng.below(25) as i64;
        let segment = SEGMENTS[g.rng.below(5) as usize];
        let bal = cents(g.rng.range(0, 1_099_965) as f64 / 100.0 - 999.99);
        g.push(vec![
            i(k),
            s(format!("Customer#{k:09}")),
            i(nation),
            s(segment),
            f(bal),
        ]);
    }
    g.register(&catalog, 8, &mut tables);

    // orders + lineitem: 1 500 000 × SF orders, 1–7 lineitems each. Both
    // derive from the *orders* substream so lineitem keys always join.
    let n_orders = opts.scaled(1_500_000) as i64;
    let mut go = Gen::new("orders", crate::schemas::orders(), opts);
    let mut gl = Gen::new("lineitem", crate::schemas::lineitem(), opts);
    for orderkey in 1..=n_orders {
        let custkey = go.rng.range(1, n_customer as u64) as i64;
        let orderdate = go.rng.range(date_lo as u64, date_hi as u64) as i64;
        let lines = go.rng.range(1, 7) as i64;
        let mut total = 0.0;
        for line in 1..=lines {
            let partkey = gl.rng.range(1, n_part as u64) as i64;
            let suppkey = gl.rng.range(1, n_supplier as u64) as i64;
            let quantity = gl.rng.range(1, 50) as f64;
            let price = cents(quantity * retail_price(partkey));
            let discount = gl.rng.range(0, 10) as f64 / 100.0;
            let tax = gl.rng.range(0, 8) as f64 / 100.0;
            let shipdate = orderdate + gl.rng.range(1, 121) as i64;
            let returnflag = ["R", "A", "N"][gl.rng.below(3) as usize];
            let linestatus = if shipdate > date_hi { "O" } else { "F" };
            total += price;
            gl.push(vec![
                i(orderkey),
                i(line),
                i(partkey),
                i(suppkey),
                f(quantity),
                f(price),
                f(discount),
                f(tax),
                s(returnflag),
                s(linestatus),
                Value::Date32(shipdate as i32),
            ]);
        }
        let status = ["O", "F", "P"][go.rng.below(3) as usize];
        go.push(vec![
            i(orderkey),
            i(custkey),
            s(status),
            f(cents(total)),
            Value::Date32(orderdate as i32),
        ]);
    }
    go.register(&catalog, 16, &mut tables);
    gl.register(&catalog, 28, &mut tables);

    TpchData { catalog, tables }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_counts_follow_scaling_rules() {
        let d = generate(&TpchOptions {
            scale_factor: 0.001,
            seed: 42,
            page_rows: 64,
        });
        assert_eq!(d.summary("region").unwrap().rows, 5);
        assert_eq!(d.summary("nation").unwrap().rows, 25);
        assert_eq!(d.summary("supplier").unwrap().rows, 10);
        assert_eq!(d.summary("part").unwrap().rows, 200);
        assert_eq!(d.summary("customer").unwrap().rows, 150);
        assert_eq!(d.summary("orders").unwrap().rows, 1500);
        let li = d.summary("lineitem").unwrap().rows;
        // 1–7 lines per order, uniform: expect ~4 × orders.
        assert!((3000..=10500).contains(&li), "lineitem rows: {li}");
        // The catalog registered what the summaries claim.
        for t in &d.tables {
            assert_eq!(d.catalog.get(t.name).unwrap().row_count(), t.rows);
        }
    }

    #[test]
    fn generation_is_deterministic_for_a_fixed_seed() {
        let opts = TpchOptions {
            scale_factor: 0.001,
            seed: 42,
            page_rows: 64,
        };
        let a = generate(&opts);
        let b = generate(&opts);
        assert_eq!(a.tables, b.tables);
        // Page layout must not affect content checksums.
        let c = generate(&TpchOptions {
            page_rows: 7,
            ..opts
        });
        for (x, y) in a.tables.iter().zip(&c.tables) {
            assert_eq!(x, y, "page_rows changed the content of {}", x.name);
        }
        // A different seed changes every per-SF table's content.
        let d = generate(&TpchOptions { seed: 43, ..opts });
        for name in ["supplier", "part", "customer", "orders", "lineitem"] {
            assert_ne!(
                a.summary(name).unwrap().checksum,
                d.summary(name).unwrap().checksum,
                "{name} did not vary with the seed"
            );
        }
    }

    #[test]
    fn split_ids_are_positions_in_every_generation() {
        // Every process generates its own catalog and a claim reply names a
        // split by id, so ids must not depend on what was generated before.
        for _ in 0..2 {
            let d = generate(&TpchOptions {
                scale_factor: 0.001,
                seed: 42,
                page_rows: 64,
            });
            let lineitem = d.catalog.get("lineitem").unwrap();
            let ids: Vec<u64> = lineitem.splits.splits().iter().map(|s| s.id.0).collect();
            assert_eq!(ids, (0..28).collect::<Vec<u64>>());
        }
    }

    /// Golden fingerprint: pins the exact output of the default
    /// configuration. If generator logic changes, this test must be
    /// updated *consciously* — `tests/tpch_matrix.rs` and the repo
    /// benchmark's oracles pin results over this data, and silently
    /// regenerating different data would invalidate every cross-run
    /// comparison.
    #[test]
    fn golden_fingerprint_sf_0_001_seed_42() {
        let d = generate(&TpchOptions {
            scale_factor: 0.001,
            seed: 42,
            page_rows: 64,
        });
        for t in &d.tables {
            let again = d.summary(t.name).unwrap();
            assert_eq!(t.checksum, again.checksum);
        }
        // Lineitem row count is seed-dependent but fixed for seed 42.
        let li = d.summary("lineitem").unwrap().rows;
        let fingerprint: u64 = d
            .tables
            .iter()
            .fold(li, |h, t| h.rotate_left(7) ^ t.checksum ^ t.rows);
        // Computed once from the implementation above; see note on top.
        let expect = golden_expectation();
        assert_eq!(
            (li, fingerprint),
            expect,
            "generator output changed for (sf=0.001, seed=42)"
        );
    }

    /// The pinned `(lineitem_rows, combined_fingerprint)` pair. Kept in one
    /// place so a deliberate generator change touches exactly one constant.
    fn golden_expectation() -> (u64, u64) {
        (GOLDEN_LINEITEM_ROWS, GOLDEN_FINGERPRINT)
    }

    const GOLDEN_LINEITEM_ROWS: u64 = 6062;
    const GOLDEN_FINGERPRINT: u64 = 10_344_684_949_975_655_297;

    #[test]
    fn keys_always_join() {
        let d = generate(&TpchOptions {
            scale_factor: 0.001,
            seed: 7,
            page_rows: 64,
        });
        let orders = d.catalog.get("orders").unwrap();
        let n_customer = d.summary("customer").unwrap().rows as i64;
        for split in orders.splits.splits() {
            let mut it = split.open(128).unwrap();
            while let Some(p) = it.next_page().unwrap() {
                for &ck in p.column(1).as_i64().unwrap() {
                    assert!((1..=n_customer).contains(&ck));
                }
            }
        }
    }
}
