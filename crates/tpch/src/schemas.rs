//! The paper's Table 1 schemas, defined once: the column lists the data
//! generator ([`crate::gen`]) builds its tables from.

use accordion_data::schema::Field;
use accordion_data::types::DataType;

use DataType::{Date32, Float64, Int64, Utf8};

fn field(name: &str, dt: DataType) -> Field {
    Field::new(name, dt)
}

/// `region(r_regionkey, r_name)`.
pub fn region() -> Vec<Field> {
    vec![field("r_regionkey", Int64), field("r_name", Utf8)]
}

/// `nation(n_nationkey, n_name, n_regionkey)`.
pub fn nation() -> Vec<Field> {
    vec![
        field("n_nationkey", Int64),
        field("n_name", Utf8),
        field("n_regionkey", Int64),
    ]
}

/// `supplier(s_suppkey, s_name, s_nationkey, s_acctbal)`.
pub fn supplier() -> Vec<Field> {
    vec![
        field("s_suppkey", Int64),
        field("s_name", Utf8),
        field("s_nationkey", Int64),
        field("s_acctbal", Float64),
    ]
}

/// `part(p_partkey, p_name, p_brand, p_size, p_retailprice)`.
pub fn part() -> Vec<Field> {
    vec![
        field("p_partkey", Int64),
        field("p_name", Utf8),
        field("p_brand", Utf8),
        field("p_size", Int64),
        field("p_retailprice", Float64),
    ]
}

/// `customer(c_custkey, c_name, c_nationkey, c_mktsegment, c_acctbal)`.
pub fn customer() -> Vec<Field> {
    vec![
        field("c_custkey", Int64),
        field("c_name", Utf8),
        field("c_nationkey", Int64),
        field("c_mktsegment", Utf8),
        field("c_acctbal", Float64),
    ]
}

/// `orders(o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate)`.
pub fn orders() -> Vec<Field> {
    vec![
        field("o_orderkey", Int64),
        field("o_custkey", Int64),
        field("o_orderstatus", Utf8),
        field("o_totalprice", Float64),
        field("o_orderdate", Date32),
    ]
}

/// `lineitem(...)` — the 11-column fact table.
pub fn lineitem() -> Vec<Field> {
    vec![
        field("l_orderkey", Int64),
        field("l_linenumber", Int64),
        field("l_partkey", Int64),
        field("l_suppkey", Int64),
        field("l_quantity", Float64),
        field("l_extendedprice", Float64),
        field("l_discount", Float64),
        field("l_tax", Float64),
        field("l_returnflag", Utf8),
        field("l_linestatus", Utf8),
        field("l_shipdate", Date32),
    ]
}
