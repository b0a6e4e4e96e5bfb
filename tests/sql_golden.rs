//! SQL golden suite: every query shape of the exec golden tests
//! (`crates/exec/tests/end_to_end.rs`), expressed as SQL text through the
//! `accordion-sql` front-end and checked to produce **identical results**
//! to the hand-built `LogicalPlanBuilder` plans — and to the same
//! hand-computed expectations.

use accordion::data::schema::{Field, Schema};
use accordion::data::types::{DataType, Value};
use accordion::exec::{execute_logical, ExecOptions, QueryResult};
use accordion::expr::agg::AggKind;
use accordion::expr::scalar::Expr;
use accordion::plan::optimizer::{Optimizer, OptimizerConfig};
use accordion::plan::LogicalPlanBuilder;
use accordion::sql::plan_select;
use accordion::storage::catalog::Catalog;
use accordion::storage::table::TableBuilder;

fn i(v: i64) -> Value {
    Value::Int64(v)
}
fn f(v: f64) -> Value {
    Value::Float64(v)
}
fn s(v: &str) -> Value {
    Value::Utf8(v.to_string())
}

/// 8 rows; qty is NULL for rows 2 and 6. (region, product, qty, price)
fn sales_rows() -> Vec<Vec<Value>> {
    vec![
        vec![s("east"), s("apple"), i(10), f(1.0)],
        vec![s("east"), s("banana"), i(5), f(2.0)],
        vec![s("east"), s("apple"), Value::Null, f(3.0)],
        vec![s("west"), s("banana"), i(20), f(1.5)],
        vec![s("west"), s("apple"), i(7), f(2.5)],
        vec![s("west"), s("cherry"), i(1), f(4.0)],
        vec![s("north"), s("cherry"), Value::Null, f(0.5)],
        vec![s("north"), s("apple"), i(2), f(1.0)],
    ]
}

fn sales_schema() -> Schema {
    Schema::new(vec![
        Field::new("region", DataType::Utf8),
        Field::new("product", DataType::Utf8),
        Field::new("qty", DataType::Int64),
        Field::new("price", DataType::Float64),
    ])
}

/// The exec golden fixture catalog plus the `tariffs` join table.
fn catalog() -> Catalog {
    let c = Catalog::new();
    let mut b = TableBuilder::new("sales", std::sync::Arc::new(sales_schema()), 3);
    for row in sales_rows() {
        b.push_row(row);
    }
    b.register(&c, 4);
    let mut b = TableBuilder::new("sales1", std::sync::Arc::new(sales_schema()), 1024);
    for row in sales_rows() {
        b.push_row(row);
    }
    b.register(&c, 1);
    let empty_schema = Schema::shared(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Float64),
    ]);
    TableBuilder::new("empty", empty_schema.clone(), 8).register(&c, 2);
    let mut b = TableBuilder::new("nulls", empty_schema, 2);
    for _ in 0..5 {
        b.push_row(vec![Value::Int64(1), Value::Null]);
    }
    b.register(&c, 2);
    let mut b = TableBuilder::new(
        "tariffs",
        Schema::shared(vec![
            Field::new("name", DataType::Utf8),
            Field::new("tariff", DataType::Int64),
        ]),
        4,
    );
    for (name, t) in [("apple", 1i64), ("banana", 2), ("durian", 9)] {
        b.push_row(vec![s(name), i(t)]);
    }
    b.register(&c, 1);
    c
}

fn run_sql(c: &Catalog, sql: &str, dop: u32) -> QueryResult {
    let plan = plan_select(c, sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(dop));
    execute_logical(c, &plan, &optimizer, &ExecOptions::with_page_rows(3)).unwrap()
}

fn run_builder(c: &Catalog, builder: LogicalPlanBuilder, dop: u32) -> QueryResult {
    let optimizer = Optimizer::new(OptimizerConfig::default().with_parallelism(dop));
    execute_logical(
        c,
        &builder.build(),
        &optimizer,
        &ExecOptions::with_page_rows(3),
    )
    .unwrap()
}

fn sorted_rows(result: &QueryResult) -> Vec<Vec<Value>> {
    let mut rows = result.rows();
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

// -- shape 1: plain scan ---------------------------------------------------

#[test]
fn sql_scan() {
    let c = catalog();
    let result = run_sql(&c, "SELECT * FROM sales1", 1);
    assert_eq!(result.schema.len(), 4);
    assert_eq!(result.rows(), sales_rows());
    let builder = run_builder(&c, LogicalPlanBuilder::scan(&c, "sales").unwrap(), 3);
    let parallel = run_sql(&c, "SELECT * FROM sales", 3);
    assert_eq!(sorted_rows(&parallel), sorted_rows(&builder));
}

// -- shape 2: scan + filter ------------------------------------------------

#[test]
fn sql_filter() {
    let c = catalog();
    let result = run_sql(&c, "SELECT * FROM sales1 WHERE qty > 4", 1);
    let b = LogicalPlanBuilder::scan(&c, "sales1").unwrap();
    let pred = Expr::gt(b.col("qty").unwrap(), Expr::lit_i64(4));
    let reference = run_builder(&c, b.filter(pred).unwrap(), 1);
    assert_eq!(result.rows(), reference.rows());
    assert_eq!(result.row_count(), 4, "NULL qty rows are dropped");
}

// -- shape 3: projection arithmetic ----------------------------------------

#[test]
fn sql_projection_arithmetic() {
    let c = catalog();
    let result = run_sql(&c, "SELECT product, qty * price AS revenue FROM sales1", 1);
    assert_eq!(result.schema.field(1).name, "revenue");
    assert_eq!(result.schema.field(1).data_type, DataType::Float64);
    let b = LogicalPlanBuilder::scan(&c, "sales1").unwrap();
    let revenue = Expr::mul(b.col("qty").unwrap(), b.col("price").unwrap());
    let reference = run_builder(
        &c,
        b.clone()
            .project(vec![
                (b.col("product").unwrap(), "product"),
                (revenue, "revenue"),
            ])
            .unwrap(),
        1,
    );
    assert_eq!(result.rows(), reference.rows());
}

// -- shape 4: COUNT/SUM/AVG/MIN/MAX group-by -------------------------------

#[test]
fn sql_group_by_all_agg_kinds() {
    let c = catalog();
    let result = run_sql(
        &c,
        "SELECT region, count(qty) AS cnt, sum(qty) AS total, avg(qty) AS mean, \
         min(qty) AS lo, max(qty) AS hi \
         FROM sales GROUP BY region ORDER BY region",
        4,
    );
    let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
    let aggs = vec![
        b.agg(AggKind::Count, "qty", "cnt").unwrap(),
        b.agg(AggKind::Sum, "qty", "total").unwrap(),
        b.agg(AggKind::Avg, "qty", "mean").unwrap(),
        b.agg(AggKind::Min, "qty", "lo").unwrap(),
        b.agg(AggKind::Max, "qty", "hi").unwrap(),
    ];
    let reference = run_builder(
        &c,
        b.aggregate(&["region"], aggs)
            .unwrap()
            .top_n(&[("region", false)], 10)
            .unwrap(),
        4,
    );
    assert_eq!(result.rows(), reference.rows());
    assert_eq!(
        result.rows(),
        vec![
            vec![s("east"), i(2), i(15), f(7.5), i(5), i(10)],
            vec![s("north"), i(1), i(2), f(2.0), i(2), i(2)],
            vec![s("west"), i(3), i(28), f(28.0 / 3.0), i(1), i(20)],
        ]
    );
}

// -- shape 5: ungrouped (global) aggregate ---------------------------------

#[test]
fn sql_global_aggregate() {
    let c = catalog();
    let result = run_sql(&c, "SELECT count(*) AS n, sum(qty) AS total FROM sales", 4);
    assert_eq!(result.rows(), vec![vec![i(8), i(45)]]);
}

// -- shape 6: ORDER BY multi-key with NULLs --------------------------------

#[test]
fn sql_order_by_multi_key_with_nulls() {
    let c = catalog();
    // No LIMIT: the front-end lowers a bare ORDER BY to an unbounded TopN.
    let result = run_sql(
        &c,
        "SELECT qty, price, product FROM sales ORDER BY qty ASC, price DESC",
        3,
    );
    let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
    let reference = run_builder(
        &c,
        b.select(&["qty", "price", "product"])
            .unwrap()
            .top_n(&[("qty", false), ("price", true)], 100)
            .unwrap(),
        3,
    );
    assert_eq!(result.rows(), reference.rows());
    assert_eq!(result.rows()[0], vec![Value::Null, f(3.0), s("apple")]);
}

// -- shape 7: LIMIT and TopN -----------------------------------------------

#[test]
fn sql_limit_and_topn() {
    let c = catalog();
    let limited = run_sql(&c, "SELECT * FROM sales1 LIMIT 3", 1);
    assert_eq!(limited.rows(), sales_rows()[..3].to_vec());

    let top = run_sql(&c, "SELECT * FROM sales ORDER BY qty DESC LIMIT 2", 4);
    let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
    let reference = run_builder(&c, b.top_n(&[("qty", true)], 2).unwrap(), 4);
    assert_eq!(top.rows(), reference.rows());

    let all = run_sql(&c, "SELECT * FROM sales LIMIT 99", 4);
    assert_eq!(all.row_count(), 8);
}

// -- shape 8: empty input --------------------------------------------------

#[test]
fn sql_empty_input() {
    let c = catalog();
    let scan = run_sql(&c, "SELECT * FROM empty", 2);
    assert_eq!(scan.row_count(), 0);
    assert_eq!(scan.schema.len(), 2);

    let grouped = run_sql(&c, "SELECT k, sum(v) AS total FROM empty GROUP BY k", 2);
    assert_eq!(grouped.row_count(), 0);

    let global = run_sql(&c, "SELECT count(k) AS c, sum(v) AS total FROM empty", 2);
    assert_eq!(global.rows(), vec![vec![i(0), Value::Null]]);
}

// -- shape 9: all-NULL column ----------------------------------------------

#[test]
fn sql_all_null_column() {
    let c = catalog();
    let result = run_sql(
        &c,
        "SELECT k, count(v) AS c, sum(v) AS total, avg(v) AS a, \
         min(v) AS lo, max(v) AS hi FROM nulls GROUP BY k",
        2,
    );
    assert_eq!(
        result.rows(),
        vec![vec![
            i(1),
            i(0),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null
        ]]
    );
}

// -- shape 10: inner equi-join ---------------------------------------------

#[test]
fn sql_join() {
    let c = catalog();
    let result = run_sql(
        &c,
        "SELECT product, qty, tariff FROM sales1 \
         INNER JOIN tariffs ON product = name",
        2,
    );
    let sales = LogicalPlanBuilder::scan(&c, "sales1").unwrap();
    let tariffs = LogicalPlanBuilder::scan(&c, "tariffs").unwrap();
    let reference = run_builder(
        &c,
        sales
            .join(tariffs, &[("product", "name")])
            .unwrap()
            .select(&["product", "qty", "tariff"])
            .unwrap(),
        2,
    );
    assert_eq!(sorted_rows(&result), sorted_rows(&reference));
    assert_eq!(
        result.row_count(),
        6,
        "cherry has no tariff, durian no sale"
    );
}

// -- shape 11: full stack (filter → group-by → HAVING → sort → limit) ------

#[test]
fn sql_full_stack_with_having() {
    let c = catalog();
    let result = run_sql(
        &c,
        "SELECT region, sum(qty) AS total, count(qty) AS cnt FROM sales \
         WHERE price > 0.75 GROUP BY region \
         ORDER BY total DESC LIMIT 10",
        3,
    );
    // price > 0.75 drops only the north-cherry row (NULL qty anyway).
    assert_eq!(
        result.rows(),
        vec![
            vec![s("west"), i(28), i(3)],
            vec![s("east"), i(15), i(2)],
            vec![s("north"), i(2), i(1)],
        ]
    );

    // HAVING filters on the aggregate output before the sort.
    let having = run_sql(
        &c,
        "SELECT region, sum(qty) AS total FROM sales GROUP BY region \
         HAVING sum(qty) > 10 ORDER BY total DESC",
        3,
    );
    assert_eq!(
        having.rows(),
        vec![vec![s("west"), i(28)], vec![s("east"), i(15)]]
    );
}

// -- shape 12: parallelism invariance --------------------------------------

#[test]
fn sql_results_invariant_under_parallelism() {
    let c = catalog();
    let sql = "SELECT region, product, sum(qty) AS total, avg(price) AS avg_price \
               FROM sales GROUP BY region, product ORDER BY region, product";
    let mut reference: Option<Vec<Vec<Value>>> = None;
    for dop in [1, 2, 3, 5, 8] {
        let rows = run_sql(&c, sql, dop).rows();
        match &reference {
            None => reference = Some(rows),
            Some(r) => assert_eq!(&rows, r, "dop {dop} diverged"),
        }
    }
    assert_eq!(reference.unwrap().len(), 7);
}

// -- bonus: the predicate surface (BETWEEN / IN / LIKE / CASE) -------------

#[test]
fn sql_predicate_surface() {
    let c = catalog();
    let result = run_sql(
        &c,
        "SELECT region, qty FROM sales1 \
         WHERE qty BETWEEN 2 AND 10 AND product IN ('apple', 'banana') \
           AND product LIKE '%an%' ORDER BY qty",
        1,
    );
    assert_eq!(result.rows(), vec![vec![s("east"), i(5)]]);

    let cased = run_sql(
        &c,
        "SELECT product, CASE WHEN qty IS NULL THEN 0 ELSE qty END AS q \
         FROM sales1 WHERE region = 'north' ORDER BY q",
        1,
    );
    assert_eq!(
        cased.rows(),
        vec![vec![s("cherry"), i(0)], vec![s("apple"), i(2)]]
    );
}

// -- IN is a disjunction of equalities, for every type pair `=` accepts -----

#[test]
fn sql_in_list_compares_like_equals() {
    let c = catalog();
    let ids = |sql: &str| -> Vec<Value> {
        run_sql(&c, sql, 2)
            .rows()
            .into_iter()
            .map(|mut r| r.remove(0))
            .collect()
    };
    // A FLOAT64 column against INT64 elements, and the other way round:
    // used to select nothing (structural `Value` equality).
    let by_eq = ids("SELECT qty FROM sales WHERE price = 1 OR price = 4 ORDER BY qty");
    assert_eq!(by_eq, vec![i(1), i(2), i(10)]);
    assert_eq!(
        ids("SELECT qty FROM sales WHERE price IN (1, 4) ORDER BY qty"),
        by_eq
    );
    assert_eq!(
        ids("SELECT qty FROM sales WHERE qty IN (5.0, 7, 2.5) ORDER BY qty"),
        vec![i(5), i(7)]
    );
    // A NULL element: no match ⇒ NULL, so NOT IN (…, NULL) keeps no row,
    // while IN (…, NULL) still keeps the matches.
    assert_eq!(
        ids("SELECT qty FROM sales WHERE qty IN (5, NULL) ORDER BY qty"),
        vec![i(5)]
    );
    assert_eq!(
        ids("SELECT qty FROM sales WHERE qty NOT IN (5, NULL)"),
        Vec::<Value>::new()
    );
    assert_eq!(
        ids("SELECT qty FROM sales WHERE qty NOT IN (5, 7, 10, 20) ORDER BY qty"),
        vec![i(1), i(2)],
        "NULL qty rows are neither IN nor NOT IN"
    );
}

// -- CASE takes the type its branches unify to -------------------------------

#[test]
fn sql_case_unifies_its_branch_types() {
    let c = catalog();
    // INT64 and FLOAT64 branches: used to panic a worker thread pushing
    // 0.5 into an Int64 builder.
    let result = run_sql(
        &c,
        "SELECT sum(CASE WHEN price > 2.0 THEN 1 ELSE 0.5 END) AS s, \
                sum(CASE WHEN qty > 5 THEN qty END) AS big FROM sales",
        2,
    );
    assert_eq!(result.rows(), vec![vec![f(3.0 + 5.0 * 0.5), i(37)]]);
    let typed = run_sql(
        &c,
        "SELECT CASE WHEN qty > 5 THEN qty WHEN qty IS NULL THEN NULL ELSE price END AS v \
         FROM sales1 WHERE region = 'east'",
        1,
    );
    assert_eq!(typed.schema.fields()[0].data_type, DataType::Float64);
    assert_eq!(
        typed.rows(),
        vec![vec![f(10.0)], vec![f(2.0)], vec![Value::Null]]
    );
    // Anything else is an analysis error with the CASE's span, not a panic.
    for sql in [
        "SELECT CASE WHEN qty > 5 THEN 'a' ELSE 1 END FROM sales",
        "SELECT CASE WHEN qty > 5 THEN region ELSE price END FROM sales",
        "SELECT CASE WHEN qty THEN 1 ELSE 0 END FROM sales",
        "SELECT CASE WHEN qty > 5 THEN NULL END FROM sales",
    ] {
        let err = plan_select(&c, sql).expect_err(sql).to_string();
        assert!(err.contains("CASE"), "{sql}: {err}");
    }
    // Arithmetic is typed the same way: what no kernel computes is refused
    // at analysis instead of failing at run time.
    for sql in [
        "SELECT region + 1.5 FROM sales",
        "SELECT qty * (price > 1.0) FROM sales",
    ] {
        assert!(plan_select(&c, sql).is_err(), "{sql}");
    }
}

#[test]
fn sql_sum_and_avg_of_a_non_number_are_refused_at_the_argument() {
    // These used to pass analysis and fail inside an accumulator kernel at
    // run time, as internal errors.
    let c = catalog();
    for (sql, argument) in [
        ("SELECT sum(region) FROM sales", "region"),
        (
            "SELECT avg(product) AS a FROM sales GROUP BY region",
            "product",
        ),
        (
            "SELECT region, avg(qty > 1) FROM sales GROUP BY region",
            "qty > 1",
        ),
    ] {
        let err = plan_select(&c, sql).expect_err(sql).to_string();
        assert!(err.contains("takes a numeric argument"), "{sql}: {err}");
        let column = sql.find(argument).unwrap() + 1;
        assert!(
            err.contains(&format!("line 1, column {column}")),
            "{sql}: {err}"
        );
        assert!(err.contains(&"^".repeat(argument.len())), "{sql}: {err}");
    }
    // A builder plan is refused the same way, by `LogicalPlan::validate`.
    let b = LogicalPlanBuilder::scan(&c, "sales").unwrap();
    for kind in [AggKind::Sum, AggKind::Avg] {
        let agg = b.agg(kind, "region", "x").unwrap();
        let err = b.clone().aggregate(&[], vec![agg]).unwrap_err().to_string();
        assert!(
            err.contains("takes a numeric argument, got VARCHAR"),
            "{err}"
        );
    }
    let fine = "SELECT avg(qty), sum(price), min(region), max(product), count(region) FROM sales";
    assert_eq!(run_sql(&c, fine, 2).row_count(), 1);
}

// -- a comparison's answer for a row does not depend on the page around it --

#[test]
fn sql_float_comparisons_are_ieee_with_and_without_nulls_in_the_page() {
    let c = Catalog::new();
    let schema = Schema::shared(vec![
        Field::new("id", DataType::Int64),
        Field::new("x", DataType::Float64),
    ]);
    // Two copies of the same four specials; `gaps` also has a NULL row,
    // which used to switch the whole page from IEEE to total order.
    let specials = [f64::NAN, -0.0, 0.0, f64::INFINITY];
    for (name, with_null) in [("solid", false), ("gaps", true)] {
        let mut b = TableBuilder::new(name, schema.clone(), 16);
        for (id, x) in specials.iter().enumerate() {
            b.push_row(vec![i(id as i64), f(*x)]);
        }
        if with_null {
            b.push_row(vec![i(9), Value::Null]);
        }
        b.register(&c, 1);
    }
    for (predicate, want) in [
        ("x = 0.0", vec![i(1), i(2)]),     // -0.0 = 0.0
        ("x = x", vec![i(1), i(2), i(3)]), // NaN = NaN is false
        ("x <> x", vec![i(0)]),
        ("x < 1.0", vec![i(1), i(2)]),
        ("x >= 0", vec![i(1), i(2), i(3)]), // NaN orders with nothing
        ("x IN (0)", vec![i(1), i(2)]),
    ] {
        for table in ["solid", "gaps"] {
            let sql = format!("SELECT id FROM {table} WHERE {predicate} ORDER BY id");
            let got: Vec<Value> = run_sql(&c, &sql, 1)
                .rows()
                .into_iter()
                .map(|mut r| r.remove(0))
                .collect();
            assert_eq!(got, want, "{sql}");
        }
    }
}

// -- a HAVING without columns decides for the whole result -------------------

#[test]
fn sql_column_free_having_keeps_or_drops_every_row() {
    let c = catalog();
    // Pushed below a *global* aggregate, `1 = 0` used to turn "drop the one
    // result row" into "aggregate zero rows" — which answers one row, 0.
    for dop in [1, 3] {
        let global = |having: &str| {
            run_sql(
                &c,
                &format!("SELECT count(*) AS c FROM sales HAVING {having}"),
                dop,
            )
            .rows()
        };
        assert_eq!(global("1 = 0"), Vec::<Vec<Value>>::new(), "dop {dop}");
        assert_eq!(global("1 = 1"), vec![vec![i(8)]], "dop {dop}");
        let grouped = |having: &str| {
            let sql = format!(
                "SELECT region, count(*) AS c FROM sales GROUP BY region \
                 HAVING {having} ORDER BY region"
            );
            run_sql(&c, &sql, dop).rows()
        };
        assert_eq!(grouped("1 = 0"), Vec::<Vec<Value>>::new(), "dop {dop}");
        assert_eq!(
            grouped("1 = 1"),
            vec![
                vec![s("east"), i(3)],
                vec![s("north"), i(2)],
                vec![s("west"), i(3)]
            ],
            "dop {dop}"
        );
    }
}

// -- join keys of different types are compared, not hashed -------------------

#[test]
fn sql_join_equality_across_numeric_types_is_a_residual_filter() {
    let c = catalog();
    // FLOAT64 price against INT64 tariff: as a hash-join key the pair used
    // to match nothing (an INT64 1 and a FLOAT64 1.0 hash and encode
    // differently); as a filter over the joined rows it compares like `=`.
    let joined = run_sql(
        &c,
        "SELECT product, qty, tariff FROM sales1 \
         INNER JOIN tariffs ON product = name AND price = tariff ORDER BY qty",
        2,
    );
    assert_eq!(
        joined.rows(),
        vec![
            vec![s("apple"), i(2), i(1)],
            vec![s("banana"), i(5), i(2)],
            vec![s("apple"), i(10), i(1)],
        ]
    );
    let filtered = run_sql(
        &c,
        "SELECT product, qty, tariff FROM sales1 \
         INNER JOIN tariffs ON product = name WHERE price = tariff ORDER BY qty",
        2,
    );
    assert_eq!(joined.rows(), filtered.rows());

    // Alone, the pair leaves the join without a key: a caret diagnostic
    // naming both columns and their types.
    let sql = "SELECT qty FROM sales1 INNER JOIN tariffs ON price = tariff";
    let message = plan_select(&c, sql).expect_err(sql).to_string();
    let carets = format!(
        "\n  {}{}",
        " ".repeat(sql.find("price =").unwrap()),
        "^".repeat(14)
    );
    for part in ["price (FLOAT64)", "tariff (INT64)", "same type", &carets] {
        assert!(message.contains(part), "{message}");
    }
    assert!(message.ends_with(&carets), "{message}");
    // A condition with no equality at all keeps its own message.
    let err = plan_select(
        &c,
        "SELECT qty FROM sales1 INNER JOIN tariffs ON price > tariff",
    )
    .unwrap_err();
    assert!(err.to_string().contains("at least one equality"), "{err}");

    // The builder cannot reach the join kernels with such a pair either.
    let sales = LogicalPlanBuilder::scan(&c, "sales1").unwrap();
    let tariffs = LogicalPlanBuilder::scan(&c, "tariffs").unwrap();
    let err = sales.join(tariffs, &[("price", "tariff")]).unwrap_err();
    assert!(err.to_string().contains("FLOAT64 vs INT64"), "{err}");
}
