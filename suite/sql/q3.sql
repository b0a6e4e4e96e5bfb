-- TPC-H Q3-shaped shipping priority (see accordion_tpch::queries::q3).
SELECT l_orderkey, o_orderdate,
       sum(l_extendedprice * (1.0 - l_discount)) AS revenue
FROM lineitem
  INNER JOIN orders ON l_orderkey = o_orderkey
  INNER JOIN customer ON o_custkey = c_custkey
WHERE l_shipdate > DATE '1995-03-15'
  AND o_orderdate < DATE '1995-03-15'
  AND c_mktsegment = 'BUILDING'
GROUP BY l_orderkey, o_orderdate
ORDER BY revenue DESC, l_orderkey
LIMIT 10;
