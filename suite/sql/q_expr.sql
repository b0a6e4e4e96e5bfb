-- Row-by-row expression paths: CASE, LIKE, IN and EXTRACT over lineitem,
-- ending in a low-cardinality aggregate.
SELECT l_returnflag,
       sum(CASE WHEN l_linestatus LIKE 'O%' THEN l_extendedprice ELSE 0.0 END) AS open_price,
       sum(CASE WHEN l_discount > 0.05 THEN 1 ELSE 0 END) AS deep_discounts,
       count(*) AS lines
FROM lineitem
WHERE l_returnflag IN ('A', 'R')
  AND EXTRACT(YEAR FROM l_shipdate) = 1994
GROUP BY l_returnflag
ORDER BY l_returnflag;
