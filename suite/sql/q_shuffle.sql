-- High-cardinality GROUP BY: one group per order goes through the partial
-- aggregate and the hash-repartition exchange.
SELECT l_orderkey, sum(l_quantity) AS qty, count(*) AS lines
FROM lineitem
GROUP BY l_orderkey
ORDER BY qty DESC, l_orderkey
LIMIT 20;
