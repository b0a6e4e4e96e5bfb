-- Wide result: a filter whose output is large enough that CSV result
-- framing dominates.
SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate
FROM orders
WHERE o_totalprice > 150000.0;
