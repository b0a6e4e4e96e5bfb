-- TopN over every column of orders.
SELECT * FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 100;
