package main

// Example runs the quickstart: its output holds no timing, so every run
// prints the same, and a change to the rewrite or to its answer shows here.
func Example() {
	main()
	// Output:
	// materialized ast1: 3041 rows (trans has 20000 — 7x smaller)
	//
	// rewritten query:
	//   SELECT ast1.faid, loc.state, ast1.year, sum(ast1.cnt) AS cnt FROM ast1, loc WHERE ((ast1.flid = loc.lid) AND (loc.country = 'USA')) GROUP BY ast1.faid, loc.state, ast1.year HAVING (sum(ast1.cnt) > 3)
	//
	// verified: original and rewritten agree on 216 rows
}
