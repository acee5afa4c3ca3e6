package main

// Example runs the histogram example. Its rows are printed as the engine emits
// its groups, in first-appearance order, so the output pins that order too.
func Example() {
	main()
	// Output:
	// materialized month_histogram: 34 rows
	//
	// rewritten (reads only the 2-level summary):
	//   SELECT month_histogram.tcnt, sum(month_histogram.mcnt) AS ycnt FROM month_histogram GROUP BY month_histogram.tcnt
	//
	// tcnt | months with that monthly count
	//  843 | 1
	//  841 | 2
	//  803 | 1
	//  827 | 1
	//  866 | 2
	//  779 | 2
	//  857 | 2
	//  846 | 1
	//  888 | 1
	//  825 | 2
	//  815 | 1
	//  810 | 1
	//  855 | 2
	//  867 | 1
	//  802 | 1
	//  844 | 1
	//  840 | 1
	//  796 | 1
	//  848 | 1
	//  863 | 1
	//  813 | 1
	//  787 | 1
	//  807 | 1
	//  814 | 1
	//  842 | 1
	//  876 | 1
	//  833 | 1
	//  795 | 1
	//  895 | 1
	//  800 | 1
}
