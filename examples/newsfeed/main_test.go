package main

// Example runs the newsfeed comparison end to end and pins what it prints:
// each re-ranker's click@10 and div@10 per user segment, over initial lists
// DIN built and ranked. Progress and timing lines go to standard error.
func Example() {
	main()
	// Output:
	// model      segment   click@10  div@10
	// RAPID-pro  diverse   1.1465    3.9355
	// RAPID-pro  focused   1.1953    2.7288
	// PRM        diverse   1.1373    3.9032
	// PRM        focused   1.2032    2.6441
	// MMR        diverse   1.1341    4.0645
	// MMR        focused   1.1512    3.1695
	// DPP        diverse   1.1566    4.2581
	// DPP        focused   1.1270    3.5254
	//
	// RAPID should diversify the diverse segment harder than the focused one,
	// while pure-relevance (PRM) under-diversifies and MMR/DPP over-diversify uniformly.
}
