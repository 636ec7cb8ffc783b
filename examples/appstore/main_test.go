package main

// Example runs the app-store example end to end and pins its revenue
// table, which is computed over DIN-built initial lists. Progress lines go
// to standard error.
func Example() {
	main()
	// Output:
	// model  rev@5    rev@10   click@10  div@10
	// Init   0.7088   1.1267   0.9742    7.2444
	// PRM    0.7189   1.1471   0.9888    7.1111
	// RAPID  0.7751   1.1706   0.9906    6.4889
	//
	// RAPID revenue lift over the platform ranking: +3.89% (rev@10)
}
