package main

// Example runs the quickstart end to end and pins what it prints: the
// DIN-built initial list, RAPID's re-ranking of it, the learned preference
// and the click numbers. Progress lines go to standard error.
func Example() {
	main()
	// Output:
	// user 3, initial list: [2 49 63 116 90 81 0 69 92 19 9 117 96 107 111 94 32 109 100 89]
	// re-ranked:             [2 89 49 100 109 32 92 63 94 117 107 111 0 69 9 81 90 19 96 116]
	// learned preference θ̂ (first 8 topics): 0.04 0.01 0.02 0.02 0.01 0.02 0.04 0.01
	// click@5: init 0.4609 → RAPID 0.4829
	// click@10: init 0.6254 → RAPID 0.9096
}
