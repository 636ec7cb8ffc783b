package main

// Example runs the regret check end to end and pins what it prints: the
// cumulative-regret table, the fitted exponents and the ASCII plot of the
// UCB curve against the √n reference.
func Example() {
	main()
	// Output:
	// Theorem 5.1 — cumulative utility regret vs rounds
	// rounds  RAPID-UCB  c·√n ref     greedy  non-personalized  RAPID-TS
	// ------  ---------  -----------  ------  ----------------  --------
	// 200     3.2        4.3          9.7     11.8              6.9
	// 400     5.4        6.1          11.4    22.4              11.4
	// 600     7.2        7.4          12.7    31.7              14.5
	// 800     8.2        8.6          13.9    41.3              17.7
	// 1000    9.3        9.6          15.2    49.9              20.6
	// 1200    10.5       10.5         16.7    58.1              23.0
	// 1400    11.4       11.4         17.6    66.5              25.0
	// 1600    12.3       12.2         18.4    74.7              26.2
	// 1800    13.1       12.9         19.1    81.9              27.2
	// 2000    13.9       13.6         19.9    88.0              28.2
	// 2200    14.6       14.3         20.6    94.9              29.2
	// 2400    15.0       14.9         21.3    101.7             30.0
	// 2600    15.6       15.5         21.8    107.6             30.8
	// 2800    16.3       16.1         22.6    113.9             31.4
	// 3000    16.7       16.7         23.1    120.1             31.9
	// fitted growth exponents α (regret ≈ c·n^α): RAPID-UCB 0.48, greedy 0.37, non-personalized 0.75, RAPID-TS 0.32
	// Theorem 5.1 predicts α ≈ 0.5 for the UCB variant (Õ(√n)).
	//
	// cumulative regret (·, UCB) vs c·√n reference (|):
	// n=  200            .   |
	// n=  400                    . |
	// n=  600                          .|
	// n=  800                              .|
	// n= 1000                                  .|
	// n= 1200                                      .
	// n= 1400                                         .
	// n= 1600                                            |.
	// n= 1800                                               |.
	// n= 2000                                                 | .
	// n= 2200                                                    |.
	// n= 2400                                                      |.
	// n= 2600                                                        |.
	// n= 2800                                                          |.
	// n= 3000                                                             .
	//
	// fitted exponent α=0.48 (theorem predicts ≈0.5)
}
