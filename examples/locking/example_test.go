package main

// Example pins the program's output: every line below is a simulated
// result, a function of the source alone.
func Example() {
	main()
	// Output:
	// two hosts x 15 read-modify-write increments of one shared counter
	//
	// no locks    final counter = 15 / 30   — 15 updates LOST
	// with locks  final counter = 30 / 30   — every update landed
	//
	// SNFS makes every read current; only locking makes read-modify-write atomic (§2.2).
}
