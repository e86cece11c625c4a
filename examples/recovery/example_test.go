package main

// Example pins the program's output: every line below is a simulated
// result, a function of the source alone.
func Example() {
	main()
	// Output:
	// writer holds 4 dirty blocks; server has seen 0 write RPCs
	//
	// *** server crashes ***
	// *** server reboots (empty state table, grace period) ***
	// epoch now 2, in grace: true
	// after recovery: state table has 1 entries, writer sent 1 reopen RPCs
	//
	// reader got 32768 bytes (want 32768)
	// writer served 1 callbacks; writer write RPCs now 4
	//
	// consistency survived the server crash: state rebuilt from the clients (§2.4)
}
