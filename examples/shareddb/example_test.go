package main

// Example pins the program's output: every line below is a simulated
// result, a function of the source alone.
func Example() {
	main()
	// Output:
	// a tiny record store shared by two hosts: 10 commit/lookup rounds
	//
	// NFS    stale lookups 10/10   — lookups served STALE records
	// SNFS   stale lookups 0/10   — every lookup saw the committed record
	//
	// §2.3: "the weakness of NFS consistency may be responsible for the
	// lack of shared-database applications" — and this is what it looks like.
}
