package main

// Example pins the program's output: every line below is a simulated
// result, a function of the source alone.
func Example() {
	main()
	// Output:
	// churning 25 temporary files of 64k each (create, write, read, delete)
	//
	// NFS    elapsed  17.60s   write RPCs  200   read RPCs  225   server disk writes 450
	// SNFS   elapsed   2.64s   write RPCs    0   read RPCs    0   server disk writes 50
	//
	// SNFS writes nothing: the files were deleted before write-back.
}
