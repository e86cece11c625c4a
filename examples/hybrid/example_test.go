package main

// Example pins the program's output: every line below is a simulated
// result, a function of the source alone.
func Example() {
	main()
	// Output:
	// SNFS client wrote 9000 bytes; write RPCs so far: 0 (delayed)
	// NFS client read 9000 bytes (want 9000)
	// SNFS client write RPCs now: 2 (callback forced write-back)
	// callbacks served by SNFS client: 1
	// NFS client issued: getattr=1 lookup=2 read=2
	//
	// hybrid coexistence works: stateless and stateful clients, one server, consistent data
}
