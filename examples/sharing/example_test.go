package main

// Example pins the program's output: every line below is a simulated
// result, a function of the source alone.
func Example() {
	main()
	// Output:
	// == NFS: the staleness window ==
	//   reader opens and reads:        64 bytes (version 1)
	//   writer rewrites the file (128 bytes, version 2)
	//   reader re-reads immediately:   64 bytes  <-- STALE (cached)
	//   reader re-reads after 200s:    128 bytes  (probe finally noticed)
	//
	// == Spritely NFS: guaranteed consistency ==
	//   reader opens and reads:        64 bytes (version 1)
	//   writer opens for write and writes 128 bytes (write-shared now)
	//   reader re-reads immediately:   128 bytes  <-- CURRENT (no staleness)
	//   callbacks served by reader:    1
	//   server write-share transitions: 1
}
