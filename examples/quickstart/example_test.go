package main

// Example pins the program's output: every line below is a simulated
// result, a function of the source alone.
func Example() {
	main()
	// Output:
	// after write+close:  close=1 create=1 lookup=3 mkdir=1 open=1
	// read back 48 bytes: "spritely nfs: consistency without write-through\n"
	// after reopen+read:  close=2 create=1 lookup=4 mkdir=1 open=2
	// after sync:         close=2 create=1 lookup=4 mkdir=1 open=2 write=1
	// server state table: opens=2 closes=2 callbacks=0 versionBumps=1
	// simulated elapsed:  0.153575s
}
