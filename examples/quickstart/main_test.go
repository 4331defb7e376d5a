package main

// The quickstart is deterministic: the same fabric report, detection time,
// goodput and mitigation counts on every run.
func Example() {
	main()
	// Output:
	// FastFlex fabric: 9 switches, 52 hosts
	// merged dataflow: 10 modules (4 shared), saved {stages:4 sram:64.00KB tcam:32 alus:0}
	// placement: coverage 100%, mitigation distance 0.00 hops, 0 unplaced
	// boosters: 9 detectors, 9 reroutes, 9 droppers, 9 obfuscators, 0 heavy-hitters
	// t=4s   detected=false modes@coreA=0 user goodput so far=8.3 MB
	// t=8s   detected=true  modes@coreA=6 user goodput so far=14.0 MB
	// t=12s  detected=true  modes@coreA=6 user goodput so far=21.1 MB
	// t=20s  detected=true  modes@coreA=6 user goodput so far=37.7 MB
	//
	// mitigation summary: 127279 suspicious packets rerouted, 325710 dropped, 18 mode events
}
