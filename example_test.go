package sdsrp_test

import (
	"fmt"

	"sdsrp"
)

// The smallest useful session: run a scaled-down Table II scenario and read
// the three headline metrics. Everything is deterministic from the seed.
func ExampleRun() {
	sc := sdsrp.RandomWaypointScenario()
	sc.Nodes = 24
	sc.Area.Max.X, sc.Area.Max.Y = 1200, 900
	sc.Duration, sc.TTL = 2500, 2500
	sc.Seed = 1

	res, err := sdsrp.Run(sc)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("created=%d delivered=%d\n", res.Created, res.Delivered)
	fmt.Printf("deterministic=%v\n", mustRun(sc).Summary == res.Summary)
	// Output:
	// created=82 delivered=34
	// deterministic=true
}

func mustRun(sc sdsrp.Scenario) sdsrp.Result {
	r, err := sdsrp.Run(sc)
	if err != nil {
		panic(err)
	}
	return r
}

// Comparing the paper's four buffer-management strategies on one scenario.
func ExampleRunAll() {
	var scs []sdsrp.Scenario
	for _, pol := range sdsrp.PaperPolicies() {
		sc := sdsrp.RandomWaypointScenario()
		sc.Nodes = 24
		sc.Area.Max.X, sc.Area.Max.Y = 1200, 900
		sc.Duration, sc.TTL = 2500, 2500
		sc.PolicyName = pol
		scs = append(scs, sc)
	}
	results, err := sdsrp.RunAll(scs, 0)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for i, r := range results {
		fmt.Printf("%s delivered %d\n", scs[i].PolicyName, r.Delivered)
	}
	// Output:
	// SprayAndWait delivered 35
	// SprayAndWait-O delivered 29
	// SprayAndWait-C delivered 31
	// SDSRP delivered 34
}

// Regenerating a paper figure programmatically. Fig. 4 is pure math, so it
// runs instantly and its panel renders to markdown, TSV, ASCII or SVG.
func ExampleRunExperiment() {
	panels, err := sdsrp.RunExperiment("fig4", sdsrp.ExperimentOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	p := panels[0]
	fmt.Println(p.ID, len(p.Curves), "curves")
	// Output:
	// fig4 5 curves
}

// Folding a run's event stream into a provenance ledger: it counts the
// events and keeps every message's fate and custody chain. The same ledger
// folds a saved log through FoldEventLog.
func ExampleMessageLedger() {
	sc := sdsrp.RandomWaypointScenario()
	sc.Nodes = 24
	sc.Area.Max.X, sc.Area.Max.Y = 1200, 900
	sc.Duration, sc.TTL = 2500, 2500
	sc.Seed = 1

	ledger := sdsrp.NewMessageLedger()
	w, err := sdsrp.Build(sc, sdsrp.WithTracer(ledger))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := w.Run()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("events=%d delivered=%d (collector %d)\n",
		ledger.Total(), len(ledger.Deliveries()), res.Delivered)
	fmt.Printf("%s=%d\n", sdsrp.ContactUp, ledger.Count(sdsrp.ContactUp))
	first := ledger.Deliveries()[0]
	fmt.Printf("msg %d: %s after %.0fs via %v\n", first.ID, first.Fate, first.Latency, first.Path)
	// Output:
	// events=3153 delivered=34 (collector 34)
	// contact_up=439
	// msg 4: delivered after 235s via [23 12]
}
