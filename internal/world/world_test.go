package world

import (
	"os"
	"path/filepath"
	"testing"

	"sdsrp/internal/config"
	"sdsrp/internal/geo"
	"sdsrp/internal/msg"
	"sdsrp/internal/stats"
)

// mustRun executes w to its horizon, failing the test on a run error.
func mustRun(t testing.TB, w *World) Result {
	t.Helper()
	r, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// smallScenario is a scaled-down Table II used by the integration tests:
// dense enough to deliver plenty of traffic in a couple of simulated hours.
func smallScenario(policyName string) config.Scenario {
	sc := config.RandomWaypoint()
	sc.Name = "small-" + policyName
	sc.Nodes = 30
	sc.Area = geo.NewRect(1200, 900)
	sc.Duration = 4000
	sc.TTL = 4000
	sc.GenIntervalLo, sc.GenIntervalHi = 20, 30
	sc.InitialCopies = 8
	sc.PolicyName = policyName
	sc.PriorMeanIntermeeting = 2000
	return sc
}

func TestBuildRejectsInvalid(t *testing.T) {
	sc := smallScenario("SDSRP")
	sc.Duration = -1
	if _, err := Build(sc); err == nil {
		t.Fatal("invalid scenario accepted")
	}
	sc = smallScenario("NoSuchPolicy")
	if _, err := Build(sc); err == nil {
		t.Fatal("unknown policy accepted")
	}
	sc = smallScenario("SDSRP")
	sc.ProtocolName = "nope"
	if _, err := Build(sc); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestRunDeliversTraffic(t *testing.T) {
	w, err := Build(smallScenario("SDSRP"))
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, w)
	if r.Created < 100 {
		t.Fatalf("created = %d, traffic generator broken", r.Created)
	}
	if r.Delivered == 0 {
		t.Fatal("no deliveries in a dense scenario")
	}
	if r.DeliveryRatio <= 0 || r.DeliveryRatio > 1 {
		t.Fatalf("delivery ratio = %v", r.DeliveryRatio)
	}
	if r.Contacts == 0 {
		t.Fatal("no contacts")
	}
	if r.AvgHops < 1 {
		t.Fatalf("avg hops = %v", r.AvgHops)
	}
	if r.Forwards < r.Delivered {
		t.Fatalf("forwards %d < delivered %d", r.Forwards, r.Delivered)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		w, err := Build(smallScenario("SDSRP"))
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, w)
	}
	a, b := run(), run()
	if a.Summary != b.Summary || a.Contacts != b.Contacts {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a.Summary, b.Summary)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	sc := smallScenario("SDSRP")
	w1, _ := Build(sc)
	sc.Seed = 999
	w2, _ := Build(sc)
	a, b := mustRun(t, w1), mustRun(t, w2)
	if a.Summary == b.Summary {
		t.Fatal("different seeds produced identical summaries")
	}
}

func TestPoliciesProduceDifferentOutcomes(t *testing.T) {
	results := map[string]Result{}
	for _, p := range []string{"SprayAndWait", "SprayAndWait-O", "SprayAndWait-C", "SDSRP"} {
		sc := smallScenario(p)
		sc.Seed = 7
		w, err := Build(sc)
		if err != nil {
			t.Fatal(err)
		}
		results[p] = mustRun(t, w)
	}
	if results["SprayAndWait"].Summary == results["SDSRP"].Summary {
		t.Fatal("FIFO and SDSRP produced identical runs; policy not wired")
	}
	if results["SprayAndWait-O"].Summary == results["SprayAndWait-C"].Summary {
		t.Fatal("SW-O and SW-C identical; priority functions not wired")
	}
}

// Token conservation: at any end state, for every message the spray tokens
// across all buffers never exceed the initial allocation.
func TestTokenConservation(t *testing.T) {
	w, err := Build(smallScenario("SprayAndWait")) // FIFO: no receipt rejection
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, w)
	tokens := map[msg.ID]int{}
	var initial map[msg.ID]int = map[msg.ID]int{}
	for _, h := range w.Hosts {
		for _, s := range h.Buffer().Items() {
			tokens[s.M.ID] += s.Copies
			initial[s.M.ID] = s.M.InitialCopies
		}
	}
	for id, tok := range tokens {
		if tok > initial[id] {
			t.Fatalf("message %d holds %d tokens, initial %d", id, tok, initial[id])
		}
	}
	if len(tokens) == 0 {
		t.Fatal("no live messages at end of congested run")
	}
}

// Buffer budget: no host may ever exceed its byte capacity; spot-check the
// end state.
func TestBufferBudgetRespected(t *testing.T) {
	sc := smallScenario("SDSRP")
	w, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, w)
	for _, h := range w.Hosts {
		if h.Buffer().Used() > h.Buffer().Capacity() {
			t.Fatalf("host %d over budget: %d/%d", h.ID(), h.Buffer().Used(), h.Buffer().Capacity())
		}
	}
}

func TestCongestionCausesDrops(t *testing.T) {
	sc := smallScenario("SprayAndWait")
	sc.GenIntervalLo, sc.GenIntervalHi = 5, 8 // heavy traffic
	w, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, w)
	if r.PolicyDrops == 0 {
		t.Fatal("no drops under heavy congestion; buffer management never exercised")
	}
}

func TestIntermeetingRecording(t *testing.T) {
	sc := smallScenario("SDSRP")
	sc.GenIntervalLo = 0 // no traffic: pure mobility measurement (Fig. 3 mode)
	im := &stats.Intermeeting{}
	w, err := Build(sc, WithTracer(im))
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, w)
	if im.Count() < 50 {
		t.Fatalf("intermeeting samples = %d", im.Count())
	}
	if im.Mean() <= 0 {
		t.Fatal("mean intermeeting not positive")
	}
	if r.Created != 0 || r.Forwards != 0 {
		t.Fatal("traffic ran in a traffic-free scenario")
	}
}

func TestTaxiScenarioRuns(t *testing.T) {
	sc := config.EPFL()
	sc.Nodes = 40
	sc.Duration = 3000
	sc.TTL = 3000
	sc.PolicyName = "SDSRP"
	w, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, w)
	if r.Contacts == 0 {
		t.Fatal("taxi scenario produced no contacts")
	}
	if r.Created == 0 {
		t.Fatal("no traffic in taxi scenario")
	}
}

func TestEpidemicAndDirectBaselines(t *testing.T) {
	epi := smallScenario("SprayAndWait")
	epi.ProtocolName = "epidemic"
	dir := smallScenario("SprayAndWait")
	dir.ProtocolName = "direct"
	we, err := Build(epi)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := Build(dir)
	if err != nil {
		t.Fatal(err)
	}
	re, rd := mustRun(t, we), mustRun(t, wd)
	// Epidemic floods: overhead far above direct delivery's zero.
	if re.Forwards <= rd.Forwards {
		t.Fatalf("epidemic forwards %d <= direct %d", re.Forwards, rd.Forwards)
	}
	if rd.OverheadRatio != 0 && rd.Delivered > 0 {
		t.Fatalf("direct delivery overhead = %v, want 0", rd.OverheadRatio)
	}
}

func TestOracleRateMode(t *testing.T) {
	sc := smallScenario("SDSRP")
	sc.OracleRateMean = 1500
	w, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, w)
	if r.Delivered == 0 {
		t.Fatal("oracle-rate run delivered nothing")
	}
}

func TestDropListAblation(t *testing.T) {
	base := smallScenario("SDSRP")
	base.Seed = 11
	off := base
	off.DisableDropList = true
	w1, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Build(off)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := mustRun(t, w1), mustRun(t, w2)
	if r1.Summary == r2.Summary {
		t.Fatal("drop-list ablation changed nothing; gossip not wired")
	}
}

func TestMobilityKinds(t *testing.T) {
	for _, kind := range []config.MobilityKind{config.MobilityRandomWalk, config.MobilityRandomDirection} {
		sc := smallScenario("SprayAndWait")
		sc.Mobility.Kind = kind
		sc.Mobility.EpochDist = 200
		sc.Duration = 1500
		w, err := Build(sc)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if r := mustRun(t, w); r.Contacts == 0 {
			t.Fatalf("%s: no contacts", kind)
		}
	}
}

func TestMapGridScenarioRuns(t *testing.T) {
	sc := smallScenario("SDSRP")
	sc.Mobility = config.Mobility{
		Kind:    config.MobilityMapGrid,
		SpeedLo: 3, SpeedHi: 8,
		PauseLo: 0, PauseHi: 30,
		MapCols: 8, MapRows: 6, MapSpacing: 150, MapDropProb: 0.15,
	}
	w, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, w)
	if r.Contacts == 0 || r.Created == 0 {
		t.Fatalf("degenerate map run: %+v", r.Summary)
	}
	if r.Delivered == 0 {
		t.Fatal("no deliveries on a dense street grid")
	}
	// Determinism through the map path too.
	w2, _ := Build(sc)
	if mustRun(t, w2).Summary != r.Summary {
		t.Fatal("map scenario not deterministic")
	}
}

func TestMapFileScenario(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "roads.txt")
	// A 2x2 block: enough for movement.
	roads := "0 0 300 0\n300 0 300 300\n300 300 0 300\n0 300 0 0\n0 0 300 300\n"
	if err := os.WriteFile(path, []byte(roads), 0o644); err != nil {
		t.Fatal(err)
	}
	sc := smallScenario("SprayAndWait")
	sc.Nodes = 12
	sc.Duration, sc.TTL = 1500, 1500
	sc.Mobility = config.Mobility{
		Kind:    config.MobilityMapFile,
		SpeedLo: 2, SpeedHi: 4,
		MapFile: path,
	}
	w, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r := mustRun(t, w); r.Contacts == 0 {
		t.Fatal("no contacts on a tiny map")
	}
	sc.Mobility.MapFile = filepath.Join(dir, "missing.txt")
	if _, err := Build(sc); err == nil {
		t.Fatal("missing map file accepted")
	}
}

func TestWarmupIntegration(t *testing.T) {
	base := smallScenario("SprayAndWait")
	w1, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	r1 := mustRun(t, w1)

	warm := base
	warm.Warmup = 2000 // half the horizon
	w2, err := Build(warm)
	if err != nil {
		t.Fatal(err)
	}
	r2 := mustRun(t, w2)
	// Roughly half the messages are excluded from the metrics.
	if r2.Created >= r1.Created || r2.Created < r1.Created/3 {
		t.Fatalf("warmup created = %d vs %d", r2.Created, r1.Created)
	}
	if r2.Delivered > r2.Created {
		t.Fatalf("delivered %d > created %d under warmup", r2.Delivered, r2.Created)
	}
	if r2.DeliveryRatio < 0 || r2.DeliveryRatio > 1 {
		t.Fatalf("ratio = %v", r2.DeliveryRatio)
	}
}

func TestHeterogeneousMessageSizes(t *testing.T) {
	sc := smallScenario("SprayAndWait")
	sc.MessageSize = 100_000
	sc.MessageSizeHi = 400_000
	sc.Duration, sc.TTL = 1500, 1500
	w, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, w)
	seen := 0
	distinct := map[int64]bool{}
	for _, h := range w.Hosts {
		for _, s := range h.Buffer().Items() {
			if s.M.Size < 100_000 || s.M.Size > 400_000 {
				t.Fatalf("message size %d outside configured range", s.M.Size)
			}
			seen++
			distinct[s.M.Size] = true
		}
	}
	if seen == 0 {
		t.Fatal("no buffered messages to inspect")
	}
	if len(distinct) < 2 {
		t.Fatal("sizes not actually heterogeneous")
	}
}

func TestMessageSizeRangeValidation(t *testing.T) {
	sc := smallScenario("SprayAndWait")
	sc.MessageSize = 400_000
	sc.MessageSizeHi = 100_000 // inverted
	if _, err := Build(sc); err == nil {
		t.Fatal("inverted size range accepted")
	}
	sc = smallScenario("SprayAndWait")
	sc.MessageSizeHi = 3_000_000 // exceeds the 2.5 MB buffer
	if _, err := Build(sc); err == nil {
		t.Fatal("size range exceeding buffer accepted")
	}
}
