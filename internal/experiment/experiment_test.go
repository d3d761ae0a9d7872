package experiment

import (
	"math"
	"sync/atomic"
	"testing"

	"sdsrp/internal/config"
	"sdsrp/internal/core"
	"sdsrp/internal/report"
)

// tinyOptions shrinks every experiment enough for unit tests while keeping
// the full sweep structure.
func tinyOptions() Options {
	return Options{
		Scale:    0.08, // 1440 s horizon
		Nodes:    24,
		Policies: []string{"SprayAndWait", "SDSRP"},
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Workers <= 0 {
		t.Fatal("workers not defaulted")
	}
	if len(o.Seeds) != 1 || o.Seeds[0] != 1 {
		t.Fatalf("seeds = %v", o.Seeds)
	}
	if o.Scale != 1 {
		t.Fatalf("scale = %v", o.Scale)
	}
	if len(o.Policies) != 4 {
		t.Fatalf("policies = %v", o.Policies)
	}
}

func TestApplyScalesDurationAndArea(t *testing.T) {
	o := Options{Scale: 0.5, Nodes: 25}.withDefaults()
	sc := o.apply(config.RandomWaypoint())
	if sc.Duration != 9000 || sc.TTL != 9000 {
		t.Fatalf("duration/ttl = %v/%v", sc.Duration, sc.TTL)
	}
	if sc.Nodes != 25 {
		t.Fatalf("nodes = %d", sc.Nodes)
	}
	// Area shrinks by sqrt(25/100) = 1/2 per side: density preserved.
	if math.Abs(sc.Area.W()-2250) > 1e-9 || math.Abs(sc.Area.H()-1700) > 1e-9 {
		t.Fatalf("area = %v", sc.Area)
	}
}

func TestApplyScalesTaxiGeometry(t *testing.T) {
	o := Options{Nodes: 50}.withDefaults()
	sc := o.apply(config.EPFL())
	f := math.Sqrt(50.0 / 200.0)
	want := config.EPFL().Mobility.Taxi.Area.W() * f
	if math.Abs(sc.Mobility.Taxi.Area.W()-want) > 1e-6 {
		t.Fatalf("taxi area = %v, want %v", sc.Mobility.Taxi.Area.W(), want)
	}
	if sc.Area != sc.Mobility.Taxi.Area {
		t.Fatal("scenario area not synced with taxi area")
	}
	h0 := config.EPFL().Mobility.Taxi.Hotspots[0]
	if math.Abs(sc.Mobility.Taxi.Hotspots[0].Center.X-h0.Center.X*f) > 1e-6 {
		t.Fatal("hotspot centers not rescaled")
	}
}

func TestSweepValuesMatchTableII(t *testing.T) {
	ls := CopiesSweep()
	if len(ls) != 13 || ls[0] != 16 || ls[12] != 64 {
		t.Fatalf("copies sweep = %v", ls)
	}
	bs := BufferSweep()
	if len(bs) != 7 || bs[0] != 2_000_000 || bs[6] != 5_000_000 {
		t.Fatalf("buffer sweep = %v", bs)
	}
	rs := RateSweep()
	if len(rs) != 8 || rs[0] != [2]float64{10, 15} || rs[7] != [2]float64{45, 50} {
		t.Fatalf("rate sweep = %v", rs)
	}
}

func TestRunWorkerCountInvariant(t *testing.T) {
	mk := func() []config.Scenario {
		var scs []config.Scenario
		for seed := uint64(1); seed <= 4; seed++ {
			sc := config.RandomWaypoint()
			sc.Seed = seed
			sc.Nodes = 20
			sc.Area.Max.X, sc.Area.Max.Y = 1000, 800
			sc.Duration, sc.TTL = 1200, 1200
			scs = append(scs, sc)
		}
		return scs
	}
	serial, err := Run(mk(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(mk(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Summary != parallel[i].Summary {
			t.Fatalf("run %d differs across worker counts", i)
		}
	}
}

func TestRunPropagatesBuildError(t *testing.T) {
	bad := config.RandomWaypoint()
	bad.Duration = -1
	if _, err := Run([]config.Scenario{bad}, 2, nil); err == nil {
		t.Fatal("bad scenario not reported")
	}
}

func TestRunProgressCallback(t *testing.T) {
	// Progress fires from the worker goroutines, so the count is atomic.
	var calls atomic.Int64
	sc := config.RandomWaypoint()
	sc.Nodes, sc.Duration, sc.TTL = 10, 300, 300
	sc.Area.Max.X, sc.Area.Max.Y = 500, 400
	_, err := Run([]config.Scenario{sc, sc}, 2, func(done, total int) {
		calls.Add(1)
		if total != 2 {
			t.Errorf("total = %d", total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("progress calls = %d", n)
	}
}

func TestFig4Shape(t *testing.T) {
	panels, err := Fig4(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 1 {
		t.Fatalf("panels = %d", len(panels))
	}
	p := panels[0]
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Curves) != 5 {
		t.Fatalf("curves = %d", len(p.Curves))
	}
	ideal := p.CurveByLabel("idealization")
	// Peak near 1-1/e.
	best := 0
	for i, v := range ideal.Y {
		if v > ideal.Y[best] {
			best = i
		}
	}
	if math.Abs(p.X[best]-core.PeakPR) > 0.05 {
		t.Fatalf("ideal peak at %v, want ~%v", p.X[best], core.PeakPR)
	}
	// Taylor curves sit at or below the ideal everywhere and approach it
	// with k.
	k1 := p.CurveByLabel("Taylor k=1")
	k5 := p.CurveByLabel("Taylor k=5")
	for i := range p.X {
		if k1.Y[i] > ideal.Y[i]+1e-12 || k5.Y[i] > ideal.Y[i]+1e-12 {
			t.Fatalf("Taylor above ideal at %v", p.X[i])
		}
		if k5.Y[i]+1e-12 < k1.Y[i] {
			t.Fatalf("k=5 below k=1 at %v", p.X[i])
		}
	}
}

func TestFig8CopiesSmoke(t *testing.T) {
	panels, err := Fig8Copies(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 3 {
		t.Fatalf("panels = %d", len(panels))
	}
	wantIDs := []string{"fig8a", "fig8b", "fig8c"}
	for i, p := range panels {
		if p.ID != wantIDs[i] {
			t.Fatalf("panel id = %s, want %s", p.ID, wantIDs[i])
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(p.Curves) != 2 || len(p.X) != 13 {
			t.Fatalf("panel %s: curves=%d points=%d", p.ID, len(p.Curves), len(p.X))
		}
	}
	// Delivery ratios are probabilities.
	for _, y := range panels[0].Curves[0].Y {
		if y < 0 || y > 1 {
			t.Fatalf("delivery ratio %v out of range", y)
		}
	}
}

func TestFig9RateSmoke(t *testing.T) {
	panels, err := Fig9Rate(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if panels[0].ID != "fig9g" || panels[2].ID != "fig9i" {
		t.Fatalf("panel ids = %s..%s", panels[0].ID, panels[2].ID)
	}
	if panels[0].XTicks[0] != "10-15" || panels[0].XTicks[7] != "45-50" {
		t.Fatalf("ticks = %v", panels[0].XTicks)
	}
}

func TestFig3Smoke(t *testing.T) {
	panels, err := Fig3(Options{Scale: 0.3, Nodes: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 2 || panels[0].ID != "fig3a" || panels[1].ID != "fig3b" {
		t.Fatalf("panels = %+v", panels)
	}
	for _, p := range panels {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		emp := p.CurveByLabel("empirical")
		fit := p.CurveByLabel("exp fit")
		if emp == nil || fit == nil {
			t.Fatal("curves missing")
		}
		// Both densities should be decreasing overall (exponential-ish):
		// the first bin dominates the last.
		if emp.Y[0] <= emp.Y[len(emp.Y)-1] {
			t.Fatalf("%s empirical density not front-loaded: %v", p.ID, emp.Y)
		}
	}
}

func TestAblationDropListSmoke(t *testing.T) {
	panels, err := AblationDropList(Options{Scale: 0.08, Nodes: 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 3 {
		t.Fatalf("panels = %d", len(panels))
	}
	for _, p := range panels {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if p.CurveByLabel("SDSRP") == nil || p.CurveByLabel("SDSRP no-droplist") == nil {
			t.Fatal("variant curves missing")
		}
	}
}

func TestRegistry(t *testing.T) {
	specs := All()
	if len(specs) < 12 {
		t.Fatalf("registry has %d specs", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if s.Name == "" || s.Desc == "" || s.Run == nil {
			t.Fatalf("incomplete spec %+v", s)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate spec %s", s.Name)
		}
		seen[s.Name] = true
	}
	if _, ok := ByName("fig8copies"); !ok {
		t.Fatal("ByName miss")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName false positive")
	}
}

// The headline claim at test scale: averaged over the copies sweep, SDSRP's
// delivery ratio beats plain Spray-and-Wait's, and its overhead is lower.
// (Full-scale confirmation lives in EXPERIMENTS.md.)
func TestSDSRPBeatsFIFOAtSmallScale(t *testing.T) {
	o := tinyOptions()
	o.Seeds = []uint64{1, 2}
	panels, err := Fig8Copies(o)
	if err != nil {
		t.Fatal(err)
	}
	dr := panels[0]
	sdsrp := dr.CurveByLabel("SDSRP")
	fifo := dr.CurveByLabel("SprayAndWait")
	if report.Mean(sdsrp.Y) <= report.Mean(fifo.Y) {
		t.Fatalf("SDSRP mean DR %.3f <= FIFO %.3f", report.Mean(sdsrp.Y), report.Mean(fifo.Y))
	}
	oh := panels[2]
	if report.Mean(oh.CurveByLabel("SDSRP").Y) >= report.Mean(oh.CurveByLabel("SprayAndWait").Y) {
		t.Fatalf("SDSRP overhead not lower at small scale")
	}
}
