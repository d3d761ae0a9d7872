package config

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sdsrp/internal/fault"
	"sdsrp/internal/mobility"
)

func TestRandomWaypointPresetMatchesTableII(t *testing.T) {
	sc := RandomWaypoint()
	if sc.Duration != 18000 {
		t.Fatalf("duration = %v", sc.Duration)
	}
	if sc.Area.W() != 4500 || sc.Area.H() != 3400 {
		t.Fatalf("area = %v", sc.Area)
	}
	if sc.Nodes != 100 {
		t.Fatalf("nodes = %d", sc.Nodes)
	}
	if sc.Mobility.SpeedLo != 2 || sc.Mobility.SpeedHi != 2 {
		t.Fatalf("speed = [%v,%v]", sc.Mobility.SpeedLo, sc.Mobility.SpeedHi)
	}
	if sc.Bandwidth != 31250 { // 250 kbit/s
		t.Fatalf("bandwidth = %v", sc.Bandwidth)
	}
	if sc.Range != 100 {
		t.Fatalf("range = %v", sc.Range)
	}
	if sc.BufferBytes != 2_500_000 {
		t.Fatalf("buffer = %d", sc.BufferBytes)
	}
	if sc.MessageSize != 500_000 {
		t.Fatalf("message size = %d", sc.MessageSize)
	}
	if sc.GenIntervalLo != 25 || sc.GenIntervalHi != 35 {
		t.Fatalf("gen interval = [%v,%v]", sc.GenIntervalLo, sc.GenIntervalHi)
	}
	if sc.TTL != 18000 { // 300 min
		t.Fatalf("ttl = %v", sc.TTL)
	}
	if sc.InitialCopies != 32 {
		t.Fatalf("copies = %d", sc.InitialCopies)
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
}

func TestEPFLPresetMatchesTableIII(t *testing.T) {
	sc := EPFL()
	if sc.Nodes != 200 {
		t.Fatalf("nodes = %d", sc.Nodes)
	}
	if sc.Mobility.Kind != MobilityTaxi {
		t.Fatalf("kind = %v", sc.Mobility.Kind)
	}
	if sc.Duration != 18000 || sc.TTL != 18000 {
		t.Fatalf("duration/ttl = %v/%v", sc.Duration, sc.TTL)
	}
	if sc.BufferBytes != 2_500_000 || sc.MessageSize != 500_000 {
		t.Fatal("buffer/message sizes differ from Table III")
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	break3 := func(mut func(*Scenario)) error {
		sc := RandomWaypoint()
		mut(&sc)
		return sc.Validate()
	}
	group := func(m Mobility) []Group { return []Group{{Name: "g", Count: 4, Mobility: m}} }
	cases := map[string]func(*Scenario){
		"duration":      func(s *Scenario) { s.Duration = 0 },
		"nodes":         func(s *Scenario) { s.Nodes = 1 },
		"range":         func(s *Scenario) { s.Range = -1 },
		"bandwidth":     func(s *Scenario) { s.Bandwidth = 0 },
		"scan":          func(s *Scenario) { s.ScanInterval = 0 },
		"message size":  func(s *Scenario) { s.MessageSize = 0 },
		"buffer":        func(s *Scenario) { s.BufferBytes = 100 },
		"ttl":           func(s *Scenario) { s.TTL = 0 },
		"gen interval":  func(s *Scenario) { s.GenIntervalLo, s.GenIntervalHi = 30, 20 },
		"copies":        func(s *Scenario) { s.InitialCopies = 0 },
		"expiry":        func(s *Scenario) { s.ExpiryInterval = 0 },
		"speed":         func(s *Scenario) { s.Mobility.SpeedLo, s.Mobility.SpeedHi = 0, 0 },
		"walk speed":    func(s *Scenario) { s.Mobility = Mobility{Kind: MobilityRandomWalk, SpeedLo: 3, EpochDist: 250} },
		"group speed":   func(s *Scenario) { s.Groups = group(Mobility{Kind: MobilityRWP, SpeedLo: 8, SpeedHi: 1}) },
		"group epoch":   func(s *Scenario) { s.Groups = group(Mobility{Kind: MobilityRandomWalk, SpeedLo: 1, SpeedHi: 3}) },
		"mobility kind": func(s *Scenario) { s.Mobility.Kind = "hovercraft" },
		"trace dir":     func(s *Scenario) { s.Mobility = Mobility{Kind: MobilityTraceDir} },
		"fault loss":    func(s *Scenario) { s.Faults.TransferLossProb = 1.5 },
		"fault jitter":  func(s *Scenario) { s.Faults.BandwidthJitterLo, s.Faults.BandwidthJitterHi = 2, 1 },
		"fault churn":   func(s *Scenario) { s.Faults.Churn.MeanUp = 100 }, // no MeanDown
		"fault roles":   func(s *Scenario) { s.Faults.BlackHoleFraction, s.Faults.SelfishFraction = 0.7, 0.7 },
		"churn group":   func(s *Scenario) { s.Faults.Churn = fault.Churn{MeanUp: 10, MeanDown: 10, Groups: []string{"ghost"}} },
	}
	for name, mut := range cases {
		if err := break3(mut); err == nil {
			t.Fatalf("Validate accepted broken %s", name)
		}
	}
}

// TestValidateRejectsNonFinite sets one float field at a time to NaN, +Inf
// and -Inf: Validate must reject each, naming the field. (A NaN generation
// interval used to schedule traffic at NaN time, and an infinite duration
// never ended.)
func TestValidateRejectsNonFinite(t *testing.T) {
	group := func(s *Scenario) *Group {
		s.Groups = []Group{{Name: "g", Count: 2, Mobility: s.Mobility}}
		return &s.Groups[0]
	}
	taxi := func(s *Scenario) *mobility.TaxiConfig {
		s.Mobility.Taxi = mobility.DefaultTaxiConfig()
		return &s.Mobility.Taxi
	}
	rows := []struct {
		field string // as the error names it
		at    func(*Scenario) *float64
	}{
		{"Duration", func(s *Scenario) *float64 { return &s.Duration }},
		{"Warmup", func(s *Scenario) *float64 { return &s.Warmup }},
		{"Area.Min.X", func(s *Scenario) *float64 { return &s.Area.Min.X }},
		{"Area.Min.Y", func(s *Scenario) *float64 { return &s.Area.Min.Y }},
		{"Area.Max.X", func(s *Scenario) *float64 { return &s.Area.Max.X }},
		{"Area.Max.Y", func(s *Scenario) *float64 { return &s.Area.Max.Y }},
		{"Range", func(s *Scenario) *float64 { return &s.Range }},
		{"Bandwidth", func(s *Scenario) *float64 { return &s.Bandwidth }},
		{"ScanInterval", func(s *Scenario) *float64 { return &s.ScanInterval }},
		{"TTL", func(s *Scenario) *float64 { return &s.TTL }},
		{"GenIntervalLo", func(s *Scenario) *float64 { return &s.GenIntervalLo }},
		{"GenIntervalHi", func(s *Scenario) *float64 { return &s.GenIntervalHi }},
		{"ExpiryInterval", func(s *Scenario) *float64 { return &s.ExpiryInterval }},
		{"PriorMeanIntermeeting", func(s *Scenario) *float64 { return &s.PriorMeanIntermeeting }},
		{"PriorWeight", func(s *Scenario) *float64 { return &s.PriorWeight }},
		{"OracleRateMean", func(s *Scenario) *float64 { return &s.OracleRateMean }},
		{"Mobility.SpeedLo", func(s *Scenario) *float64 { return &s.Mobility.SpeedLo }},
		{"Mobility.SpeedHi", func(s *Scenario) *float64 { return &s.Mobility.SpeedHi }},
		{"Mobility.PauseLo", func(s *Scenario) *float64 { return &s.Mobility.PauseLo }},
		{"Mobility.PauseHi", func(s *Scenario) *float64 { return &s.Mobility.PauseHi }},
		{"Mobility.EpochDist", func(s *Scenario) *float64 { return &s.Mobility.EpochDist }},
		{"Mobility.SampleInterval", func(s *Scenario) *float64 { return &s.Mobility.SampleInterval }},
		{"Mobility.MapSpacing", func(s *Scenario) *float64 { return &s.Mobility.MapSpacing }},
		{"Mobility.MapDropProb", func(s *Scenario) *float64 { return &s.Mobility.MapDropProb }},
		{"Mobility.MapSnap", func(s *Scenario) *float64 { return &s.Mobility.MapSnap }},
		{"Mobility.Taxi.Area.Min.X", func(s *Scenario) *float64 { return &taxi(s).Area.Min.X }},
		{"Mobility.Taxi.Area.Min.Y", func(s *Scenario) *float64 { return &taxi(s).Area.Min.Y }},
		{"Mobility.Taxi.Area.Max.X", func(s *Scenario) *float64 { return &taxi(s).Area.Max.X }},
		{"Mobility.Taxi.Area.Max.Y", func(s *Scenario) *float64 { return &taxi(s).Area.Max.Y }},
		{"Mobility.Taxi.Hotspots[0].Center.X", func(s *Scenario) *float64 { return &taxi(s).Hotspots[0].Center.X }},
		{"Mobility.Taxi.Hotspots[0].Center.Y", func(s *Scenario) *float64 { return &taxi(s).Hotspots[0].Center.Y }},
		{"Mobility.Taxi.Hotspots[0].Sigma", func(s *Scenario) *float64 { return &taxi(s).Hotspots[0].Sigma }},
		{"Mobility.Taxi.Hotspots[0].Weight", func(s *Scenario) *float64 { return &taxi(s).Hotspots[0].Weight }},
		{"Mobility.Taxi.UniformProb", func(s *Scenario) *float64 { return &taxi(s).UniformProb }},
		{"Mobility.Taxi.SpeedLo", func(s *Scenario) *float64 { return &taxi(s).SpeedLo }},
		{"Mobility.Taxi.SpeedHi", func(s *Scenario) *float64 { return &taxi(s).SpeedHi }},
		{"Mobility.Taxi.PauseLo", func(s *Scenario) *float64 { return &taxi(s).PauseLo }},
		{"Mobility.Taxi.PauseHi", func(s *Scenario) *float64 { return &taxi(s).PauseHi }},
		{"Groups[0].Range", func(s *Scenario) *float64 { return &group(s).Range }},
		{"Groups[0].Mobility.SpeedHi", func(s *Scenario) *float64 { return &group(s).Mobility.SpeedHi }},
		{"Groups[0].Mobility.PauseHi", func(s *Scenario) *float64 { return &group(s).Mobility.PauseHi }},
		{"Energy.Capacity", func(s *Scenario) *float64 { return &s.Energy.Capacity }},
		{"Energy.ScanPerSec", func(s *Scenario) *float64 { return &s.Energy.ScanPerSec }},
		{"Energy.TxPerSec", func(s *Scenario) *float64 { return &s.Energy.TxPerSec }},
		{"Energy.RxPerSec", func(s *Scenario) *float64 { return &s.Energy.RxPerSec }},
		{"faults: TransferLossProb", func(s *Scenario) *float64 { return &s.Faults.TransferLossProb }},
		{"faults: LinkFlapMeanUp", func(s *Scenario) *float64 { return &s.Faults.LinkFlapMeanUp }},
		{"faults: BandwidthJitterLo", func(s *Scenario) *float64 { return &s.Faults.BandwidthJitterLo }},
		{"faults: BandwidthJitterHi", func(s *Scenario) *float64 { return &s.Faults.BandwidthJitterHi }},
		{"faults: Churn.MeanUp", func(s *Scenario) *float64 { return &s.Faults.Churn.MeanUp }},
		{"faults: Churn.MeanDown", func(s *Scenario) *float64 { return &s.Faults.Churn.MeanDown }},
		{"faults: BlackHoleFraction", func(s *Scenario) *float64 { return &s.Faults.BlackHoleFraction }},
		{"faults: SelfishFraction", func(s *Scenario) *float64 { return &s.Faults.SelfishFraction }},
	}
	for _, r := range rows {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			sc := RandomWaypoint()
			*r.at(&sc) = v
			err := sc.Validate()
			if want := fmt.Sprintf("%s %v must be finite", r.field, v); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s = %v: got %v, want an error containing %q", r.field, v, err, want)
			}
		}
	}
}

func TestValidateJoinsMultipleErrors(t *testing.T) {
	sc := RandomWaypoint()
	sc.Duration = 0
	sc.Range = 0
	err := sc.Validate()
	if err == nil {
		t.Fatal("no error")
	}
	if !strings.Contains(err.Error(), "duration") || !strings.Contains(err.Error(), "range") {
		t.Fatalf("errors not joined: %v", err)
	}
}

func TestTrafficCanBeDisabled(t *testing.T) {
	sc := RandomWaypoint()
	sc.GenIntervalLo = 0
	if err := sc.Validate(); err != nil {
		t.Fatalf("traffic-free scenario rejected: %v", err)
	}
}
