package world

import (
	"fmt"
	"reflect"
	"testing"

	"sdsrp/internal/config"
	"sdsrp/internal/network"
	"sdsrp/internal/obs"
)

// trafficVariant changes every kind of traffic-only field of sc: policy,
// protocol, buffers, copies, load, bandwidth, and the link- and
// transfer-side fault models, jitter and flaps included, which draw inside
// linkUp. It turns link flapping on where sc has none and off where it has
// some, so every plan is replayed across a flapping sibling.
func trafficVariant(sc config.Scenario) config.Scenario {
	sc.Name += "-variant"
	sc.PolicyName = "SprayAndWait-O"
	sc.ProtocolName = "epidemic"
	sc.BufferBytes = 3 * config.MB
	sc.InitialCopies = 8
	sc.GenIntervalLo, sc.GenIntervalHi = 10, 15
	sc.Bandwidth *= 2
	sc.Faults.TransferLossProb = 0.1
	sc.Faults.BandwidthJitterLo, sc.Faults.BandwidthJitterHi = 0.5, 1.5
	sc.Faults.BlackHoleFraction = 0.1
	if sc.Faults.LinkFlapMeanUp == 0 {
		sc.Faults.LinkFlapMeanUp = 25
	} else {
		sc.Faults.LinkFlapMeanUp = 0
	}
	return sc
}

// lastTransition is a tracer keeping the time of the latest link
// transition.
type lastTransition struct{ t float64 }

func (l *lastTransition) Emit(e obs.Event) {
	if e.Type == obs.ContactUp || e.Type == obs.ContactDown {
		l.t = e.T
	}
}

// endOnTransition shortens sc to end on its last scan tick that changes a
// link, so that a replay which lost its final tick cannot pass. A
// synthesized taxi fleet depends on the horizon, so it keeps its own.
func endOnTransition(t *testing.T, sc config.Scenario) config.Scenario {
	t.Helper()
	if sc.Mobility.Kind == config.MobilityTaxi {
		return sc
	}
	for range 2 {
		last := &lastTransition{}
		w, err := Build(sc, WithTracer(last))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if last.t == sc.Duration {
			return sc
		}
		sc.Duration = last.t
	}
	t.Fatalf("%s: the horizon does not end on a link transition", sc.Name)
	return sc
}

// TestContactPlanReplayMatchesScan is the contact-sharing differential: for
// every scanner-differential family whose contacts depend on motion alone,
// across seeds, a plan recorded by a traffic variant and replayed into the
// family's scenario (and back into the variant) must reproduce the
// standalone runs' JSONL traces byte for byte, while recording leaves the
// recorder's own trace untouched. It cannot pass vacuously: the runs have
// contacts, the replaying ones do no scan work, and every run ends on a
// tick with a link transition.
func TestContactPlanReplayMatchesScan(t *testing.T) {
	for name, mk := range diffFamilies() {
		if !mk().MotionOnlyContacts() {
			continue
		}
		for _, seed := range []uint64{1, 2, 3} {
			sc := mk()
			sc.Seed = seed
			sc.Name = fmt.Sprintf("plan-%s-%d", name, seed)
			t.Run(sc.Name, func(t *testing.T) {
				t.Parallel()
				sc := endOnTransition(t, sc)
				variant := trafficVariant(sc)
				plan := &network.ContactPlan{}
				recorded, _, _, err := runScenario(variant, RecordContactPlan(plan))
				if err != nil {
					t.Fatalf("recording run: %v", err)
				}
				for _, target := range []config.Scenario{sc, variant} {
					alone, resA, logA, err := runScenario(target)
					if err != nil {
						t.Fatalf("%s standalone: %v", target.Name, err)
					}
					if resA.Contacts == 0 {
						t.Fatalf("%s: no contacts to replay", target.Name)
					}
					if target.Name == variant.Name {
						if line, a, r, ok := firstDiff(alone, recorded); !ok {
							t.Fatalf("recording changed the trace at line %d:\n  standalone: %s\n  recording:  %s", line, a, r)
						}
					}
					replayed, resR, logR, err := runScenario(target, ReplayContactPlan(plan))
					if err != nil {
						t.Fatalf("%s replay: %v", target.Name, err)
					}
					if line, a, r, ok := firstDiff(alone, replayed); !ok {
						t.Fatalf("%s: replay diverges at trace line %d:\n  standalone: %s\n  replay:     %s",
							target.Name, line, a, r)
					}
					if resA.Summary != resR.Summary || resA.Contacts != resR.Contacts ||
						resA.MeanContactDuration != resR.MeanContactDuration ||
						resA.Perf.Events != resR.Perf.Events || resA.Perf.PeakQueue != resR.Perf.PeakQueue {
						t.Fatalf("%s: results diverge:\nstandalone: %+v\nreplay:     %+v", target.Name, resA, resR)
					}
					if !reflect.DeepEqual(logA, logR) {
						t.Fatalf("%s: contact logs diverge: %d vs %d entries", target.Name, len(logA), len(logR))
					}
					if !resR.Perf.Replayed || resR.Perf.PairsChecked != 0 || resA.Perf.Replayed {
						t.Fatalf("%s: replay marker wrong: standalone %+v, replay %+v", target.Name, resA.Perf, resR.Perf)
					}
				}
			})
		}
	}
}

// TestContactPlanRefusesCoupledLinks checks the network layer's guard: a
// battery or churn couples contacts to transfers or fault draws outside the
// scan, so recording or replaying a plan there fails to build instead of
// producing a schedule that cannot be shared.
func TestContactPlanRefusesCoupledLinks(t *testing.T) {
	for name, mk := range diffFamilies() {
		sc := mk()
		if sc.MotionOnlyContacts() {
			continue
		}
		if _, err := Build(sc, RecordContactPlan(&network.ContactPlan{})); err == nil {
			t.Errorf("%s: recording a contact plan built", name)
		}
		if _, err := Build(sc, ReplayContactPlan(&network.ContactPlan{})); err == nil {
			t.Errorf("%s: replaying a contact plan built", name)
		}
	}
}

// TestContactPlanReplayPastHorizonPanics checks the horizon guard: a plan
// covers only the ticks its recording run scanned, so a longer run must
// stop loudly rather than invent a quiet network.
func TestContactPlanReplayPastHorizonPanics(t *testing.T) {
	sc := diffBase()
	plan := &network.ContactPlan{}
	if _, _, _, err := runScenario(sc, RecordContactPlan(plan)); err != nil {
		t.Fatal(err)
	}
	sc.Duration += 2 * sc.ScanInterval
	w, err := Build(sc, ReplayContactPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("replaying past the plan's horizon did not panic")
		}
	}()
	_, _ = w.Run()
}
