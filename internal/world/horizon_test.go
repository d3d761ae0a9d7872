package world

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"sdsrp/internal/config"
)

// TestLongHorizonLogsPinned runs the tiny traced world for ten TTLs, so
// the drop and ACK tables forget expired messages again and again while
// gossip keeps merging, and pins the SHA-256 of each JSONL event log. The
// digests were taken from tables that never forgot anything, so bounding
// them by the TTL window must not move a single event. The variants cover
// the plain SDSRP path, ACK gossip (AckTable.Forget), churn with wiping
// reboots (DropTable.Reset), both together, and Knapsack, the other
// drop-list policy.
func TestLongHorizonLogsPinned(t *testing.T) {
	ack, wipe := `"kind":"ack"`, `"kind":"wipe"`
	variants := []struct {
		name  string
		edit  func(*config.Scenario)
		needs []string // event fragments the log must contain
	}{
		{"sdsrp", func(*config.Scenario) {}, nil},
		{"sdsrp-acks", func(sc *config.Scenario) { sc.UseAcks = true }, []string{ack}},
		{"sdsrp-churn", func(sc *config.Scenario) { sc.Faults = heavyFaults() }, []string{wipe}},
		{"sdsrp-acks-churn", func(sc *config.Scenario) { sc.UseAcks, sc.Faults = true, heavyFaults() }, []string{ack, wipe}},
		{"knapsack", func(sc *config.Scenario) { sc.PolicyName = "Knapsack" }, nil},
	}
	want := map[string]string{
		"sdsrp/1":            "d61f19761b66f3280d5b731128131edef3df362092b9a88564c79bec6e60adb1",
		"sdsrp/2":            "47dc45e05b185ac829718aa27472f673b26c878a4c937bb4b8384c9cc626d295",
		"sdsrp-acks/1":       "68d939b61bc61aaf13e4c33a44461bea53f0b8dda6f93c0a7573c6cac3dc679d",
		"sdsrp-acks/2":       "c086b6d973a3a94114f552c5d35a482458e01cfb89040c9413687a1e7ad1d7f2",
		"sdsrp-churn/1":      "6395475804a40e3bc950c282540e85e9b2efca4f2676c13b93e380eb3e4ad467",
		"sdsrp-churn/2":      "1a50495cad60a9dc62cfb1e716ffb46de189605f9be549146376c319b0becfac",
		"sdsrp-acks-churn/1": "a1bc339aa430f4abef8e6e39def92f21bdfef7baaada1a752d78742552b9889e",
		"sdsrp-acks-churn/2": "1c8a61bdf7f363b943c137c3b6d4d01f3dd407fd2ed4067b6861cf1d0e476009",
		"knapsack/1":         "0b263ae214e033389dd74897987153a9b495fdf9d7242aecead7948ecfd2b611",
		"knapsack/2":         "cd4f063070639aebd49d0dc593a0ed53e840a2df91216e09808288406e00391a",
	}
	for _, v := range variants {
		for seed := uint64(1); seed <= 2; seed++ {
			name := fmt.Sprintf("%s/%d", v.name, seed)
			t.Run(name, func(t *testing.T) {
				sc := tinyTracedScenario()
				sc.Duration = 10 * sc.TTL
				sc.Seed = seed
				v.edit(&sc)
				log := runTraced(t, sc)
				for _, frag := range append([]string{`"type":"expired"`}, v.needs...) {
					if !bytes.Contains(log, []byte(frag)) {
						t.Fatalf("no %s event: the run misses the path it pins", frag)
					}
				}
				sum := sha256.Sum256(log)
				if got := hex.EncodeToString(sum[:]); got != want[name] {
					t.Errorf("event log SHA-256 = %s, want %s", got, want[name])
				}
			})
		}
	}
}

// TestDropTableSlotsBoundedByTTL: the drop tables keep state only for ids a
// TTL window can still ask about, so a Table II world at ten TTLs holds
// about as many id slots (counts, plus each owner's membership flags and
// log ids) as at one. Tables that remembered every id ever created held
// 10.7× as many. The backing arrays behind those slots are bounded too, at
// 1.5× the live slots and 1.25× their own size at one TTL: arrays that kept
// their dead prefix until append regrew them held 1.7–1.9× the live slots.
func TestDropTableSlotsBoundedByTTL(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 180 000 s Table II world")
	}
	slots := func(horizon float64) (live, capacity int) {
		sc := config.RandomWaypoint()
		sc.Duration = horizon
		w, err := Build(sc)
		if err != nil {
			t.Fatal(err)
		}
		mustRun(t, w)
		for _, h := range w.Hosts {
			live += h.DropTable().Slots()
			capacity += h.DropTable().Capacity()
		}
		return live, capacity
	}
	one, oneCap := slots(18000)
	ten, tenCap := slots(180000)
	t.Logf("id slots: %d at 18 000 s, %d at 180 000 s (%.2f×)", one, ten, float64(ten)/float64(one))
	t.Logf("capacity: %d at 18 000 s, %d at 180 000 s (%.2f× the live slots)", oneCap, tenCap, float64(tenCap)/float64(ten))
	if float64(ten) > 1.25*float64(one) {
		t.Fatalf("drop tables hold %d id slots at 180 000 s, more than 1.25 × the %d at 18 000 s", ten, one)
	}
	if float64(tenCap) > 1.5*float64(ten) || float64(tenCap) > 1.25*float64(oneCap) {
		t.Fatalf("drop tables' arrays hold %d entries at 180 000 s for %d live slots (%d at 18 000 s)", tenCap, ten, oneCap)
	}
}
