package world

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"sdsrp/internal/config"
	"sdsrp/internal/fault"
	"sdsrp/internal/mobility"
	"sdsrp/internal/network"
	"sdsrp/internal/obs"
	"sdsrp/internal/policy"
	"sdsrp/internal/rng"
	"sdsrp/internal/routing"
	"sdsrp/internal/sim"
	"sdsrp/internal/stats"
)

// tinyTracedScenario is a fast deterministic run that still exercises
// contacts, sprays, deliveries, drops, and expiries.
func tinyTracedScenario() config.Scenario {
	sc := config.RandomWaypoint()
	sc.Nodes = 12
	sc.Duration = 1800
	sc.TTL = 600
	sc.Area.Max.X = 600
	sc.Area.Max.Y = 600
	sc.MessageSize = 100 * 1000
	sc.MessageSizeHi = 0
	sc.BufferBytes = 300 * 1000 // tight: three messages, forcing policy drops
	sc.Seed = 7
	return sc
}

func runTraced(t *testing.T, sc config.Scenario) []byte {
	t.Helper()
	var buf bytes.Buffer
	jsonl := obs.NewJSONL(&buf)
	w, err := Build(sc, WithTracer(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, w)
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTracedRunDeterministic is the golden-log property: the same seed must
// produce a byte-identical JSONL event log.
func TestTracedRunDeterministic(t *testing.T) {
	sc := tinyTracedScenario()
	a := runTraced(t, sc)
	b := runTraced(t, sc)
	if len(a) == 0 {
		t.Fatal("traced run produced an empty event log")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different event logs")
	}
	sc.Seed = 8
	c := runTraced(t, sc)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical event logs (suspicious)")
	}
}

// TestTracedRunLifecycleConsistency checks the per-message event algebra:
// every delivered/dropped/expired/forwarded event refers to a message whose
// created event appeared earlier in the log, timestamps are non-decreasing,
// and at most one delivery per message exists.
func TestTracedRunLifecycleConsistency(t *testing.T) {
	log := runTraced(t, tinyTracedScenario())
	type line struct {
		T    float64 `json:"t"`
		Type string  `json:"type"`
		Msg  *int    `json:"msg"`
	}
	created := map[int]bool{}
	deliveredAt := map[int]int{}
	var prevT float64
	var n, fates int
	for _, raw := range strings.Split(strings.TrimSuffix(string(log), "\n"), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("bad JSONL line %q: %v", raw, err)
		}
		if l.T < prevT {
			t.Fatalf("time went backwards: %v after %v in %q", l.T, prevT, raw)
		}
		prevT = l.T
		n++
		switch l.Type {
		case "created":
			created[*l.Msg] = true
		case "delivered", "dropped", "expired", "forwarded", "transfer_start",
			"transfer_abort", "transfer_lost", "refused", "purged":
			if l.Msg == nil {
				t.Fatalf("%s event without msg: %q", l.Type, raw)
			}
			if !created[*l.Msg] {
				t.Fatalf("%s for message %d before its created event", l.Type, *l.Msg)
			}
			if l.Type == "delivered" {
				deliveredAt[*l.Msg]++
				if deliveredAt[*l.Msg] > 1 {
					t.Fatalf("message %d delivered twice", *l.Msg)
				}
			}
			if l.Type == "delivered" || l.Type == "dropped" || l.Type == "expired" {
				fates++
			}
		case "contact_up", "contact_down", "link_flap", "node_down", "node_up":
			// contact and node events are not message-scoped
		default:
			t.Fatalf("unknown event type %q", l.Type)
		}
	}
	if len(created) == 0 || fates == 0 {
		t.Fatalf("degenerate log: %d events, %d created, %d fates", n, len(created), fates)
	}
}

// TestTracedRunMatchesCollector cross-checks the ledger's event counts
// against the stats collector: both observe the same run, so headline
// counters must agree.
func TestTracedRunMatchesCollector(t *testing.T) {
	sc := tinyTracedScenario()
	metrics := obs.NewLedger()
	w, err := Build(sc, WithTracer(metrics))
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, w)
	if got, want := int(metrics.Count(obs.MessageCreated)), res.Created; got != want {
		t.Errorf("created: tracer %d, collector %d", got, want)
	}
	if got, want := int(metrics.Count(obs.MessageDelivered)), res.Delivered; got != want {
		t.Errorf("delivered: tracer %d, collector %d", got, want)
	}
	if got, want := int(metrics.Count(obs.MessageForwarded))+int(metrics.Count(obs.MessageDelivered)), res.Forwards; got != want {
		t.Errorf("forwards: tracer %d, collector %d", got, want)
	}
	if got, want := int(metrics.Count(obs.MessageDropped)), res.PolicyDrops; got != want {
		t.Errorf("drops: tracer %d, collector %d", got, want)
	}
	if got, want := int(metrics.Count(obs.MessageExpired)), res.ExpiredDrops; got != want {
		t.Errorf("expired: tracer %d, collector %d", got, want)
	}
	if got, want := int(metrics.Count(obs.TransferStart)), res.Started; got != want {
		t.Errorf("starts: tracer %d, collector %d", got, want)
	}
	if got, want := int(metrics.Count(obs.ContactUp)), res.Contacts; got != want {
		t.Errorf("contacts: tracer %d, collector %d", got, want)
	}
	if got := len(metrics.Deliveries()); got != res.Delivered {
		t.Errorf("deliveries: ledger %d, collector %d", got, res.Delivered)
	}
}

// typeCounter is a capturing sink: it counts every event it is handed, by
// type.
type typeCounter map[obs.Type]uint64

func (c typeCounter) Emit(ev obs.Event) { c[ev.Type]++ }

// TestLedgerCountsMatchStream checks the ledger's per-type counts and total
// on a traced run with snapshots against a sink that counts what the run
// emits: every type, the ones the ledger keeps no record for included.
func TestLedgerCountsMatchStream(t *testing.T) {
	sc := tinyTracedScenario()
	sc.Faults = heavyFaults()
	ledger, seen := obs.NewLedger(), typeCounter{}
	w, err := Build(sc, WithTracer(obs.Multi(ledger, seen)))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.EnableSnapshots(300); err != nil {
		t.Fatal(err)
	}
	mustRun(t, w)
	if seen[obs.Snapshot] == 0 || seen[obs.ContactUp] == 0 || seen[obs.NodeDown] == 0 {
		t.Fatalf("run does not exercise the case: %v", seen)
	}
	var total uint64
	for typ := 0; typ <= 255; typ++ {
		want := seen[obs.Type(typ)]
		total += want
		if got := ledger.Count(obs.Type(typ)); got != want {
			t.Errorf("Count(%s) = %d, sink saw %d", obs.Type(typ), got, want)
		}
	}
	if got := ledger.Total(); got != total {
		t.Errorf("Total = %d, sink saw %d", got, total)
	}
}

// TestCollectorRefoldsFromLog checks the run's collector is a pure fold of
// the event log: feeding a run's JSONL log through a fresh Collector must
// reproduce Result.Summary bit for bit, with ACK purges and with loss,
// black holes and wiping churn in the stream.
func TestCollectorRefoldsFromLog(t *testing.T) {
	acks := config.EPFL()
	acks.Seed, acks.Duration, acks.UseAcks = 2, 6000, true
	faulty := config.RandomWaypoint()
	faulty.Faults = fault.Config{
		TransferLossProb:  0.1,
		BlackHoleFraction: 0.1,
		Churn:             fault.Churn{MeanUp: 3000, MeanDown: 300, WipeOnReboot: true},
	}
	for _, tc := range []struct {
		name string
		sc   config.Scenario
		// covers must be positive: the stream feature the case exists for.
		covers func(stats.Summary, *obs.Ledger) int
	}{
		{"table2", config.RandomWaypoint(), func(s stats.Summary, _ *obs.Ledger) int { return s.Delivered * s.PolicyDrops }},
		{"epfl", config.EPFL(), func(s stats.Summary, _ *obs.Ledger) int { return s.Delivered * s.Aborted }},
		{"acks", acks, func(s stats.Summary, _ *obs.Ledger) int { return s.AckPurges }},
		{"faults", faulty, func(s stats.Summary, m *obs.Ledger) int {
			return s.Lost * int(m.Count(obs.MessagePurged)-uint64(s.AckPurges))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := tc.sc
			if testing.Short() {
				sc.Duration = min(sc.Duration, 6000)
			}
			var buf bytes.Buffer
			jsonl := obs.NewJSONL(&buf)
			metrics := obs.NewLedger()
			w, err := Build(sc, WithTracer(obs.Multi(jsonl, metrics)))
			if err != nil {
				t.Fatal(err)
			}
			res := mustRun(t, w)
			if err := jsonl.Flush(); err != nil {
				t.Fatal(err)
			}
			if tc.covers(res.Summary, metrics) <= 0 {
				t.Fatalf("run does not exercise the case: %+v", res.Summary)
			}
			refold := stats.NewCollector()
			refold.WarmupUntil = sc.Warmup
			r := obs.NewLogReader(&buf)
			for {
				ev, err := r.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				refold.Emit(ev)
			}
			if got := refold.Summarize(); got != res.Summary {
				t.Fatalf("refolded log disagrees with the run:\n  log: %+v\n  run: %+v", got, res.Summary)
			}
		})
	}
}

// TestTracingLeavesRandomUnchanged: attaching a tracer must not change a
// run. The test-registered random policy draws one value from its stream
// per DropScore, so the dropped event has to report the scores the eviction
// plan already drew instead of scoring the copy again.
func TestTracingLeavesRandomUnchanged(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		sc := diffBase()
		sc.PolicyName = randomPolicyName
		sc.Seed = seed
		w, err := Build(sc)
		if err != nil {
			t.Fatal(err)
		}
		plain := mustRun(t, w)
		_, traced, _, err := runScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		if plain.PolicyDrops == 0 {
			t.Fatalf("seed %d: no policy drops, so no dropped event was scored", seed)
		}
		if plain.Summary != traced.Summary {
			t.Errorf("seed %d: traced run diverges:\nuntraced: %+v\ntraced:   %+v", seed, plain.Summary, traced.Summary)
		}
	}
}

// TestRegisteredPolicyStreamsPinned: a registered policy gets an instance
// per host on the host's own substream, root.SplitIndex("policy", i). The
// test-registered random policy draws every score from that stream, so
// these event logs, recorded when Build split a policy stream for every
// host whatever its policy, move if any host's stream does.
func TestRegisteredPolicyStreamsPinned(t *testing.T) {
	for _, c := range []struct {
		seed uint64
		want string
	}{
		{1, "29be8f758f873cff2039abcc4db975108f7b5654df62541cfe8276e58aaf6b74"},
		{2, "5b37a14f3ad00d7ae95208c9cc5de28e3f6fc42258299d188142d778f7a745cc"},
	} {
		sc := diffBase()
		sc.PolicyName = randomPolicyName
		sc.Seed = c.seed
		log, res, _, err := runScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.PolicyDrops == 0 {
			t.Fatalf("seed %d: no policy drops, so the random scores decided nothing", c.seed)
		}
		sum := sha256.Sum256(log)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("seed %d: event log SHA-256 = %s, want %s", c.seed, got, c.want)
		}
	}
}

// runTracedSnapshots is runTraced with the windowed sampler enabled.
func runTracedSnapshots(t *testing.T, sc config.Scenario, interval float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	jsonl := obs.NewJSONL(&buf)
	w, err := Build(sc, WithTracer(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.EnableSnapshots(interval); err != nil {
		t.Fatal(err)
	}
	mustRun(t, w)
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRunDeterministic extends the golden-log property to the
// sampler: snapshot events ride the same stream and must not disturb
// byte-identical replay.
func TestSnapshotRunDeterministic(t *testing.T) {
	sc := tinyTracedScenario()
	a := runTracedSnapshots(t, sc, 300)
	b := runTracedSnapshots(t, sc, 300)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different snapshot-bearing event logs")
	}
	if !bytes.Contains(a, []byte(`"type":"snapshot"`)) {
		t.Fatal("no snapshot events in the log")
	}
	// The sampler must not perturb the simulation itself: stripping the
	// snapshot lines recovers the sampler-less log exactly.
	plain := runTraced(t, sc)
	var stripped bytes.Buffer
	for _, line := range bytes.Split(a, []byte("\n")) {
		if len(line) == 0 || bytes.Contains(line, []byte(`"type":"snapshot"`)) {
			continue
		}
		stripped.Write(line)
		stripped.WriteByte('\n')
	}
	if !bytes.Equal(stripped.Bytes(), plain) {
		t.Fatal("enabling snapshots changed the lifecycle event stream")
	}
}

// TestSnapshotCadenceAndShape parses the sampled events and checks cadence,
// per-node vector width, and internal consistency.
func TestSnapshotCadenceAndShape(t *testing.T) {
	sc := tinyTracedScenario()
	const interval = 300.0
	log := runTracedSnapshots(t, sc, interval)
	var snaps []obs.Event
	for _, line := range bytes.Split(log, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		ev, err := obs.ParseEvent(line)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Type == obs.Snapshot {
			snaps = append(snaps, ev)
		}
	}
	want := int(sc.Duration / interval)
	if len(snaps) != want {
		t.Fatalf("got %d snapshots, want %d", len(snaps), want)
	}
	for i, s := range snaps {
		if wantT := interval * float64(i+1); s.T != wantT {
			t.Errorf("snapshot %d at t=%v, want %v", i, s.T, wantT)
		}
		if len(s.Used) != sc.Nodes {
			t.Errorf("snapshot %d: used vector has %d entries, want %d nodes", i, len(s.Used), sc.Nodes)
		}
		if s.LiveMsgs > s.LiveCopies {
			t.Errorf("snapshot %d: %d distinct messages exceed %d copies", i, s.LiveMsgs, s.LiveCopies)
		}
		if s.Queue < 0 {
			t.Errorf("snapshot %d: negative live queue depth %d", i, s.Queue)
		}
	}
}

// TestSnapshotMatchesResult cross-checks a post-run Snapshot against the
// world's own end-of-run accounting and the ledger folded from the run.
func TestSnapshotMatchesResult(t *testing.T) {
	sc := tinyTracedScenario()
	ledger := obs.NewLedger()
	w, err := Build(sc, WithTracer(ledger))
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, w)
	snap := w.Snapshot(sc.Duration)
	holders := countHolders(w)
	var liveCopies, liveMsgs int
	for _, r := range ledger.Records() {
		if r.LiveCopies != holders[r.ID] {
			t.Errorf("msg %d: ledger %d live copies, buffers hold %d", r.ID, r.LiveCopies, holders[r.ID])
		}
		liveCopies += r.LiveCopies
		if r.LiveCopies > 0 {
			liveMsgs++
		}
	}
	if snap.LiveCopies != liveCopies {
		t.Errorf("snapshot copies %d, ledger sum %d", snap.LiveCopies, liveCopies)
	}
	if snap.LiveMsgs != liveMsgs {
		t.Errorf("snapshot live msgs %d, ledger %d", snap.LiveMsgs, liveMsgs)
	}
	if snap.Contacts != w.Manager.ActiveLinks() {
		t.Errorf("snapshot contacts %d, manager %d", snap.Contacts, w.Manager.ActiveLinks())
	}
	var used int64
	for _, u := range snap.Used {
		used += u
	}
	var bufUsed int64
	for _, h := range w.Hosts {
		bufUsed += h.Buffer().Used()
	}
	if used != bufUsed {
		t.Errorf("snapshot used sum %d, buffers %d", used, bufUsed)
	}
}

// TestEnableSnapshotsRejectsBadConfig pins the argument contract.
func TestEnableSnapshotsRejectsBadConfig(t *testing.T) {
	sc := tinyTracedScenario()
	w, err := Build(sc, WithTracer(obs.NewRing(4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.EnableSnapshots(0); err == nil {
		t.Error("zero interval accepted")
	}
	if err := w.EnableSnapshots(-5); err == nil {
		t.Error("negative interval accepted")
	}
	bare, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.EnableSnapshots(60); err == nil {
		t.Error("tracer-less world accepted a snapshot sampler")
	}
}

// TestRunStatsPopulated checks the engine perf digest lands in the result.
func TestRunStatsPopulated(t *testing.T) {
	sc := tinyTracedScenario()
	w, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, w)
	p := res.Perf
	if p.Events == 0 {
		t.Error("no events counted")
	}
	if p.PeakQueue <= 0 {
		t.Error("peak queue not tracked")
	}
	if p.WallSeconds <= 0 {
		t.Error("wall clock not tracked")
	}
	if p.SimSeconds != sc.Duration {
		t.Errorf("sim seconds %v, want %v", p.SimSeconds, sc.Duration)
	}
	if p.EventsPerSec() <= 0 {
		t.Error("events/sec not derivable")
	}
}

// TestSnapshotFillZeroHostsAndZeroCapacity guards the mean-fill
// computation against division by zero: no hosts, or hosts reporting zero
// capacity, must yield fill 0, not NaN, in every snapshot line.
func TestSnapshotFillZeroHostsAndZeroCapacity(t *testing.T) {
	for _, nodes := range []int{0, 2} {
		eng := sim.NewEngine()
		collector := stats.NewCollector()
		hosts := make([]*routing.Host, nodes)
		models := make([]mobility.Model, nodes)
		for i := range hosts {
			pol, err := policy.ByName("SprayAndWait", rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			proto, _ := routing.ProtocolByName("spray-and-wait")
			hosts[i] = routing.NewHost(routing.HostConfig{ID: i, Nodes: nodes,
				Policy: pol, Proto: proto, Clock: eng.Now, Tracer: collector})
			models[i] = mobility.Static{}
		}
		mgr, err := network.NewManager(eng, network.Config{
			Area: config.RandomWaypoint().Area, Range: 10, Bandwidth: 1, ScanInterval: 1e9,
			Tracer: collector,
		}, hosts, models)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		jsonl := obs.NewJSONL(&buf)
		w := &World{Engine: eng, Hosts: hosts, Manager: mgr, Collector: collector,
			tracer: jsonl, Scenario: config.Scenario{Duration: 10}}
		if err := w.EnableSnapshots(2); err != nil {
			t.Fatal(err)
		}
		eng.Run(10)
		if err := jsonl.Flush(); err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(buf.Bytes(), []byte(`"fill":0,`)); n != 5 {
			t.Fatalf("%d nodes: %d of 5 snapshots with fill 0:\n%s", nodes, n, buf.String())
		}
	}
}
