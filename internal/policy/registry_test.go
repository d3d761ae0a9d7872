package policy

import (
	"strings"
	"testing"

	"sdsrp/internal/msg"
	"sdsrp/internal/rng"
)

type constPolicy struct{ v float64 }

func (p constPolicy) Name() string                            { return "Const" }
func (p constPolicy) SendScore(View, *msg.Stored) float64     { return p.v }
func (p constPolicy) DropScore(v View, s *msg.Stored) float64 { return p.v }

func TestRegisterAndResolve(t *testing.T) {
	if err := Register("TestConst", func(*rng.Stream) Policy { return constPolicy{v: 7} }); err != nil {
		t.Fatal(err)
	}
	p, err := ByName("TestConst", rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if p.SendScore(nil, nil) != 7 {
		t.Fatal("registered policy not constructed")
	}
}

func TestRegisterRejectsBuiltinsAndDuplicates(t *testing.T) {
	if err := Register("SDSRP", func(*rng.Stream) Policy { return constPolicy{} }); err == nil {
		t.Fatal("built-in name overridden")
	}
	if err := Register("SDSRP-Taylor9", func(*rng.Stream) Policy { return constPolicy{} }); err == nil {
		t.Fatal("built-in Taylor pattern overridden")
	}
	if err := Register("", nil); err == nil {
		t.Fatal("empty registration accepted")
	}
	if err := Register("TestDup", func(*rng.Stream) Policy { return constPolicy{} }); err != nil {
		t.Fatal(err)
	}
	if err := Register("TestDup", func(*rng.Stream) Policy { return constPolicy{} }); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

// TestBuiltinNames checks the one name table: IsBuiltin holds exactly when
// ByName resolves a name without the registry, for every built-in name and
// for Taylor suffixes that are not canonical positive integers.
func TestBuiltinNames(t *testing.T) {
	for _, c := range []struct {
		name    string
		builtin bool
	}{
		{"SprayAndWait", true}, {"FIFO", true}, {"SprayAndWait-O", true}, {"SWO", true},
		{"SprayAndWait-C", true}, {"SWC", true}, {"SDSRP", true}, {"OracleUtility", true},
		{"Knapsack", true}, {"DropLargest", true}, {"SDSRP-Taylor1", true},
		{"SDSRP-Taylor2", true}, {"SDSRP-Taylor64", true},
		{"SDSRP-Taylor2x", false}, {"SDSRP-Taylor 2", false}, {"SDSRP-Taylor0", false},
		{"SDSRP-Taylor-3", false}, {"SDSRP-Taylor02", false}, {"SDSRP-Taylor+2", false},
		{"SDSRP-Taylor", false}, {"Bogus", false},
	} {
		p, err := ByName(c.name, nil)
		if got := IsBuiltin(c.name); got != c.builtin || (err == nil) != c.builtin {
			t.Errorf("%q: IsBuiltin %v, ByName error %v; want built-in %v", c.name, got, err, c.builtin)
			continue
		}
		if c.builtin && strings.HasPrefix(c.name, "SDSRP-Taylor") && p.Name() != c.name {
			t.Errorf("%q resolved to %s", c.name, p.Name())
		}
	}
}
