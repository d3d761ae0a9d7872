package policy

import (
	"fmt"
	"strconv"
	"strings"
	//lint:invariant the mutex only serializes Register calls made before any run starts; no lock is taken on the sim path once factories are frozen
	"sync"

	"sdsrp/internal/rng"
)

// Factory builds a policy instance; stream supplies deterministic
// randomness for policies that need it and may be ignored. world.Build
// calls a registered factory once per host, each time with the host's own
// stream.
type Factory func(stream *rng.Stream) Policy

// The registry is the one deliberate piece of package state on the engine
// path: user policies register once, at program start, before any world is
// built. During a run every access is a read (ByName at construction), so
// worlds running concurrently can never observe a mutation — the event
// stream is independent of it. Registration mid-run would be a caller bug,
// not a determinism leak.
var (
	//lint:invariant write-once before any run; read-only at construction time, never on the event path
	registryMu sync.RWMutex
	//lint:invariant write-once before any run; read-only at construction time, never on the event path
	registry = map[string]Factory{}
)

// Register makes a user-defined policy constructible through ByName (and
// therefore usable from config.Scenario.PolicyName). Built-in names cannot
// be overridden; registering the same name twice is an error.
func Register(name string, f Factory) error {
	if name == "" || f == nil {
		return fmt.Errorf("policy: Register needs a name and a factory")
	}
	if IsBuiltin(name) {
		return fmt.Errorf("policy: %q is a built-in strategy", name)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("policy: %q already registered", name)
	}
	registry[name] = f
	return nil
}

// builtin is the table of built-in strategy names: the fixed names and the
// SDSRP-Taylor<k> family, whose k must be written as strconv.Itoa writes it
// and be at least 1 ("SDSRP-Taylor2x", "SDSRP-Taylor02" and "SDSRP-Taylor0"
// name nothing built in). ByName and IsBuiltin both read it.
func builtin(name string) (Policy, bool) {
	switch name {
	case "SprayAndWait", "FIFO":
		return FIFO{}, true
	case "SprayAndWait-O", "SWO":
		return TTLRatio{}, true
	case "SprayAndWait-C", "SWC":
		return CopiesRatio{}, true
	case "SDSRP":
		return SDSRP{}, true
	case "OracleUtility":
		return OracleUtility{}, true
	case "Knapsack":
		return Knapsack{}, true
	case "DropLargest":
		return DropLargest{}, true
	}
	if suffix, ok := strings.CutPrefix(name, "SDSRP-Taylor"); ok {
		if k, err := strconv.Atoi(suffix); err == nil && k >= 1 && strconv.Itoa(k) == suffix {
			return SDSRPTaylor{K: k}, true
		}
	}
	return nil, false
}

// ByName returns the policy with the given name. Recognized names:
// SprayAndWait (FIFO), SprayAndWait-O, SprayAndWait-C, SDSRP,
// SDSRP-Taylor<k>, OracleUtility, Knapsack, DropLargest, and any registered
// name, whose factory receives stream. Built-in policies ignore stream,
// which may then be nil.
func ByName(name string, stream *rng.Stream) (Policy, error) {
	if p, ok := builtin(name); ok {
		return p, nil
	}
	if p, ok := fromRegistry(name, stream); ok {
		return p, nil
	}
	return nil, fmt.Errorf("policy: unknown strategy %q", name)
}

// IsBuiltin reports whether name names a built-in strategy: exactly the
// names ByName resolves without the registry. Built-in policies are
// stateless values that never draw from their stream, so one instance may
// serve every host of a world; only a registered factory needs a stream per
// host.
func IsBuiltin(name string) bool {
	_, ok := builtin(name)
	return ok
}

// UsesDropList reports whether the named policy relies on the Fig. 5
// dropped-list machinery (SDSRP and its Taylor variants). It goes by the
// name's prefix, so a registered policy named "SDSRP…" gossips too.
func UsesDropList(name string) bool {
	return (len(name) >= 5 && name[:5] == "SDSRP") || name == "Knapsack"
}

// ReadsTruth reports whether the named policy scores with ground
// truth (OracleUtility, or a registered policy whose name starts with
// "Oracle").
func ReadsTruth(name string) bool {
	return strings.HasPrefix(name, "Oracle")
}

func fromRegistry(name string, stream *rng.Stream) (Policy, bool) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, false
	}
	return f(stream), true
}
