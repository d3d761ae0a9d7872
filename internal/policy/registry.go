package policy

import (
	"fmt"
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

// IsBuiltin reports whether name names a built-in strategy: one of
// ByName's fixed names or the SDSRP-Taylor<k> family. Built-in policies are
// stateless values that never draw from their stream, so one instance may
// serve every host of a world; only a registered factory needs a stream per
// host.
func IsBuiltin(name string) bool {
	switch name {
	case "SprayAndWait", "FIFO", "SprayAndWait-O", "SWO", "SprayAndWait-C", "SWC",
		"SDSRP", "OracleUtility", "Knapsack", "DropLargest":
		return true
	}
	var k int
	n, _ := fmt.Sscanf(name, "SDSRP-Taylor%d", &k)
	return n == 1
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
