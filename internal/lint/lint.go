// Package lint is dtnlint's engine: a stdlib-only static-analysis suite
// that machine-checks the simulator's determinism, error-handling,
// hot-path, and shard-safety invariants (same seed ⇒ byte-identical
// results, also while the experiment runner runs many worlds concurrently
// in one process).
//
// The suite is built from go/parser, go/ast, go/types, and go/token alone,
// preserving the module's zero-external-dependency constraint. Eleven
// checks run over every non-test file of every package in the module:
//
//   - no-wallclock: time.Now / time.Since are forbidden outside an explicit
//     perf-timing allowlist. Simulated time must be injected.
//   - rng-discipline: math/rand and math/rand/v2 may be imported only by
//     internal/rng; all randomness flows through seeded rng.Stream splits.
//   - no-panic: panic(...) in internal/ library packages must either carry
//     a //lint:invariant <reason> annotation (unreachable-invariant guard)
//     or be converted to an error return.
//   - ordered-map-emit: a `for … range <map>` loop must not emit (Emit,
//     Write*, fmt print family) in iteration order, and may append to an
//     outer slice only when that slice is sorted afterwards in the same
//     function (the collect-keys-then-sort idiom).
//   - float-eq: == / != on floating-point operands in the score-math
//     packages (internal/policy, internal/buffer); exact comparisons there
//     are almost always a tie-break that needs an explicit annotation.
//   - hot-dist: scalar Euclidean distances (a Dist method call or
//     math.Hypot) in the per-tick hot-path packages; radius comparisons
//     there must use squared distances (geo.Point.Dist2 against r·r) — a
//     square root per pair per tick dominated the scanner profile before
//     the lazy sweep. Legitimate scalar uses (canonical definitions,
//     parse-time bounds) carry a //lint:ignore hot-dist annotation.
//
// Five shard-safety checks certify that the engine-path packages keep every
// world's state its own, so worlds the experiment runner runs concurrently
// in one process neither race nor perturb each other (DESIGN.md §11):
//
//   - shared-mutable: package-level mutable state (vars, non-const maps or
//     slices, settable singletons) in an engine-path package. Every world
//     in the process shares it, so concurrent runs race on it; state must
//     live in constructed per-run structs. Sentinel errors (error-typed
//     Err* vars) and blank interface-compliance assertions are exempt by
//     shape.
//   - no-conc-sim: go statements, channel operations, select, channel
//     types, and sync / sync/atomic imports anywhere in the deterministic
//     sim path. A world's event loop runs on one goroutine; the experiment
//     fan-out (whole worlds in parallel), bench harness, obs sinks, and
//     CLIs are allowlisted. The one sanctioned in-run concurrency is the
//     run-ahead contact scan (internal/network/ahead.go): a motion-only
//     world's scanner runs ahead of the event loop on a second goroutine
//     and hands it whole ticks one way, and its sync import and go
//     statement carry //lint:invariant annotations.
//   - rng-escape: an *rng.Stream / *rng.Source substream must not be
//     captured by a closure that outlives the statement (stored in a
//     struct field, returned, or handed to a non-constructor call) and
//     must not be stored into a struct field outside a constructor —
//     the ownership discipline that keeps each draw sequence seed-pure.
//   - map-order-flow: extends ordered-map-emit from emission sites to
//     state flow. Inside a map-range body: floating-point accumulation
//     into outer state, order-dependent assignments to outer state
//     (last-writer-wins, argmax), and event-scheduling calls (At / After /
//     Every / Push / Schedule) are all map-order-dependent; sort the keys
//     first. Per-key updates (outer[k] = v keyed by the loop variable) and
//     associative integer counters are exempt by shape.
//   - alloc-hot: composite-literal heap allocations, make, fresh-slice
//     append growth, and interface boxing inside functions that carry a
//     "Performance contract" doc comment in the hot-path packages
//     (internal/geo, eventq, policy, buffer). The PR-4 contracts promise
//     steady-state allocation-free operation; this check keeps the promise
//     machine-verified.
//
// A package that passes the shard-safety checks can declare it with a
// `//lint:shard-safe <reason>` comment; Coverage reports which engine
// packages are certified and how many annotated exemptions each carries.
//
// Findings can be suppressed with a `//lint:ignore <check> <reason>`
// comment on the flagged line or the line above it; shard-safety findings
// also accept a `//lint:invariant <reason>` annotation for deliberate,
// explained touchpoints. Malformed or unknown-check directives are
// themselves reported (check "lint-directive"), so a typo cannot silently
// disable enforcement.
//
// Diagnostics are emitted in a deterministic order (file, line, column,
// check, message) with module-relative slash-separated paths, so the tool's
// own output is byte-stable run to run — the same property it enforces.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// CheckInfo is one registry entry: a check name and its one-line
// description, printed by `dtnlint -list` and embedded in -json reports.
type CheckInfo struct {
	Name string `json:"name"`
	Doc  string `json:"doc"`
}

// Checks is the registry of every check in the suite, in documentation
// order. "lint-directive" (malformed suppression comments) always runs and
// is listed last.
var Checks = []CheckInfo{
	{"no-wallclock", "time.Now/time.Since outside the perf-timing allowlist; inject simulated time"},
	{"rng-discipline", "math/rand import outside internal/rng; use injected rng.Stream substreams"},
	{"no-panic", "panic in library code without a //lint:invariant unreachable-guard annotation"},
	{"ordered-map-emit", "map-range loop emitting or collecting in randomized iteration order"},
	{"float-eq", "bare ==/!= on floats in score math; use an epsilon or annotate the tie-break"},
	{"hot-dist", "scalar Euclidean distance on the scan path; compare squared distances"},
	{"shared-mutable", "package-level mutable state in an engine package; concurrent worlds would race on it"},
	{"no-conc-sim", "goroutine/channel/sync use inside the deterministic sim path"},
	{"rng-escape", "RNG substream escaping its owning subsystem outside a constructor"},
	{"map-order-flow", "map-iteration order flowing into engine state, scheduling, or float sums"},
	{"alloc-hot", "allocation or interface boxing inside a Performance-contract hot function"},
}

// CheckNames lists every check name in the suite, in documentation order,
// derived from the Checks registry.
var CheckNames = func() []string {
	names := make([]string, len(Checks))
	for i, c := range Checks {
		names[i] = c.Name
	}
	return names
}()

// KnownCheck reports whether name is a check of the suite (including the
// implicit directive validator).
func KnownCheck(name string) bool {
	if name == "lint-directive" {
		return true
	}
	for _, c := range CheckNames {
		if c == name {
			return true
		}
	}
	return false
}

// Config scopes the checks to the right parts of a module. Scope entries
// are module-relative slash-separated paths: an entry matches a file when
// it equals the file path exactly or is a directory prefix of it ("cmd"
// matches cmd/dtnsim/main.go). An empty scope list means "everywhere" for
// applies-where scopes and "nowhere" for allowlists, so the zero Config is
// the strictest configuration — what the fixture tests use.
type Config struct {
	// Checks selects a subset of checks by name; empty runs the full suite.
	Checks []string
	// WallclockAllow lists files and directories where time.Now/time.Since
	// are legitimate (real perf timing, CLI progress output).
	WallclockAllow []string
	// RNGExempt lists packages allowed to import math/rand[/v2] — the
	// seeded-stream wrapper itself.
	RNGExempt []string
	// PanicScope limits no-panic to these directories; empty = everywhere.
	PanicScope []string
	// FloatEqScope limits float-eq to these directories; empty = everywhere.
	FloatEqScope []string
	// HotDistScope limits hot-dist to these directories; empty = everywhere.
	// The default config lists the packages executed every scan tick.
	HotDistScope []string
	// EngineScope limits the shard-safety state checks (shared-mutable,
	// rng-escape, map-order-flow) to these directories; empty = everywhere.
	// The default config lists every package a world's engine runs on.
	EngineScope []string
	// ConcAllow lists packages where goroutines, channels, and sync are
	// legitimate (the experiment fan-out, bench harness, obs sinks, CLIs).
	// no-conc-sim runs everywhere else; an empty list exempts nothing.
	ConcAllow []string
	// AllocHotScope limits alloc-hot to these directories; empty =
	// everywhere. Within scope only functions whose doc comment carries a
	// "Performance contract" marker are analyzed.
	AllocHotScope []string
}

// DefaultConfig returns the scoping for this repository: the allowlist and
// scopes named in the determinism-invariants section of DESIGN.md.
func DefaultConfig() Config {
	return Config{
		WallclockAllow: []string{
			"internal/sim/sim.go",           // engine wall-clock perf counter
			"internal/experiment/runner.go", // batch ETA accounting
			"internal/bench",                // benchmark harness measurement
			"cmd",                           // CLI progress and timing output
		},
		RNGExempt:    []string{"internal/rng"},
		PanicScope:   []string{"internal"},
		FloatEqScope: []string{"internal/policy", "internal/buffer"},
		HotDistScope: []string{
			"internal/geo",
			"internal/mobility",
			"internal/network",
			"internal/policy",
			"internal/routing",
		},
		EngineScope: []string{
			"internal/sim",
			"internal/world",
			"internal/network",
			"internal/routing",
			"internal/policy",
			"internal/buffer",
			"internal/mobility",
			"internal/geo",
			"internal/eventq",
			"internal/fault",
			"internal/msg",
			"internal/rng",
		},
		ConcAllow: []string{
			"internal/experiment", // worker fan-out across whole runs
			"internal/bench",      // harness measurement plumbing
			"internal/obs",        // sink side of the event stream
			"cmd",                 // CLI signal handling and progress
		},
		AllocHotScope: []string{
			"internal/geo",
			"internal/eventq",
			"internal/policy",
			"internal/buffer",
		},
	}
}

func (c Config) wants(check string) bool {
	if len(c.Checks) == 0 {
		return true
	}
	for _, n := range c.Checks {
		if n == check {
			return true
		}
	}
	return false
}

// inScope reports whether the module-relative path matches any entry.
func inScope(rel string, entries []string) bool {
	for _, e := range entries {
		e = strings.TrimSuffix(e, "/")
		if rel == e || strings.HasPrefix(rel, e+"/") {
			return true
		}
	}
	return false
}

// Diagnostic is one finding, addressed by module-relative position.
type Diagnostic struct {
	File  string `json:"file"` // slash-separated, relative to the module root
	Line  int    `json:"line"`
	Col   int    `json:"col"`
	Check string `json:"check"`
	Msg   string `json:"msg"`
}

// String formats the finding as path:line:col: [check] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Msg)
}

// sortDiagnostics orders findings deterministically: file, line, column,
// check name, message.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
}

// Pass hands one package to one check and collects its findings.
type Pass struct {
	Pkg   *Package
	Cfg   Config
	diags *[]Diagnostic
	fset  *token.FileSet
}

// reportf records a finding at pos.
func (p *Pass) reportf(pos token.Pos, check, format string, args ...any) {
	position := p.fset.Position(pos)
	rel := p.Pkg.relFile(position.Filename)
	*p.diags = append(*p.diags, Diagnostic{
		File:  rel,
		Line:  position.Line,
		Col:   position.Column,
		Check: check,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// Run executes the configured checks over every package of m and returns
// the surviving findings in deterministic order. Suppressed findings are
// dropped; malformed directives are reported as lint-directive findings.
func Run(m *Module, cfg Config) []Diagnostic {
	var diags []Diagnostic
	checks := []struct {
		name string
		fn   func(*Pass)
	}{
		{"no-wallclock", checkWallclock},
		{"rng-discipline", checkRNGDiscipline},
		{"no-panic", checkNoPanic},
		{"ordered-map-emit", checkMapEmit},
		{"float-eq", checkFloatEq},
		{"hot-dist", checkHotDist},
		{"shared-mutable", checkSharedMutable},
		{"no-conc-sim", checkNoConcSim},
		{"rng-escape", checkRNGEscape},
		{"map-order-flow", checkMapOrderFlow},
		{"alloc-hot", checkAllocHot},
	}
	for _, pkg := range m.Pkgs {
		pass := &Pass{Pkg: pkg, Cfg: cfg, diags: &diags, fset: m.Fset}
		for _, c := range checks {
			if cfg.wants(c.name) {
				c.fn(pass)
			}
		}
		diags = append(diags, pkg.directiveProblems...)
	}
	diags = applySuppressions(m, diags)
	sortDiagnostics(diags)
	return diags
}

// applySuppressions drops findings covered by a lint:ignore directive on
// the same line or the line above.
func applySuppressions(m *Module, diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if d.Check != "lint-directive" && m.suppressed(d) {
			continue
		}
		out = append(out, d)
	}
	return out
}

func (m *Module) suppressed(d Diagnostic) bool {
	for _, pkg := range m.Pkgs {
		lines, ok := pkg.ignores[d.File]
		if !ok {
			continue
		}
		for _, ln := range []int{d.Line, d.Line - 1} {
			for _, dir := range lines[ln] {
				for _, c := range dir.checks {
					if c == d.Check {
						return true
					}
				}
			}
		}
	}
	return false
}
