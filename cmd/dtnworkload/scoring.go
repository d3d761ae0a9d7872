package main

import (
	"fmt"
	"time"

	"sdsrp/internal/msg"
	"sdsrp/internal/policy"
	"sdsrp/internal/rng"
)

// timedSuffix names the registered wrapper of a policy: "SDSRP~bench"
// scores exactly like "SDSRP" and times every call. The name keeps the
// "SDSRP" prefix that turns on drop-list gossip in world.Build.
const timedSuffix = "~bench"

// scoreStats is the policy layer's work over one policy-wrapped run.
type scoreStats struct {
	sends, drops int
	time         time.Duration
}

// scores accumulates over every wrapped policy instance; runs are
// sequential and single-threaded, so one accumulator serves them all.
var scores scoreStats

// timedPolicy delegates to the named policy and times each score. Every
// timed call includes one clock read.
type timedPolicy struct{ inner policy.Policy }

func (p timedPolicy) Name() string { return p.inner.Name() }

func (p timedPolicy) SendScore(v policy.View, s *msg.Stored) float64 {
	start := time.Now()
	x := p.inner.SendScore(v, s)
	scores.time += time.Since(start)
	scores.sends++
	return x
}

func (p timedPolicy) DropScore(v policy.View, s *msg.Stored) float64 {
	start := time.Now()
	x := p.inner.DropScore(v, s)
	scores.time += time.Since(start)
	scores.drops++
	return x
}

// registerTimed registers name's timed wrapper once and returns its name.
func registerTimed(name string) (string, error) {
	wrapped := name + timedSuffix
	if _, err := policy.ByName(wrapped, rng.New(0)); err == nil {
		return wrapped, nil
	}
	if _, err := policy.ByName(name, rng.New(0)); err != nil {
		return "", err
	}
	err := policy.Register(wrapped, func(s *rng.Stream) policy.Policy {
		inner, err := policy.ByName(name, s)
		if err != nil {
			// The name resolved when it was registered and the registry
			// only grows, so it resolves for every later stream too.
			panic(fmt.Sprintf("policy %q stopped resolving: %v", name, err))
		}
		return timedPolicy{inner}
	})
	return wrapped, err
}
