package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"sdsrp/internal/config"
)

// Digest returns the content address of a scenario: a SHA-256 hex digest
// over its canonical serialization. Two scenarios share a digest iff they
// would simulate identically, so the digest keys the run journal, result
// caches, and any future service-layer deduplication. How the contact
// scan works is not a field (every run scans the same way), so runs that
// would differ only in how they scan share a digest.
//
// Canonicalization rules (the byte-stability discipline of internal/bench):
//
//   - the serialization is encoding/json over config.Scenario, whose keys
//     follow struct declaration order — deterministic, map-free, and
//     timestamp-free;
//   - float64 fields use Go's shortest round-trip formatting, so two equal
//     bit patterns always serialize identically (scenario fields are finite
//     by validation, so the non-finite JSON gap cannot bite);
//   - every scenario field participates, including Name, Seed, PolicyName,
//     and MaxEvents. Mutating any field — or adding one to the struct —
//     changes the digest, which conservatively forces a re-run rather than
//     ever serving a stale cached result.
func Digest(sc config.Scenario) (string, error) {
	data, err := json.Marshal(sc)
	if err != nil {
		return "", fmt.Errorf("experiment: digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
