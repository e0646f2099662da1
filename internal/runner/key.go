package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// SuiteVersion is folded into every cache key. Bump it whenever simulator
// semantics change in a way that alters experiment results (coherence
// protocol, miss classification, traffic accounting, PRAM timing, or any
// program's reference stream): old cache entries then simply stop
// matching and experiments are recomputed — there is no explicit cache
// invalidation step.
const SuiteVersion = "splash2-suite-v7" // v7: logical-time execution

// Key is the content address of one experiment: the SHA-256 of the suite
// version, the experiment kind, and the canonical JSON encoding of every
// identity part (program name, option overrides, machine configuration).
// JSON is canonical here because encoding/json sorts map keys, so two
// equal option maps always hash identically. The zero Key marks a job as
// uncacheable and exempt from deduplication.
type Key struct {
	ok  bool
	sum [sha256.Size]byte
}

// KeyOf builds a key from an experiment kind and its identity parts.
// Parts must be JSON-encodable; a failure to encode is a programming
// error and panics.
func KeyOf(kind string, parts ...any) Key {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", SuiteVersion, kind)
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			panic(fmt.Sprintf("runner: unencodable key part %T: %v", p, err))
		}
	}
	k := Key{ok: true}
	h.Sum(k.sum[:0])
	return k
}

// IsZero reports whether the key is the zero (uncacheable) key.
func (k Key) IsZero() bool { return !k.ok }

// String returns the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k.sum[:]) }
