// Package fingerprint derives a canonical cross-run identity for a
// potential deadlock cycle — the abstraction-based defect identity of
// DeadlockFuzzer (Joshi et al., PLDI 2009) applied to WOLF's detected
// cycles.
//
// The same defect manifests in many executions under different thread
// ordinals, lock instances, schedule seeds and cycle rotations. A
// fingerprint abstracts each cycle edge down to what survives across
// runs — the creation-site abstraction of the acquiring thread, the
// allocation-site abstraction of the wanted lock, the source location of
// the deadlocking acquisition, and the source locations of the
// acquisitions on the thread's lock stack (in stack order) — then sorts
// the abstracted edges and hashes them. Two cycles recorded in different
// executions of the same program point collapse to one fingerprint;
// unrelated cycles collide only if SHA-256 does.
//
// Fingerprints are strictly finer than the paper's source-location
// signatures (detect.Cycle.Signature): a signature ignores which thread
// abstraction performed each acquisition and what it already held, so
// two different interleaving patterns over the same sites share a
// signature but may carry distinct fingerprints. The corpus
// (internal/store) aggregates defect records by fingerprint.
package fingerprint

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"

	"wolf/internal/detect"
)

// version salts the hash so a future change to the abstraction cannot
// silently collide with records written by an older scheme.
const version = "wolf-fp-v1"

// Edge is the cross-run abstraction of one cycle edge: thread t, holding
// the locks acquired at Stack, blocks acquiring Lock at Site.
type Edge struct {
	// Thread is the creation-site abstraction of the acquiring thread
	// (per-parent ordinals stripped: "main/w.3" → "main/w").
	Thread string `json:"thread"`
	// Lock is the allocation-site abstraction of the wanted lock.
	Lock string `json:"lock"`
	// Site is the source location of the deadlocking acquisition.
	Site string `json:"site"`
	// Stack holds the source locations of the acquisitions in the
	// thread's lockset, innermost last — the positions on the acquisition
	// stack that establish the hold-and-wait context.
	Stack []string `json:"stack,omitempty"`
}

// canon renders the edge as a canonical string. Unit separator bytes
// keep "a|b"+"c" and "a"+"b|c" distinct no matter what sites contain.
func (e Edge) canon() string {
	return e.Thread + "\x1f" + e.Lock + "\x1f" + e.Site + "\x1f" + strings.Join(e.Stack, "\x1e")
}

// Edges abstracts every edge of the cycle (see Edge) and sorts them
// canonically, so the result is invariant under cycle rotation and
// thread renaming.
func Edges(c *detect.Cycle) []Edge {
	out := make([]Edge, len(c.Tuples))
	for i, tp := range c.Tuples {
		out[i] = Edge{Thread: ThreadAbs(tp.Thread), Lock: LockAbs(tp.Lock), Site: tp.Site}
		if len(tp.Held) > 0 {
			out[i].Stack = make([]string, len(tp.Held))
			for j, h := range tp.Held {
				out[i].Stack[j] = h.Site
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].canon() < out[j].canon() })
	return out
}

// Of returns the cycle's fingerprint: the SHA-256 of its sorted edge
// abstractions, hex encoded. Per-run identities — thread ordinals, lock
// instances, execution indices, occurrence counters, tuple order — do
// not influence the hash.
func Of(c *detect.Cycle) string { return Hash(Edges(c)) }

// Hash returns the fingerprint of a cycle whose sorted edge
// abstractions (Edges) are edges.
func Hash(edges []Edge) string {
	h := sha256.New()
	h.Write([]byte(version))
	for _, e := range edges {
		h.Write([]byte{'\n'})
		h.Write([]byte(e.canon()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Short abbreviates a fingerprint for logs and tables. Full fingerprints
// remain the only keys the store and the API accept.
func Short(fp string) string {
	if len(fp) <= 12 {
		return fp
	}
	return fp[:12]
}

// ThreadAbs returns the creation-site abstraction of a thread name:
// per-parent ordinals are stripped, so "main/w.0" and "main/w.1" share
// the abstraction "main/w". Threads created at the same program point
// are indistinguishable under the abstraction.
func ThreadAbs(name string) string {
	segs := strings.Split(name, "/")
	for i, s := range segs {
		segs[i] = stripOrdinal(s)
	}
	return strings.Join(segs, "/")
}

// LockAbs returns the allocation-site abstraction of a lock name.
// Convention: an explicit "#instance" suffix marks same-site instances
// ("mutex#SM1" and "mutex#SM2" share abstraction "mutex"), and locks
// allocated by threads ("base@thread.k") collapse their allocation
// ordinal and the allocating thread's ordinals.
func LockAbs(name string) string {
	if i := strings.IndexByte(name, '#'); i >= 0 {
		return name[:i]
	}
	if i := strings.LastIndexByte(name, '@'); i >= 0 {
		return name[:i] + "@" + ThreadAbs(stripOrdinal(name[i+1:]))
	}
	return name
}

// stripOrdinal removes a trailing ".<digits>" from s.
func stripOrdinal(s string) string {
	i := strings.LastIndexByte(s, '.')
	if i < 0 || i == len(s)-1 {
		return s
	}
	for _, c := range s[i+1:] {
		if c < '0' || c > '9' {
			return s
		}
	}
	return s[:i]
}
