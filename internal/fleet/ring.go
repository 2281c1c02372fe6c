package fleet

import (
	"cmp"
	"encoding/binary"
	"math"
	"sort"

	"vbr/internal/core"
	"vbr/internal/server"
)

// defaultRingReplicas is the number of virtual points per worker. 128
// keeps the shard-size spread tight (a few percent) while the ring
// stays a few KiB for any realistic fleet.
const defaultRingReplicas = 128

// Ring consistent-hashes request keys onto worker IDs. It is built
// once for a fleet and never mutated — worker failure is handled by
// walking to the next ring node, not by re-ringing, so a worker's
// shard (and its warm genpool) is stable across its own restarts.
type Ring struct {
	points []ringPoint // sorted by hash
	n      int
}

type ringPoint struct {
	hash   uint64
	worker int
}

// NewRing builds a ring over workers 0..n-1 with the given number of
// virtual points per worker (≤ 0 selects the default).
func NewRing(n, replicas int) *Ring {
	if replicas <= 0 {
		replicas = defaultRingReplicas
	}
	r := &Ring{points: make([]ringPoint, 0, n*replicas), n: n}
	var buf [16]byte
	for w := 0; w < n; w++ {
		for v := 0; v < replicas; v++ {
			binary.LittleEndian.PutUint64(buf[0:8], uint64(w))
			binary.LittleEndian.PutUint64(buf[8:16], uint64(v))
			r.points = append(r.points, ringPoint{hash: fnv1a(buf[:]), worker: w})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Workers reports the fleet size the ring was built for.
func (r *Ring) Workers() int { return r.n }

// Successors returns all workers in ring order starting from key's
// successor point, each exactly once. The first element is the primary
// shard owner; the rest are the failover order, so a dead primary's
// keys spill onto its ring neighbors rather than re-hashing the whole
// key space.
func (r *Ring) Successors(key uint64) []int {
	if r.n == 0 {
		return nil
	}
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	for i := 0; i < len(r.points) && len(out) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.worker] {
			seen[p.worker] = true
			out = append(out, p.worker)
		}
	}
	return out
}

// ModelKey hashes the four model parameters under the same identity
// genpool uses — math.Float64bits, so only exact parameter equality
// collides — ensuring every request that would hit one cache entry
// routes to the worker holding it.
func ModelKey(m core.Model) uint64 {
	var buf [32]byte
	binary.LittleEndian.PutUint64(buf[0:8], math.Float64bits(m.MuGamma))
	binary.LittleEndian.PutUint64(buf[8:16], math.Float64bits(m.SigmaGamma))
	binary.LittleEndian.PutUint64(buf[16:24], math.Float64bits(m.TailSlope))
	binary.LittleEndian.PutUint64(buf[24:32], math.Float64bits(m.Hurst))
	return fnv1a(buf[:])
}

// SpecKey hashes a scenario-zoo model spec for ring routing. A zoo
// request's identity is the spec string itself — not the μΓ/σΓ/m_T/H
// quadruple — so equal specs route to the same worker and keep its
// per-model state hot.
func SpecKey(spec string) uint64 { return fnv1a([]byte(spec)) }

// TraceKey hashes a classic trace request's full cache identity: the
// model quadruple plus the Gaussian backend. Each engine has one
// spelling, so the parameter hashes as given, and an empty one as the
// workers' own default engine. A spelling that names no engine hashes
// like any other — the worker will answer 400, and which worker says so
// does not matter.
func TraceKey(m core.Model, backendParam string) uint64 {
	canon := cmp.Or(backendParam, server.DefaultBackend.String())
	var buf [32]byte
	binary.LittleEndian.PutUint64(buf[0:8], math.Float64bits(m.MuGamma))
	binary.LittleEndian.PutUint64(buf[8:16], math.Float64bits(m.SigmaGamma))
	binary.LittleEndian.PutUint64(buf[16:24], math.Float64bits(m.TailSlope))
	binary.LittleEndian.PutUint64(buf[24:32], math.Float64bits(m.Hurst))
	return fnv1a(append(buf[:], canon...))
}

// fnv1a is the 64-bit FNV-1a hash (stdlib hash/fnv without the
// allocation of the hash.Hash64 interface).
func fnv1a(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
