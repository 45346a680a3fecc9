package transforms

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"

	"dsi/internal/schema"
)

// A compiled Plan is named by its op list's content, the way a ware is
// named by its bytes: opKey writes one canonical encoding of the list,
// the process's plan table keys compiled plans by it, and its hash is
// the plan's Fingerprint. So sessions that configure the same ops in the
// same order share one fingerprint in every process, and one compiled
// Plan within a process.

// Op type tags of the canonical encoding. A new op takes the next tag;
// renumbering one changes every fingerprint.
const (
	tagLogit byte = 1 + iota
	tagBoxCox
	tagOnehot
	tagClamp
	tagGetLocalHour
	tagSigridHash
	tagFirstX
	tagPositiveModulus
	tagEnumerate
	tagMapId
	tagIdListTransform
	tagCartesian
	tagNGram
	tagComputeScore
	tagBucketize
	tagSampling
)

// opKey is the canonical encoder: buf holds the last encoding, keys is
// MapId's sorting scratch. Both keep their capacity across encodes.
type opKey struct {
	buf  []byte
	keys []int64
}

// encode writes the canonical encoding of ops into k.buf: for each op
// its type tag and every configuration field, fixed-width little-endian
// (feature IDs 4 bytes, other integers 8, floats their IEEE bits), a
// slice or map as its length and then its elements, MapId.Mapping in key
// order. Two lists encode equally exactly when they configure the same
// ops in the same order. It returns the first op it has no tag for
// (which has no compiled kernel either), or nil.
func (k *opKey) encode(ops []Op) (unknown Op) {
	b := k.buf[:0]
	for _, op := range ops {
		switch o := op.(type) {
		case *Logit:
			b = appendIDs(append(b, tagLogit), o.In, o.Out)
			b = appendF32(b, o.Eps)
		case *BoxCox:
			b = appendIDs(append(b, tagBoxCox), o.In, o.Out)
			b = appendF64(b, o.Lambda)
		case *Onehot:
			b = appendIDs(append(b, tagOnehot), o.In, o.Out)
			b = appendInt(b, int64(o.Buckets))
			b = appendF32(appendF32(b, o.Min), o.Max)
		case *Clamp:
			b = appendIDs(append(b, tagClamp), o.In, o.Out)
			b = appendF32(appendF32(b, o.Lo), o.Hi)
		case *GetLocalHour:
			b = appendIDs(append(b, tagGetLocalHour), o.In, o.Out)
			b = appendInt(b, int64(o.OffsetMinutes))
		case *SigridHash:
			b = appendIDs(append(b, tagSigridHash), o.In, o.Out)
			b = appendInt(appendInt(b, o.Salt), o.MaxValue)
		case *FirstX:
			b = appendIDs(append(b, tagFirstX), o.In, o.Out)
			b = appendInt(b, int64(o.X))
		case *PositiveModulus:
			b = appendIDs(append(b, tagPositiveModulus), o.In, o.Out)
			b = appendInt(b, o.M)
		case *Enumerate:
			b = appendIDs(append(b, tagEnumerate), o.In, o.Out)
		case *MapId:
			b = appendIDs(append(b, tagMapId), o.In, o.Out)
			k.keys = k.keys[:0]
			for key := range o.Mapping {
				k.keys = append(k.keys, key)
			}
			slices.Sort(k.keys)
			b = appendInt(b, int64(len(k.keys)))
			for _, key := range k.keys {
				b = appendInt(appendInt(b, key), o.Mapping[key])
			}
			b = appendInt(b, o.Default)
		case *IdListTransform:
			b = appendIDs(append(b, tagIdListTransform), o.A, o.B, o.Out)
		case *Cartesian:
			b = appendIDs(append(b, tagCartesian), o.A, o.B, o.Out)
			b = appendInt(b, int64(o.MaxOutput))
		case *NGram:
			b = appendIDs(append(b, tagNGram), o.In, o.Out)
			b = appendInt(b, int64(o.N))
		case *ComputeScore:
			b = appendIDs(append(b, tagComputeScore), o.In, o.Out)
			b = appendF32(appendF32(b, o.ScaleA), o.BiasB)
		case *Bucketize:
			b = appendIDs(append(b, tagBucketize), o.In, o.Out)
			b = appendInt(b, int64(len(o.Borders)))
			for _, border := range o.Borders {
				b = appendF32(b, border)
			}
		case *Sampling:
			b = append(b, tagSampling)
			b = appendInt(appendF64(b, o.Rate), o.Seed)
		default:
			k.buf = b
			return op
		}
	}
	k.buf = b
	return nil
}

func appendIDs(b []byte, ids ...schema.FeatureID) []byte {
	for _, id := range ids {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	return b
}

func appendInt(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func appendF32(b []byte, v float32) []byte {
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// sum is the 64-bit FNV-1a hash of the last encoding.
func (k *opKey) sum() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range k.buf {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// maxPlans bounds the plan table. A node runs a handful of distinct op
// lists at a time (a tenant per model, three in the multi-tenant
// workloads), so 64 keeps every plan its recent sessions ran, while a
// plan costs under 0.6 KB an op (compiling a 26-op RM1 graph allocates
// 15 KB, transient maps included): a table of 64 plans of 100 ops stays
// under 4 MB.
const maxPlans = 64

// planTable is the process's compiled plans, least recently used first.
// Its lock also serializes compiling, so the workers of a session that
// start together compile its plan once.
type planTable struct {
	mu      sync.Mutex
	key     opKey
	entries []planEntry
}

type planEntry struct {
	sum  uint64
	key  []byte
	plan *Plan
}

var plans planTable

// CompilePlan returns the compiled Plan of the op list. A list whose
// encoding equals one this process compiled before (ops of equal type
// and configuration in the same order) gets that same immutable Plan,
// and compiling it allocates nothing. Otherwise it compiles a private
// copy of the ops — so a caller that later changes its ops cannot change
// another session's plan — and keeps it, evicting the least recently
// used plan past maxPlans. It fails where Graph.CompilePlan documents.
func CompilePlan(ops []Op) (*Plan, error) {
	t := &plans
	t.mu.Lock()
	defer t.mu.Unlock()
	if op := t.key.encode(ops); op != nil {
		return nil, fmt.Errorf("transforms: no compiled kernel for %T", op)
	}
	sum := t.key.sum()
	for i, e := range t.entries {
		if e.sum == sum && bytes.Equal(e.key, t.key.buf) {
			copy(t.entries[i:], t.entries[i+1:])
			t.entries[len(t.entries)-1] = e
			return e.plan, nil
		}
	}
	c, err := (&Graph{ops: cloneOps(ops)}).lowerPlan()
	if err != nil {
		return nil, err
	}
	var digest [8]byte
	binary.BigEndian.PutUint64(digest[:], sum)
	c.p.fingerprint = hex.EncodeToString(digest[:])
	if len(t.entries) == maxPlans {
		t.entries = append(t.entries[:0], t.entries[1:]...)
	}
	t.entries = append(t.entries, planEntry{sum: sum, key: bytes.Clone(t.key.buf), plan: c.p})
	return c.p, nil
}

// cloneOps copies every op, deep for MapId.Mapping and
// Bucketize.Borders, the two configurations held by reference.
func cloneOps(ops []Op) []Op {
	out := make([]Op, len(ops))
	for i, op := range ops {
		switch o := op.(type) {
		case *Logit:
			out[i] = clone(o)
		case *BoxCox:
			out[i] = clone(o)
		case *Onehot:
			out[i] = clone(o)
		case *Clamp:
			out[i] = clone(o)
		case *GetLocalHour:
			out[i] = clone(o)
		case *SigridHash:
			out[i] = clone(o)
		case *FirstX:
			out[i] = clone(o)
		case *PositiveModulus:
			out[i] = clone(o)
		case *Enumerate:
			out[i] = clone(o)
		case *MapId:
			c := clone(o)
			c.Mapping = maps.Clone(o.Mapping)
			out[i] = c
		case *IdListTransform:
			out[i] = clone(o)
		case *Cartesian:
			out[i] = clone(o)
		case *NGram:
			out[i] = clone(o)
		case *ComputeScore:
			out[i] = clone(o)
		case *Bucketize:
			c := clone(o)
			c.Borders = slices.Clone(o.Borders)
			out[i] = c
		case *Sampling:
			out[i] = clone(o)
		}
	}
	return out
}

func clone[T any](o *T) *T {
	c := *o
	return &c
}
