package transforms

import (
	"bytes"
	"reflect"
	"testing"

	"dsi/internal/schema"
)

// raceEnabled is set by race_test.go in -race builds, where allocation
// counts are not the program's.
var raceEnabled bool

// everyOp returns one valid instance of each op type the DPP session
// spec registers for the wire, each a graph of its own.
func everyOp() []Op {
	return []Op{
		&Logit{In: 1, Out: 2, Eps: 0.01},
		&BoxCox{In: 1, Out: 2, Lambda: 0.5},
		&Onehot{In: 1, Out: 2, Buckets: 16, Min: -3, Max: 3},
		&Clamp{In: 1, Out: 2, Lo: -1, Hi: 1},
		&GetLocalHour{In: 1, Out: 2, OffsetMinutes: 90},
		&SigridHash{In: 1, Out: 2, Salt: 5, MaxValue: 1000},
		&FirstX{In: 1, Out: 2, X: 2},
		&PositiveModulus{In: 1, Out: 2, M: 7},
		&Enumerate{In: 1, Out: 2},
		&MapId{In: 1, Out: 2, Mapping: map[int64]int64{10: 1000, 40: 4000}, Default: -1},
		&IdListTransform{A: 1, B: 3, Out: 2},
		&Cartesian{A: 1, B: 3, Out: 2, MaxOutput: 4},
		&NGram{In: 1, Out: 2, N: 2},
		&ComputeScore{In: 1, Out: 2, ScaleA: 2, BiasB: 1},
		&Bucketize{In: 1, Out: 2, Borders: []float32{-0.5, 0.25, 0.75}},
		&Sampling{Rate: 0.5, Seed: 9},
	}
}

// otherValue sets v, a field of an op, to a second value that still
// compiles.
func otherValue(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int32: // a feature ID: clear of every ID in use
		v.SetInt(v.Int() + 100)
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.125)
	case reflect.Slice: // Bucketize.Borders: one more, past the last
		s := v.Interface().([]float32)
		v.Set(reflect.ValueOf(append(append([]float32(nil), s...), s[len(s)-1]+1)))
	case reflect.Map: // MapId.Mapping: one more pair
		m := map[int64]int64{7: 70}
		for k, x := range v.Interface().(map[int64]int64) {
			m[k] = x
		}
		v.Set(reflect.ValueOf(m))
	default:
		t.Fatalf("no second value for a %s field", v.Kind())
	}
}

func encoding(t *testing.T, ops ...Op) []byte {
	t.Helper()
	var k opKey
	if op := k.encode(ops); op != nil {
		t.Fatalf("%T has no encoding", op)
	}
	return k.buf
}

func fingerprint(t *testing.T, ops ...Op) string {
	t.Helper()
	p, err := CompilePlan(ops)
	if err != nil {
		t.Fatal(err)
	}
	return p.Fingerprint()
}

// TestFingerprintCoversEveryField changes each field of each op type in
// turn: the encoding the plan table trusts and the fingerprint ware IDs
// trust must both change, so no two differently configured ops share a
// plan or a transformed ware.
func TestFingerprintCoversEveryField(t *testing.T) {
	ops := everyOp()
	if len(ops) != int(tagSampling) {
		t.Fatalf("%d op types under test, %d encoding tags", len(ops), tagSampling)
	}
	tags := map[byte]bool{}
	for _, op := range ops {
		base := encoding(t, op)
		if tags[base[0]] {
			t.Fatalf("%s shares tag %d", op.Name(), base[0])
		}
		tags[base[0]] = true
		baseFP := fingerprint(t, op)
		typ := reflect.TypeOf(op).Elem()
		for i := range typ.NumField() {
			changed := reflect.New(typ)
			changed.Elem().Set(reflect.ValueOf(op).Elem())
			otherValue(t, changed.Elem().Field(i))
			other := changed.Interface().(Op)
			if bytes.Equal(encoding(t, other), base) {
				t.Errorf("%s.%s: encoding unchanged", op.Name(), typ.Field(i).Name)
			}
			if fingerprint(t, other) == baseFP {
				t.Errorf("%s.%s: fingerprint unchanged", op.Name(), typ.Field(i).Name)
			}
		}
	}
}

// TestFingerprintIgnoresMapOrder: two MapIds whose maps were filled in
// opposite orders configure the same op.
func TestFingerprintIgnoresMapOrder(t *testing.T) {
	up, down := map[int64]int64{}, map[int64]int64{}
	for k := int64(0); k < 64; k++ {
		up[k] = k * 3
		down[63-k] = (63 - k) * 3
	}
	a := &MapId{In: 2, Out: 114, Mapping: up, Default: -1}
	b := &MapId{In: 2, Out: 114, Mapping: down, Default: -1}
	if !bytes.Equal(encoding(t, a), encoding(t, b)) {
		t.Fatal("equal MapIds encode differently")
	}
	if fingerprint(t, a) != fingerprint(t, b) {
		t.Fatal("equal MapIds fingerprint differently")
	}
}

// TestFingerprintPinned pins one graph's fingerprint as a literal, so it
// names the same plan in every process and release. A change to the
// encoding moves it, and every transformed ware ID with it.
func TestFingerprintPinned(t *testing.T) {
	g := StandardGraph([]schema.FeatureID{1, 4}, []schema.FeatureID{2, 3}, 6, 1000)
	g.Add(&Sampling{Rate: 0.5, Seed: 9})
	p, err := g.CompilePlan()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Fingerprint(), "e341779071bac319"; got != want {
		t.Fatalf("fingerprint = %s, want %s", got, want)
	}
}

// tableOps is an op list of every kind of configuration the table copies:
// a map, a slice and plain fields.
func tableOps() []Op {
	return []Op{
		&Bucketize{In: 1, Out: 106, Borders: []float32{-0.5, 0.25, 0.75}},
		&MapId{In: 2, Out: 114, Mapping: map[int64]int64{10: 1000, 40: 4000}, Default: -1},
		&SigridHash{In: 3, Out: 110, Salt: 5, MaxValue: 1000},
	}
}

// TestPlanTableAllocs pins the plan table, its allocation-free hit
// included, so both the allocation pins and the race suite run it.
func TestPlanTableAllocs(t *testing.T) {
	t.Run("SharesEqualOpLists", planTableSharesEqualOpLists)
	t.Run("EvictsLeastRecentlyUsed", planTableEvictsLeastRecentlyUsed)
	t.Run("HitAllocatesNothing", planTableHitAllocatesNothing)
}

// planTableSharesEqualOpLists: op lists that are equal but distinct
// values compile to one Plan, a changed field to another, and a caller
// that changes its ops after compiling cannot change the shared plan.
func planTableSharesEqualOpLists(t *testing.T) {
	ops := tableOps()
	p, err := CompilePlan(ops)
	if err != nil {
		t.Fatal(err)
	}
	if q, err := CompilePlan(tableOps()); err != nil || q != p {
		t.Fatalf("an equal op list compiled to %p (%v), want the shared %p", q, err, p)
	}
	changed := tableOps()
	changed[2].(*SigridHash).Salt++
	if q, err := CompilePlan(changed); err != nil || q == p || q.Fingerprint() == p.Fingerprint() {
		t.Fatalf("a changed salt compiled to %p (%v), the shared plan is %p", q, err, p)
	}

	want := copyBatch(parityBatch())
	if _, err := p.Run(want, nil); err != nil {
		t.Fatal(err)
	}
	ops[0].(*Bucketize).Borders[0] = 0.5
	ops[1].(*MapId).Mapping[10] = 7
	ops[1].(*MapId).Mapping[20] = 8
	ops[2].(*SigridHash).MaxValue = 10
	got := copyBatch(parityBatch())
	if _, err := p.Run(got, nil); err != nil {
		t.Fatal(err)
	}
	requireBatchEqual(t, want, got)
	if q, err := CompilePlan(tableOps()); err != nil || q != p {
		t.Fatalf("after the caller's change the original op list compiled to %p (%v), want %p", q, err, p)
	}
}

// planTableEvictsLeastRecentlyUsed: the table never holds more than
// maxPlans plans, and past that it drops the one compiled or hit
// longest ago.
func planTableEvictsLeastRecentlyUsed(t *testing.T) {
	salted := func(salt int64) []Op {
		return []Op{&SigridHash{In: 2, Out: 100, Salt: salt, MaxValue: 1 << 40}}
	}
	compile := func(salt int64) *Plan {
		t.Helper()
		p, err := CompilePlan(salted(salt))
		if err != nil {
			t.Fatal(err)
		}
		plans.mu.Lock()
		n := len(plans.entries)
		plans.mu.Unlock()
		if n > maxPlans {
			t.Fatalf("the table holds %d plans, bound %d", n, maxPlans)
		}
		return p
	}
	const base = 1 << 40 // salts no other test uses
	oldest, kept := compile(base), compile(base+1)
	for s := int64(2); s < maxPlans; s++ {
		compile(base + s)
	}
	if compile(base+1) != kept { // a hit: kept becomes the most recent
		t.Fatal("a resident plan was compiled again")
	}
	compile(base + maxPlans) // one past the bound evicts oldest
	if compile(base+1) != kept {
		t.Fatal("the plan hit last was evicted")
	}
	if compile(base) == oldest {
		t.Fatal("the least recently used plan is still resident past the bound")
	}
}

// planTableHitAllocatesNothing: compiling an op list the table holds
// encodes it into the table's scratch, hashes and compares it, and
// allocates nothing.
func planTableHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ops := StandardGraph([]schema.FeatureID{1, 4}, []schema.FeatureID{2, 3}, 6, 1000).Ops()
	ops = append(ops, tableOps()...)
	p, err := CompilePlan(ops)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if q, _ := CompilePlan(ops); q != p {
			t.Fatal("a hit returned another plan")
		}
	})
	if allocs > 0 {
		t.Fatalf("a plan table hit allocates %.1f times, want 0", allocs)
	}
}
