package transforms

import (
	"math"
	"math/big"
	"slices"
	"testing"
	"testing/quick"

	"dsi/internal/datagen"
	"dsi/internal/schema"
)

// TestHashKnownAnswers pins hash64 and SigridHash's reduction on fixed
// inputs. A change to the kernel moves every hashed feature value, so it
// must re-record these on purpose.
func TestHashKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		parts []int64
		want  int64
	}{
		{[]int64{0}, 2302960717771869484},
		{[]int64{1}, 9083250235034708254},
		{[]int64{-1}, 6915714134373198984},
		{[]int64{math.MinInt64}, 5740032634975273783},
		{[]int64{math.MaxInt64}, 1131736196046723760},
		{[]int64{12345, 67890}, 9032826897189353329},
	} {
		if got := hash64(c.parts...); got != c.want {
			t.Errorf("hash64(%v) = %d, want %d", c.parts, got, c.want)
		}
	}
	for _, c := range []struct{ v, salt, m, want int64 }{
		{0, 0, 1 << 20, 216367},
		{1, 7, 1 << 20, 333602},
		{-1, 7, 1 << 10, 217},
		{math.MinInt64, 3, math.MaxInt64, 3429061480759116102},
		{math.MaxInt64, 3, 1000, 263},
	} {
		if got := sigridBucket(c.v, c.salt, c.m); got != c.want {
			t.Errorf("sigridBucket(%d, %d, %d) = %d, want %d", c.v, c.salt, c.m, got, c.want)
		}
	}
}

// Property: positiveMod is the Euclidean remainder math/big computes, for
// every int64 v and positive m — including m above MaxInt64/2, where
// ((v % m) + m) % m wraps.
func TestPositiveModulusMatchesBigInt(t *testing.T) {
	want := func(v, m int64) int64 {
		return new(big.Int).Mod(big.NewInt(v), big.NewInt(m)).Int64()
	}
	// m is the high bits of a random word shifted right by 0..62, or
	// within 1024 of MaxInt64.
	f := func(v, m int64, shift uint8, nearMax bool) bool {
		m = int64(uint64(m) >> 1 >> (shift % 63))
		if nearMax {
			m = math.MaxInt64 - m%1024
		}
		m = max(m, 1)
		return positiveMod(v, m) == want(v, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]int64{
		{math.MaxInt64 - 2, math.MaxInt64 - 1},
		{math.MinInt64, math.MaxInt64},
		{-1, math.MaxInt64},
		{math.MaxInt64, math.MaxInt64},
		{math.MinInt64, 1},
	} {
		if got := positiveMod(c[0], c[1]); got != want(c[0], c[1]) {
			t.Errorf("positiveMod(%d, %d) = %d, want %d", c[0], c[1], got, want(c[0], c[1]))
		}
	}
}

// TestHashQuality holds the ID hash to what a uniformly random function
// does on the IDs of the benchmark's data shape, RM1 at scale 0.01, at
// the default ID cardinality and at 4096. The reference is a random
// function, not FNV: on these small structured IDs FNV-1a collides less
// than a random function would and fills buckets too evenly, so "no worse
// than FNV" would reject every uniform hash.
func TestHashQuality(t *testing.T) {
	for _, card := range []uint64{0, 4096} {
		ids, pairs, grams := hashInputs(card, 2000)
		kinds := []struct {
			name   string
			keys   [][2]int64
			bucket func(h, m int64) int64
			hashes []int64
		}{
			// StandardGraph's reductions: NGram feeds PositiveModulus,
			// Cartesian feeds SigridHash.
			{name: "bigram", keys: grams, bucket: positiveMod},
			{name: "cartesian", keys: pairs, bucket: func(h, m int64) int64 { return sigridBucket(h, 0, m) }},
		}
		for i := range kinds {
			k := &kinds[i]
			for _, key := range k.keys {
				k.hashes = append(k.hashes, hash64(key[0], key[1]))
			}
			sorted := slices.Clone(k.hashes)
			slices.Sort(sorted)
			if d := len(sorted) - len(slices.Compact(sorted)); d != 0 {
				t.Errorf("card %d: %d of %d distinct %ss share a 63-bit hash", card, d, len(sorted), k.name)
			}
		}
		for _, m := range []int64{1 << 10, 1 << 20} {
			counts := make([]int, m)
			for _, in := range ids {
				counts[sigridBucket(in.v, in.salt, m)]++
			}
			z := chiSquareZ(counts, len(ids))
			t.Logf("card %d, m %d: SigridHash of %d distinct IDs, chi-square z %.2f", card, m, len(ids), z)
			if math.Abs(z) > 4 {
				t.Errorf("card %d, m %d: SigridHash chi-square z = %.2f, want |z| <= 4", card, m, z)
			}
			for _, k := range kinds {
				buckets := make([]int64, len(k.hashes))
				for i, h := range k.hashes {
					buckets[i] = k.bucket(h, m)
				}
				got, want := bucketCollisions(buckets, m)
				t.Logf("card %d, m %d: %d distinct %ss, %d bucket collisions, random function %.0f", card, m, len(buckets), k.name, got, want)
				if math.Abs(float64(got)-want) > 0.05*want {
					t.Errorf("card %d, m %d: %d %s bucket collisions, want %.0f ± 5%%", card, m, got, k.name, want)
				}
			}
		}
	}
}

// saltedID is one SigridHash input: an ID and its feature's salt.
type saltedID struct{ v, salt int64 }

// hashInputs draws rows of RM1 at scale 0.01 and returns the distinct
// SigridHash inputs (each sparse ID salted by its feature, as
// StandardGraph salts), the distinct Cartesian pairs of each two
// neighbouring sparse features of a row (the first pairCap IDs of each)
// and the distinct bigrams of each sparse list.
func hashInputs(card uint64, rows int) (ids []saltedID, pairs, grams [][2]int64) {
	const pairCap = 8
	spec := datagen.RM1.Scale(0.01, 1, 0)
	spec.SparseCardinality = card
	gen := datagen.NewGenerator(spec, 32)
	seenID := make(map[saltedID]bool)
	seenPair := make(map[[2]int64]bool)
	seenGram := make(map[[2]int64]bool)
	var feats []schema.FeatureID
	for r := 0; r < rows; r++ {
		s := gen.Sample()
		feats = feats[:0]
		for id := range s.SparseFeatures {
			feats = append(feats, id)
		}
		slices.Sort(feats)
		var prev []int64
		for _, id := range feats {
			vals := s.SparseFeatures[id]
			for j, v := range vals {
				if k := (saltedID{v, int64(id)}); !seenID[k] {
					seenID[k] = true
					ids = append(ids, k)
				}
				if j > 0 {
					if k := [2]int64{vals[j-1], v}; !seenGram[k] {
						seenGram[k] = true
						grams = append(grams, k)
					}
				}
			}
			for _, x := range prev[:min(len(prev), pairCap)] {
				for _, y := range vals[:min(len(vals), pairCap)] {
					if k := [2]int64{x, y}; !seenPair[k] {
						seenPair[k] = true
						pairs = append(pairs, k)
					}
				}
			}
			prev = vals
		}
	}
	return ids, pairs, grams
}

// chiSquareZ standardises the chi-square statistic of bucket counts of n
// distinct inputs against a flat histogram: (χ² − dof) / √(2·dof).
func chiSquareZ(counts []int, n int) float64 {
	exp := float64(n) / float64(len(counts))
	var chi float64
	for _, c := range counts {
		d := float64(c) - exp
		chi += d * d / exp
	}
	dof := float64(len(counts) - 1)
	return (chi - dof) / math.Sqrt(2*dof)
}

// bucketCollisions counts the inputs that land in an already occupied
// bucket of m, and returns it with the count a uniformly random function
// gives n distinct inputs: n − m(1 − (1 − 1/m)^n).
func bucketCollisions(buckets []int64, m int64) (got int, want float64) {
	used := make([]bool, m)
	for _, b := range buckets {
		if used[b] {
			got++
		}
		used[b] = true
	}
	n, fm := float64(len(buckets)), float64(m)
	return got, n - fm*(1-math.Exp(n*math.Log1p(-1/fm)))
}
