package nncell

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
)

// buildDigest hashes every stored fragment MBR of ix, in id order, bit for
// bit: the id, the fragment count, then each fragment's Lo and Hi
// coordinates as raw float64 bits.
func buildDigest(ix *Index) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for id, frags := range ix.cells {
		put(uint64(id))
		put(uint64(len(frags)))
		for _, r := range frags {
			for j := range r.Lo {
				put(math.Float64bits(r.Lo[j]))
				put(math.Float64bits(r.Hi[j]))
			}
		}
	}
	return h.Sum64()
}

// TestBuildDigest pins the construction output for fixed seeds: the hash of
// every stored MBR and the total number of LP solves. Any change to the LP
// arithmetic, the constraint selection or the decomposition that alters a
// single bit of a stored rectangle fails here. The expected values were
// recorded on amd64; other architectures may fuse multiply-adds and round
// differently, so the test only runs there.
func TestBuildDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded for amd64 floating-point rounding")
	}
	if testing.Short() || raceEnabled {
		t.Skip("full builds; the digest is a property of the arithmetic, not of concurrency")
	}
	cases := []struct {
		name     string
		n, d     int
		seed     int64
		opts     Options
		digest   uint64
		lpSolves uint64
	}{
		{"NN-Direction/d=4", 5000, 4, 131, Options{Algorithm: NNDirection}, 0x73dc367bd0fcc7fe, 40000},
		{"NN-Direction/d=8", 2000, 8, 132, Options{Algorithm: NNDirection}, 0x210fcb619c045c77, 32000},
		{"Correct/d=6", 500, 6, 133, Options{Algorithm: Correct}, 0x9e309c90753730c4, 11880},
		{"Decompose=4/d=8", 400, 8, 134, Options{Algorithm: NNDirection, Decompose: 4}, 0x8ffbf01d88c89fbd, 134400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pts := uniquePoints(t, dataset.NameUniform, tc.seed, tc.n, tc.d)
			ix := mustBuild(t, pts, tc.opts)
			digest, solves := buildDigest(ix), ix.Stats().LPSolves
			t.Logf("digest %#x, %d LP solves", digest, solves)
			if digest != tc.digest || solves != tc.lpSolves {
				t.Fatalf("build output changed: digest %#x with %d LP solves, want %#x with %d",
					digest, solves, tc.digest, tc.lpSolves)
			}
		})
	}
}
