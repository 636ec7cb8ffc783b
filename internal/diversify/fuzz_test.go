package diversify

import (
	"context"
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"repro/internal/rerank"
)

// FuzzDiversifierAdapter drives arbitrary bytes through the serving adapter
// of every registered diversifier: the raw data is decoded into a hostile
// instance (duplicate item IDs, non-finite scores, ragged coverage, score
// vectors shorter than the item list) and the selection cap is fuzzed past
// the list length. The contract under fuzz: Score never panics, never
// errors on any instance shape the wire can deliver, and its output always
// encodes a full permutation of the ranks 1..n — the invariant the serving
// layer's descending-score ordering depends on.
//
// Seed corpus committed under testdata/fuzz/FuzzDiversifierAdapter; CI runs
// a -fuzztime smoke on top (make fuzz).
func FuzzDiversifierAdapter(f *testing.F) {
	f.Add(byte(0), 0.5, byte(0), []byte{})                      // empty list
	f.Add(byte(1), 0.3, byte(9), []byte{2, 2, 2, 2, 2, 2})      // duplicate ids
	f.Add(byte(2), math.NaN(), byte(4), nanPayload())           // NaN scores, NaN λ
	f.Add(byte(3), 1.0, byte(255), []byte{9, 1, 2, 3, 4, 5, 6}) // k >> n

	f.Fuzz(func(t *testing.T, which byte, lambda float64, kb byte, data []byte) {
		names := Names()
		name := names[int(which)%len(names)]
		d, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		// Fuzz the selection caps too: K past the list length must be a
		// clean no-op/truncation, never a panic.
		switch d := d.(type) {
		case *dpp:
			d.K = int(kb)
		case *bswap:
			d.K = int(kb)
		case *slidingWindow:
			d.W = int(kb)
		}
		sc := &Scorer{Diversifier: d, Lambda: lambda}

		inst := fuzzInstance(data)
		scores, err := sc.Score(context.Background(), inst)
		if err != nil {
			t.Fatalf("%s: Score errored on wire-shaped instance: %v", name, err)
		}
		if len(scores) != inst.L() {
			t.Fatalf("%s: %d scores for %d items", name, len(scores), inst.L())
		}
		sorted := append([]float64(nil), scores...)
		sort.Float64s(sorted)
		for i, s := range sorted {
			if s != float64(i+1) {
				t.Fatalf("%s: scores %v are not a permutation of ranks 1..%d", name, scores, inst.L())
			}
		}
	})
}

// fuzzInstance decodes arbitrary bytes into a wire-shaped instance: the
// first byte picks the list length, then 8-byte chunks become raw float64
// scores (any bit pattern, so NaN/Inf/denormals appear naturally), item IDs
// collide via %8, and coverage rows are ragged on purpose.
func fuzzInstance(data []byte) *rerank.Instance {
	n := 0
	if len(data) > 0 {
		n = int(data[0]) % 24
		data = data[1:]
	}
	inst := &rerank.Instance{M: 3}
	for i := 0; i < n; i++ {
		inst.Items = append(inst.Items, int(byteAt(data, i))%8) // duplicates
		if len(data) >= (i+1)*8 {
			bits := binary.LittleEndian.Uint64(data[i*8 : (i+1)*8])
			inst.InitScores = append(inst.InitScores, math.Float64frombits(bits))
		} // else: scores shorter than items — fromInstance must pad
		row := make([]float64, int(byteAt(data, i+1))%5) // ragged
		for j := range row {
			row[j] = float64(byteAt(data, i+j)) / 255
		}
		inst.Cover = append(inst.Cover, row)
	}
	if n > 0 && byteAt(data, n)%2 == 0 {
		feats := [][]float64{{0.1, 0.9}, {0.5, 0.5}, nil}
		inst.ItemFeat = func(v int) []float64 { return feats[((v%3)+3)%3] }
	}
	return inst
}

func byteAt(data []byte, i int) byte {
	if i < len(data) {
		return data[i]
	}
	return byte(i * 37)
}

func nanPayload() []byte {
	out := []byte{3}
	nan := make([]byte, 8)
	binary.LittleEndian.PutUint64(nan, math.Float64bits(math.NaN()))
	for i := 0; i < 3; i++ {
		out = append(out, nan...)
	}
	return out
}
