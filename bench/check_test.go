package main

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/serve/binproto"
)

func threeItemEntry() (int, *entry) {
	const k = 7
	e := &entry{}
	for i := 0; i < 3; i++ {
		e.req.Items = append(e.req.Items, engine.Item{ID: k*idStride + i})
	}
	return k, e
}

func TestJudge(t *testing.T) {
	k, e := threeItemEntry()
	id := func(pos int) int { return k*idStride + pos }
	for _, tc := range []struct {
		name string
		resp engine.Response
		want outcome
	}{
		{"a permutation with falling scores", engine.Response{Ranked: []int{id(2), id(0), id(1)}, Scores: []float64{0.9, 0.5, 0.5}}, ok},
		{"an item twice", engine.Response{Ranked: []int{id(2), id(2), id(1)}, Scores: []float64{0.9, 0.5, 0.1}}, failedInvalid},
		{"another request's item", engine.Response{Ranked: []int{id(2), id(0), id(1) + idStride}, Scores: []float64{0.9, 0.5, 0.1}}, failedInvalid},
		{"an item missing", engine.Response{Ranked: []int{id(2), id(0)}, Scores: []float64{0.9, 0.5}}, failedInvalid},
		{"scores rising", engine.Response{Ranked: []int{id(2), id(0), id(1)}, Scores: []float64{0.5, 0.9, 0.1}}, failedInvalid},
		{"a score not finite", engine.Response{Ranked: []int{id(2), id(0), id(1)}, Scores: []float64{0.9, math.NaN(), 0.1}}, failedInvalid},
		{"degraded, though a valid list", engine.Response{Ranked: []int{id(0), id(1), id(2)}, Scores: []float64{0.9, 0.5, 0.1}, Degraded: true}, failedDegraded},
	} {
		if got := judge(&tc.resp, k, e); got != tc.want {
			t.Errorf("%s: outcome %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want outcome
	}{
		{nil, ok},
		{&binproto.RemoteError{Code: binproto.CodeOverloaded}, failedShed},
		{&binproto.RemoteError{Code: binproto.CodeDraining}, failedShed},
		{&binproto.RemoteError{Code: binproto.CodeBadInput}, failedRemote},
		{errors.New("connection reset"), failedTransport},
	} {
		if got := classify(tc.err); got != tc.want {
			t.Errorf("classify(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// A slice counts every operation that did not end ok — a list that is not
// the request's own, a shed, a degraded answer — as failed, and still as
// attempted.
func TestSliceCountsFailedOperations(t *testing.T) {
	results := []outcome{ok, failedInvalid, ok, failedShed, failedDegraded, ok}
	i := 0
	s := &serving{clients: []*client{{
		next: func() (int, []byte) { return 0, nil },
		send: func(int, []byte, int64) op {
			i++
			return op{result: results[(i-1)%len(results)]}
		},
	}}}
	sl := s.measure(20 * time.Millisecond)
	if sl.lists != i || sl.lists < len(results) {
		t.Fatalf("slice counts %d operations, the client made %d", sl.lists, i)
	}
	wantFailed := 0
	for j := 0; j < i; j++ {
		if results[j%len(results)] != ok {
			wantFailed++
		}
	}
	if sl.failed != wantFailed {
		t.Errorf("slice counts %d failed operations, want %d", sl.failed, wantFailed)
	}
}

func TestParityFailsOnOneFlippedBit(t *testing.T) {
	ranked, scores := []int{3, 1, 2}, []float64{0.75, 0.5, 0.25}
	same := engine.Response{Ranked: []int{3, 1, 2}, Scores: []float64{0.75, 0.5, 0.25}}
	if err := parity(&same, ranked, scores); err != nil {
		t.Fatalf("identical response fails parity: %v", err)
	}
	flipped := engine.Response{Ranked: []int{3, 1, 2}, Scores: []float64{0.75, math.Float64frombits(math.Float64bits(0.5) ^ 1), 0.25}}
	if err := parity(&flipped, ranked, scores); err == nil {
		t.Error("a score one bit off passes parity")
	}
	swapped := engine.Response{Ranked: []int{1, 3, 2}, Scores: []float64{0.75, 0.5, 0.25}}
	if err := parity(&swapped, ranked, scores); err == nil {
		t.Error("a different ranking passes parity")
	}
}
