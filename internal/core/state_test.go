package core

import (
	"context"
	"testing"
)

// TestUserStateCachedScoresBitwise is the cache-correctness guarantee: for
// every model variant, scoring with pre-encoded user states must be bitwise
// identical to the uncached ScoreBatch path — the encoded θ̂ stands in for
// the preference pass without changing a single float.
func TestUserStateCachedScoresBitwise(t *testing.T) {
	insts, d := batchFixture(t)
	ctx := context.Background()
	for _, m := range modelVariants(d) {
		want, err := m.ScoreBatch(ctx, insts)
		if err != nil {
			t.Fatalf("%s: ScoreBatch: %v", m.Name(), err)
		}
		states := make([]*UserState, len(insts))
		for i, inst := range insts {
			st, err := m.EncodeUserState(ctx, inst)
			if err != nil {
				t.Fatalf("%s: EncodeUserState: %v", m.Name(), err)
			}
			if m.Cfg.UseDiversity && st.Topics() != m.Cfg.Topics {
				t.Fatalf("%s: state has %d topics, want %d", m.Name(), st.Topics(), m.Cfg.Topics)
			}
			states[i] = st
		}
		got, used, err := m.ScoreBatchStates(ctx, insts, states)
		if err != nil {
			t.Fatalf("%s: ScoreBatchStates: %v", m.Name(), err)
		}
		for b := range insts {
			for i := range want[b] {
				if got[b][i] != want[b][i] {
					t.Fatalf("%s: instance %d item %d: cached %v != uncached %v",
						m.Name(), b, i, got[b][i], want[b][i])
				}
			}
		}
		if m.Cfg.UseDiversity {
			for b := range insts {
				if used[b] != states[b] {
					t.Fatalf("%s: instance %d: supplied state not passed through", m.Name(), b)
				}
			}
		}
	}
}

// TestUserStateMixedBatch: a batch mixing state hits and misses must score
// every instance bitwise identically to the all-miss path, and the returned
// states must cover the misses (fresh) and hits (passed through).
func TestUserStateMixedBatch(t *testing.T) {
	insts, d := batchFixture(t)
	ctx := context.Background()
	m := New(testConfig(d, 70))
	want, err := m.ScoreBatch(ctx, insts)
	if err != nil {
		t.Fatal(err)
	}
	// States for even instances only; odd slots stay nil (cache misses).
	states := make([]*UserState, len(insts))
	for i := 0; i < len(insts); i += 2 {
		if states[i], err = m.EncodeUserState(ctx, insts[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, used, err := m.ScoreBatchStates(ctx, insts, states)
	if err != nil {
		t.Fatal(err)
	}
	for b := range insts {
		for i := range want[b] {
			if got[b][i] != want[b][i] {
				t.Fatalf("instance %d item %d: mixed-batch score %v != uncached %v", b, i, got[b][i], want[b][i])
			}
		}
		if used[b] == nil || used[b].Topics() != m.Cfg.Topics {
			t.Fatalf("instance %d: no usable state returned", b)
		}
	}
	// A miss's fresh state must itself be reusable: round-trip it.
	got2, _, err := m.ScoreBatchStates(ctx, insts[1:2], used[1:2])
	if err != nil {
		t.Fatal(err)
	}
	for i := range want[1] {
		if got2[0][i] != want[1][i] {
			t.Fatalf("round-tripped state diverges at item %d", i)
		}
	}
}

// TestUserStateWrongShapeIgnored: a state from a different geometry (wrong
// topic count) must be ignored, not trusted — the instance re-encodes.
func TestUserStateWrongShapeIgnored(t *testing.T) {
	insts, d := batchFixture(t)
	ctx := context.Background()
	m := New(testConfig(d, 70))
	want, err := m.ScoreBatch(ctx, insts[:1])
	if err != nil {
		t.Fatal(err)
	}
	bad := &UserState{theta: make([]float64, m.Cfg.Topics+3)}
	got, used, err := m.ScoreBatchStates(ctx, insts[:1], []*UserState{bad})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want[0] {
		if got[0][i] != want[0][i] {
			t.Fatalf("wrong-shape state corrupted score at item %d", i)
		}
	}
	if used[0] == bad {
		t.Fatal("wrong-shape state was passed through as used")
	}
}

// TestEncodeUserStateNoDiversity: the RAPID-RNN ablation has no preference
// pass; its state is empty and supplying it changes nothing.
func TestEncodeUserStateNoDiversity(t *testing.T) {
	insts, d := batchFixture(t)
	ctx := context.Background()
	cfg := testConfig(d, 70)
	cfg.UseDiversity = false
	m := New(cfg)
	st, err := m.EncodeUserState(ctx, insts[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Topics() != 0 {
		t.Fatalf("diversity-free state has %d topics", st.Topics())
	}
	want, err := m.ScoreBatch(ctx, insts[:1])
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := m.ScoreBatchStates(ctx, insts[:1], []*UserState{st})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want[0] {
		if got[0][i] != want[0][i] {
			t.Fatalf("empty state changed a diversity-free score at item %d", i)
		}
	}
}

// TestEncodeUserStateHonorsContext: a canceled context stops the encoder.
func TestEncodeUserStateHonorsContext(t *testing.T) {
	insts, d := batchFixture(t)
	m := New(testConfig(d, 70))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.EncodeUserState(ctx, insts[0]); err == nil {
		t.Fatal("EncodeUserState ignored canceled context")
	}
}

// Theta exposes the encoded preference distribution. The returned slice is
// the state's backing storage: callers must treat it as read-only.
func (s *UserState) Theta() []float64 { return s.theta }

// Topics reports the preference dimensionality (0 for a diversity-free
// model's empty state).
func (s *UserState) Topics() int { return len(s.theta) }
