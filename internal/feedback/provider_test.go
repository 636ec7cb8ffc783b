package feedback

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bandit"
	"repro/internal/engine"
)

// fakeBase is a minimal base provider with distinguishable pins.
type fakeBase struct{ active, picked engine.Pinned }

func (f *fakeBase) Active() engine.Pinned     { return f.active }
func (f *fakeBase) Pick(uint64) engine.Pinned { return f.picked }

func newFakeBase() *fakeBase {
	obs := func(string, time.Duration) {}
	return &fakeBase{
		active: engine.Pinned{Version: "v-active", Observe: obs},
		picked: engine.Pinned{Version: "v-picked", Observe: obs},
	}
}

func TestBanditProviderSplit(t *testing.T) {
	pol := testPolicy(t)
	base := newFakeBase()

	off, err := NewBanditProvider(base, pol, 0)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 100; key++ {
		if pin := off.Pick(key); pin.Version != "v-picked" {
			t.Fatalf("0%% bandit must pass through, got %q", pin.Version)
		}
	}

	full, err := NewBanditProvider(base, pol, 100)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 100; key++ {
		pin := full.Pick(key)
		if !strings.HasPrefix(pin.Version, "bandit-") {
			t.Fatalf("100%% bandit must serve an arm, got %q", pin.Version)
		}
		if _, ok := pol.ArmIndex(pin.Version); !ok {
			t.Fatalf("arm label %q does not resolve", pin.Version)
		}
		if pin.Canary || pin.Observe != nil || pin.Shadow != nil {
			t.Fatalf("arm pin must not carry canary/lifecycle hooks: %+v", pin)
		}
		if pin.Scorer == nil {
			t.Fatal("arm pin has no scorer")
		}
	}
	if full.Active().Version != "v-active" {
		t.Fatal("Active must pass through")
	}

	// ~30% split, measured over many keys; the hash split should land within
	// a generous tolerance, and per-key decisions must be deterministic.
	part, err := NewBanditProvider(base, pol, 30)
	if err != nil {
		t.Fatal(err)
	}
	banditServed := 0
	const n = 20_000
	for key := uint64(0); key < n; key++ {
		pin := part.Pick(key)
		isArm := strings.HasPrefix(pin.Version, "bandit-")
		if isArm {
			banditServed++
		}
		again := strings.HasPrefix(part.Pick(key).Version, "bandit-")
		if again != isArm {
			t.Fatalf("split not deterministic for key %d", key)
		}
	}
	frac := float64(banditServed) / n
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("bandit share %.3f far from 0.30", frac)
	}
}

func TestBanditProviderRejectsUnknownArm(t *testing.T) {
	pol, err := bandit.NewPolicy(bandit.PolicyConfig{
		Arms: []bandit.Arm{{Name: "no-such-diversifier", Lambda: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBanditProvider(newFakeBase(), pol, 10); err == nil {
		t.Fatal("unknown diversifier arm must fail construction")
	}
}
