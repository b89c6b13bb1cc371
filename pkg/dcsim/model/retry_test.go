package model

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestRetryPolicyDeterministicAndBounded: Delay is a pure function of
// (key, attempt), grows exponentially, caps at Max, and distinct keys
// spread out instead of retrying in lockstep.
func TestRetryPolicyDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{Base: 50 * time.Millisecond, Max: 2 * time.Second}
	for cell := 0; cell < 3; cell++ {
		for replica := 0; replica < 2; replica++ {
			key := fmt.Sprintf("cell %d replica %d", cell, replica)
			for attempt := 0; attempt < 10; attempt++ {
				d := p.Delay(attempt, key)
				if d != p.Delay(attempt, key) {
					t.Fatalf("Delay(%d, %q) not deterministic", attempt, key)
				}
				// The capped exponential step for this attempt bounds the
				// jittered delay from both sides: [step/2, step].
				step := p.Base << attempt
				if step > p.Max || step <= 0 {
					step = p.Max
				}
				if d < step/2 || d > step {
					t.Fatalf("Delay(%d, %q) = %v outside [%v, %v]", attempt, key, d, step/2, step)
				}
			}
		}
	}
	// Jitter separates identical attempts of different keys.
	if p.Delay(3, "cell 0 replica 0") == p.Delay(3, "cell 1 replica 0") &&
		p.Delay(3, "cell 0 replica 0") == p.Delay(3, "cell 2 replica 0") {
		t.Fatal("three distinct keys share one retry delay: jitter is not keyed")
	}
	if p.Delay(1, "http://store/obj-a") == p.Delay(1, "http://store/obj-b") {
		t.Fatal("jitter ignores the object name")
	}
	// The zero value is usable and stays within the documented defaults.
	var zero RetryPolicy
	if d := zero.Delay(0, ""); d < 25*time.Millisecond || d > 50*time.Millisecond {
		t.Fatalf("zero-value first delay = %v, want within [25ms, 50ms]", d)
	}
	if d := zero.Delay(20, ""); d > 2*time.Second {
		t.Fatalf("zero-value delay after 20 attempts = %v, exceeds the 2s default cap", d)
	}
}

// TestSleepHonorsContext: Sleep returns nil after the delay and the
// context's error once it ends, without waiting the delay out.
func TestSleepHonorsContext(t *testing.T) {
	if err := Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("Sleep = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep on a cancelled context = %v", err)
	}
	if err := Sleep(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("zero Sleep on a cancelled context = %v", err)
	}
	if time.Since(start) > time.Minute {
		t.Fatal("Sleep waited out the delay despite the cancelled context")
	}
}
