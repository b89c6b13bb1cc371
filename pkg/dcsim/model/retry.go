package model

import (
	"context"
	"time"
)

// RetryPolicy shapes the delay between a failed attempt and its retry:
// bounded exponential backoff with deterministic jitter. It is the one
// backoff every retry loop in the repository uses — sweep dispatch to
// remote workers, object-store fetches, and fleet registration.
//
// Delay is a pure function of (key, attempt), so retry timing is
// reproducible run to run — tests can pin it — while distinct keys (one
// cell-replica, one object URL) still spread out instead of retrying in
// lockstep.
type RetryPolicy struct {
	// Base is the delay scale of the first retry; attempt k scales it by
	// 2^k. 0 selects 50ms.
	Base time.Duration
	// Max caps the backoff however many attempts accumulate. 0 selects 2s.
	Max time.Duration
}

// Delay returns the backoff before retry number attempt (0-based) of the
// operation named by key: half the capped exponential step plus a
// jittered half, the jitter hashed from (key, attempt).
func (p RetryPolicy) Delay(attempt int, key string) time.Duration {
	if p.Base <= 0 {
		p.Base = 50 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 2 * time.Second
	}
	if attempt < 0 {
		attempt = 0
	}
	d := p.Base
	for i := 0; i < attempt && d < p.Max; i++ {
		d *= 2
	}
	d = min(d, p.Max)
	half := uint64(d / 2)
	if half == 0 {
		return d
	}
	return time.Duration(half + fnv1a(key, uint64(attempt))%half)
}

// fnv1a hashes key and then word's eight bytes with 64-bit FNV-1a: cheap,
// stateless, and stable across processes.
func fnv1a(key string, word uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	for i := 0; i < 8; i++ {
		h ^= (word >> (8 * i)) & 0xff
		h *= prime
	}
	return h
}

// Sleep waits d or until ctx ends, returning ctx's error in the latter
// case — the context-aware wait between retries.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
