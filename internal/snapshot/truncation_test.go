package snapshot

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestTruncationAlwaysDetected is the truncation fuzz: no strict prefix
// of a valid snapshot may load. The dangerous shapes are cuts landing
// exactly on frame or section boundaries — a short read mid-varint or
// mid-blob fails trivially, but a cut at a boundary leaves a stream that
// parses cleanly up to the cut, and only the section-completeness and
// item-total checks can tell it from a smaller dataset.
func TestTruncationAlwaysDetected(t *testing.T) {
	s := testSnapshot(11, 2*bundleShardSize+37, orphanShardSize/8)
	var buf bytes.Buffer
	if err := Write(&buf, s, 0); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	check := func(n int) {
		t.Helper()
		_, err := Read(bytes.NewReader(good[:n]), 0)
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded without error", n, len(good))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix of %d bytes: error not wrapping ErrCorrupt: %v", n, err)
		}
	}

	// Exhaustive over the container header region, sampled beyond it, and
	// exhaustive again over the final bytes (the trailing-shard shapes the
	// fuzz exists for).
	limit := len(good) - 1
	for n := 0; n < 2048 && n <= limit; n++ {
		check(n)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 128; i++ {
		check(rng.Intn(limit + 1))
	}
	for n := limit - 1024; n <= limit; n++ {
		if n >= 0 {
			check(n)
		}
	}
}

// TestCorruptErrorsCarryShardIndex pins the diagnostic contract: a
// failure inside shard k names shard k, so a four-month checkpoint that
// breaks can be triaged without a hex dump.
func TestCorruptErrorsCarryShardIndex(t *testing.T) {
	s := testSnapshot(12, 6*bundleShardSize, 100)
	var buf bytes.Buffer
	if err := Write(&buf, s, 1); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip one byte near the end: some trailing shard's gzip CRC (or the
	// columnar layout) must catch it and say which shard.
	bad := append([]byte(nil), good...)
	bad[len(bad)-64] ^= 0xFF
	_, err := Read(bytes.NewReader(bad), 0)
	if err == nil {
		t.Fatal("bit flip near stream end accepted")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error not wrapping ErrCorrupt: %v", err)
	}
	if !bytes.Contains([]byte(err.Error()), []byte("shard")) {
		t.Errorf("error does not name a shard: %v", err)
	}
}
