package jitomev

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"jitomev/internal/solana"
	"jitomev/internal/validator"
	"jitomev/internal/workload"
)

// TestGoldenWorld pins the generated world byte for byte: the v3
// snapshot of a small extended-detection study, and the first 100,000
// slots of a leader schedule. Generation-path optimisations must leave
// both hashes unchanged; so must a Go release, since the schedule
// relies on math/rand's Go 1 guarantee of stable seeded output.
func TestGoldenWorld(t *testing.T) {
	const (
		wantSnap    = "1b7e1595cafc59f3292b4215d10058d2be257962df249804dd23447dbb6a2e8b"
		wantBytes   = 58_221
		wantBundles = 628
		wantLeaders = "28abd8ed020421ca051e6ba75c4b2593a25a1bee90559e6df11914f327321db5"
	)
	out, err := Run(Config{
		Workload:          workload.Params{Seed: 1, Days: 2, Scale: 50000},
		ExtendedDetection: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := out.Collector.Data.Save(&snap); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap.Bytes())
	if got := hex.EncodeToString(sum[:]); got != wantSnap || snap.Len() != wantBytes {
		t.Errorf("v3 snapshot = %s (%d bytes), want %s (%d bytes)", got, snap.Len(), wantSnap, wantBytes)
	}
	if got := out.Results.TotalBundles; got != wantBundles {
		t.Errorf("bundles = %d, want %d", got, wantBundles)
	}

	// Leader identities of slots 0…99,999, raw 32 bytes each.
	set := validator.NewSet(64, 7)
	h := sha256.New()
	for slot := solana.Slot(0); slot < 100_000; slot++ {
		id := set.LeaderAt(slot).Identity
		h.Write(id[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantLeaders {
		t.Errorf("leader schedule = %s, want %s", got, wantLeaders)
	}
}
