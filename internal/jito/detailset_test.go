package jito

import (
	"encoding/binary"
	"reflect"
	"sync"
	"testing"

	"jitomev/internal/solana"
)

// testSig derives a distinct signature from n.
func testSig(n int) solana.Signature {
	var s solana.Signature
	binary.LittleEndian.PutUint64(s[:], uint64(n)+1)
	s[63] = 0xA5
	return s
}

func testDetail(n int, slot uint64) TxDetail {
	d := TxDetail{Sig: testSig(n), Slot: solana.Slot(slot), TipLamports: slot * 3}
	if slot%2 == 1 {
		d.TokenDeltas = []TokenDelta{{Delta: int64(slot)}}
	}
	return d
}

// narrowHash makes every signature hash into one of buckets chains for
// the rest of the test.
func narrowHash(t testing.TB, buckets uint64) {
	old := hashMask
	hashMask = buckets - 1
	t.Cleanup(func() { hashMask = old })
}

func TestDetailSetZeroAndNil(t *testing.T) {
	var nilSet *DetailSet
	if nilSet.Len() != 0 || nilSet.Has(testSig(1)) || nilSet.Index(testSig(1)) != -1 {
		t.Fatal("nil set is not empty")
	}
	if _, ok := nilSet.Get(testSig(1)); ok {
		t.Fatal("nil set returned a detail")
	}
	var s DetailSet
	if got, ok := s.Aligned(nil, []solana.Signature{testSig(1)}); ok || got != nil {
		t.Fatalf("empty set aligned %v, %v", got, ok)
	}
	s.Put(testDetail(1, 7))
	if d, ok := s.Get(testSig(1)); !ok || d.Slot != 7 || s.Len() != 1 {
		t.Fatalf("zero-value set after Put: %+v %v len %d", d, ok, s.Len())
	}
}

// TestDetailSetLastWriteWins: a repeated signature overwrites in place —
// the value changes, its position and the length do not — under full
// hashing and with every signature on one collision chain.
func TestDetailSetLastWriteWins(t *testing.T) {
	for _, buckets := range []uint64{0, 1, 4} {
		if buckets > 0 {
			narrowHash(t, buckets)
		}
		var s DetailSet
		for i := 0; i < 600; i++ {
			s.Put(testDetail(i, uint64(i)))
		}
		for i := 0; i < 600; i += 7 {
			s.Put(testDetail(i, uint64(1000+i)))
		}
		if s.Len() != 600 {
			t.Fatalf("buckets %d: len %d, want 600", buckets, s.Len())
		}
		for i := 0; i < 600; i++ {
			want := uint64(i)
			if i%7 == 0 {
				want += 1000
			}
			d, ok := s.Get(testSig(i))
			if !ok || uint64(d.Slot) != want || s.Index(testSig(i)) != i || s.At(i).Sig != testSig(i) {
				t.Fatalf("buckets %d: sig %d: %+v %v at %d", buckets, i, d, ok, s.Index(testSig(i)))
			}
		}
		if s.Has(testSig(600)) {
			t.Fatalf("buckets %d: absent signature found", buckets)
		}
	}
}

// TestDetailSetAligned: consecutive members come back as a capped view
// into the set; scattered, reordered or chunk-straddling members are
// copied into dst; a missing member fails.
func TestDetailSetAligned(t *testing.T) {
	var s DetailSet
	for i := 0; i < detailChunkLen+10; i++ {
		s.Put(testDetail(i, uint64(i)))
	}
	sigs := func(ns ...int) []solana.Signature {
		out := make([]solana.Signature, len(ns))
		for i, n := range ns {
			out[i] = testSig(n)
		}
		return out
	}
	scratch := make([]TxDetail, 0, 8)
	for _, tc := range []struct {
		name string
		ns   []int
		view bool
	}{
		{"consecutive", []int{4, 5, 6}, true},
		{"single", []int{9}, true},
		{"reordered", []int{5, 4, 6}, false},
		{"gap", []int{4, 6, 7}, false},
		{"straddle", []int{detailChunkLen - 1, detailChunkLen, detailChunkLen + 1}, false},
		{"second chunk", []int{detailChunkLen + 2, detailChunkLen + 3}, true},
	} {
		got, ok := s.Aligned(scratch[:0], sigs(tc.ns...))
		want, _ := s.AppendAligned(nil, sigs(tc.ns...))
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %v %v, want %v", tc.name, got, ok, want)
		}
		isView := &got[0] == s.At(tc.ns[0])
		if isView != tc.view {
			t.Fatalf("%s: view %v, want %v", tc.name, isView, tc.view)
		}
		if tc.view && cap(got) != len(got) {
			t.Fatalf("%s: view has spare capacity %d", tc.name, cap(got)-len(got))
		}
		if !tc.view && &got[0] != &scratch[:1][0] {
			t.Fatalf("%s: copy did not land in dst", tc.name)
		}
	}
	if _, ok := s.Aligned(nil, sigs(4, 5, 9999)); ok {
		t.Fatal("missing member aligned")
	}
	if _, ok := s.AppendAligned(nil, sigs(9999)); ok {
		t.Fatal("missing member appended")
	}
}

// TestDetailSetViewsSurviveAppends: views stay valid and unchanged while
// another goroutine appends new signatures — the stream feeder hands
// views to detect workers while collection keeps filling the set.
func TestDetailSetViewsSurviveAppends(t *testing.T) {
	var s DetailSet
	for i := 0; i < 30; i++ {
		s.Put(testDetail(i, uint64(i)))
	}
	var views [][]TxDetail
	for i := 0; i+3 <= 30; i += 3 {
		v, ok := s.Aligned(nil, []solana.Signature{testSig(i), testSig(i + 1), testSig(i + 2)})
		if !ok {
			t.Fatal("aligned failed")
		}
		views = append(views, v)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				for k, v := range views {
					for j := range v {
						if uint64(v[j].Slot) != uint64(3*k+j) {
							t.Errorf("view %d[%d] reads slot %d", k, j, v[j].Slot)
							return
						}
					}
				}
			}
		}()
	}
	for i := 30; i < 30+4*detailChunkLen; i++ {
		s.Put(testDetail(i, uint64(i)))
	}
	wg.Wait()
}

// TestDetailSetAdoptKeepsArray: an adopt copies only the details that
// fill the open chunk and those past its last full chunk; the full
// chunks in between are the adopted array itself, so views into them
// alias it and see a later Put.
func TestDetailSetAdoptKeepsArray(t *testing.T) {
	var s DetailSet
	for i := 0; i < 10; i++ {
		s.Put(testDetail(i, uint64(i)))
	}
	run := make([]TxDetail, 1000)
	for k := range run {
		run[k] = testDetail(100+k, uint64(k))
	}
	s.Adopt(run)
	if s.Len() != 1010 {
		t.Fatalf("len %d, want 1010", s.Len())
	}
	// Position 10+k holds run[k]: positions 10–255 fill the open chunk,
	// 256–767 are two full chunks, 768–1009 the tail.
	for p := 10; p < s.Len(); p++ {
		k := p - 10
		if s.At(p).Sig != testSig(100+k) || s.Index(testSig(100+k)) != p {
			t.Fatalf("position %d holds %+v", p, *s.At(p))
		}
		if alias, want := s.At(p) == &run[k], p >= 256 && p < 768; alias != want {
			t.Fatalf("position %d aliases the adopted array: %v, want %v", p, alias, want)
		}
	}
	view, ok := s.Aligned(nil, []solana.Signature{testSig(390), testSig(391), testSig(392)})
	if !ok || &view[0] != &run[290] {
		t.Fatal("aligned run in an adopted chunk is not a view into the array")
	}
	s.Put(testDetail(390, 7777))
	if view[0].Slot != 7777 || s.Len() != 1010 {
		t.Fatalf("view reads slot %d after a Put, len %d", view[0].Slot, s.Len())
	}
}

// TestDetailSetGrow: growing the index, empty or already holding
// signatures, keeps every position and lookup.
func TestDetailSetGrow(t *testing.T) {
	narrowHash(t, 4)
	var s DetailSet
	s.Grow(0)
	s.Grow(300)
	for i := 0; i < 600; i++ {
		s.Put(testDetail(i, uint64(i)))
	}
	s.Grow(1000)
	for i := 600; i < 1600; i++ {
		s.Put(testDetail(i, uint64(i)))
	}
	s.Put(testDetail(5, 99))
	for i := 0; i < 1600; i++ {
		if s.Index(testSig(i)) != i {
			t.Fatalf("sig %d at %d", i, s.Index(testSig(i)))
		}
	}
	if d, _ := s.Get(testSig(5)); d.Slot != 99 || s.Len() != 1600 {
		t.Fatalf("after Grow: slot %d, len %d", d.Slot, s.Len())
	}
}

// FuzzDetailSet drives a set through arbitrary Put/Adopt/Get/Len/iterate
// sequences over a small signature pool, so signatures repeat, and
// checks every step against a plain map. The first byte picks full
// hashing or four collision buckets.
func FuzzDetailSet(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 0, 2, 3, 1, 1, 1, 0, 4, 0, 255, 3})
	f.Add([]byte{1, 0, 5, 0, 0, 5, 1, 1, 5, 4, 2, 200, 4, 2, 90, 3, 2, 1, 0, 0})
	f.Add([]byte{0, 4, 0, 255, 4, 3, 20, 0, 0, 0, 3})
	// An adopt at an unaligned start: one Put, then 600 details of which
	// the third repeats the Put's signature, in the open head chunk.
	f.Add([]byte{0, 0, 30, 1, 5, 8, 200, 3, 0, 0, 2, 0, 0})
	// An adopt padded to a chunk boundary, two full chunks and a tail,
	// on four collision chains.
	f.Add([]byte{1, 4, 0, 10, 5, 3, 255, 1, 30, 0, 3, 5, 0})
	// A short adopt that fits the open chunk, repeating its own second
	// detail and an earlier Put, on four collision chains.
	f.Add([]byte{1, 0, 23, 4, 4, 0, 3, 5, 1, 20, 3, 0, 0, 0, 23, 9, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if data[0]&1 == 1 {
			narrowHash(t, 4)
		}
		var s DetailSet
		ref := make(map[solana.Signature]TxDetail)
		var order []solana.Signature // first-insertion order
		fresh := 1 << 20             // adopted signatures never Put
		put := func(d TxDetail) {
			if _, ok := ref[d.Sig]; !ok {
				order = append(order, d.Sig)
			}
			ref[d.Sig] = d
			s.Put(d)
		}
		// check compares every position, and every run of three
		// consecutive positions, with the reference.
		check := func() {
			if s.Len() != len(ref) {
				t.Fatalf("Len %d, want %d", s.Len(), len(ref))
			}
			for p := 0; p < s.Len(); p++ {
				d := s.At(p)
				if d.Sig != order[p] || !reflect.DeepEqual(*d, ref[d.Sig]) || s.Index(d.Sig) != p {
					t.Fatalf("position %d holds %+v, want %+v", p, *d, ref[order[p]])
				}
				if p+3 > s.Len() {
					continue
				}
				got, ok := s.Aligned(nil, order[p:p+3])
				want := []TxDetail{ref[order[p]], ref[order[p+1]], ref[order[p+2]]}
				if !ok || !reflect.DeepEqual(got, want) {
					t.Fatalf("Aligned(positions %d..) = %v %v, want %v", p, got, ok, want)
				}
				if view := p%detailChunkLen+3 <= detailChunkLen; view != (&got[0] == s.At(p)) {
					t.Fatalf("Aligned(positions %d..): view %v, want %v", p, !view, view)
				}
			}
		}
		for i := 1; i+2 < len(data); i += 3 {
			op, n, v := data[i]%6, int(data[i+1])%300, uint64(data[i+2])
			switch op {
			case 0:
				put(testDetail(n, v))
			case 1:
				got, ok := s.Get(testSig(n))
				want, wantOK := ref[testSig(n)]
				if ok != wantOK || !reflect.DeepEqual(got, want) {
					t.Fatalf("Get(%d) = %+v %v, want %+v %v", n, got, ok, want, wantOK)
				}
			case 2:
				if s.Len() != len(ref) {
					t.Fatalf("Len %d, want %d", s.Len(), len(ref))
				}
			case 3:
				check()
				ids := []solana.Signature{testSig(n), testSig(n + 1), testSig(n + 2)}
				got, ok := s.Aligned(nil, ids)
				var want []TxDetail
				wantOK := true
				for _, id := range ids {
					d, ok := ref[id]
					wantOK = wantOK && ok
					want = append(want, d)
				}
				if ok != wantOK || ok && !reflect.DeepEqual(got, want) {
					t.Fatalf("Aligned(%d..) = %v %v, want %v %v", n, got, ok, want, wantOK)
				}
			case 4:
				// A run of fresh signatures, so sets cross chunk boundaries.
				for k := 0; k < int(v); k++ {
					put(testDetail(1000+len(order)+k, v))
				}
			case 5:
				// Adopt a run of 6·(v/2) details: mostly fresh signatures,
				// every fifth from the Put pool, every fifth repeating the
				// run's own detail three back. An odd v first pads the set
				// to a chunk boundary.
				if v&1 == 1 {
					for s.Len()%detailChunkLen != 0 {
						put(testDetail(fresh, v))
						fresh++
					}
				}
				run := make([]TxDetail, 6*int(v/2))
				for k := range run {
					slot := v<<16 | uint64(k)
					switch {
					case k%5 == 2:
						run[k] = testDetail((n+11*k)%300, slot)
					case k%5 == 4:
						run[k] = testDetail(0, slot)
						run[k].Sig = run[k-3].Sig
					default:
						run[k] = testDetail(fresh, slot)
						fresh++
					}
				}
				for _, d := range run {
					if _, ok := ref[d.Sig]; !ok {
						order = append(order, d.Sig)
					}
					ref[d.Sig] = d
				}
				s.Adopt(run)
				check()
			}
		}
		if s.Len() != len(ref) {
			t.Fatalf("final Len %d, want %d", s.Len(), len(ref))
		}
	})
}
