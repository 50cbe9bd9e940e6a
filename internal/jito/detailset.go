package jito

import (
	"hash/maphash"
	"maps"

	"jitomev/internal/solana"
)

// detailChunkLen is the number of details one DetailSet chunk holds:
// 256 × 152 B, about 38 KiB per allocation.
const detailChunkLen = 256

// detailSeed keys the index of every set. It is random per process, so
// a hostile snapshot cannot choose signatures that pile onto one chain;
// it is shared by every set, so two sets built by the same Put sequence
// compare equal under reflect.DeepEqual.
var detailSeed = maphash.MakeSeed()

// hashMask narrows the index hash. It is all ones; tests narrow it to
// force collision chains.
var hashMask = ^uint64(0)

// detailChunk is a fixed block of set positions: the details by value
// and, per position, the previous position whose signature hashed alike
// (-1 ends the chain). A chunk that Put opens points into one
// detailBlock; a chunk that Adopt lays out points into the adopted array
// and that adopt's prev slab.
type detailChunk struct {
	dets *[detailChunkLen]TxDetail
	prev *[detailChunkLen]int32
}

// detailBlock is the memory of a chunk that Put opens, in one allocation.
type detailBlock struct {
	dets [detailChunkLen]TxDetail
	prev [detailChunkLen]int32
}

// newChunk allocates a chunk of its own.
func newChunk() detailChunk {
	b := new(detailBlock)
	return detailChunk{&b.dets, &b.prev}
}

// DetailSet maps transaction signatures to their details. It is the one
// signature → detail store of the pipeline: the explorer's backing data,
// the collector's dataset and the snapshot codec all hold one.
//
// A map[solana.Signature]TxDetail stores each 152-byte value out of line,
// one heap object per detail. A DetailSet stores details by value in
// fixed-size chunks that never move, and finds them through a
// pointer-free map from a seeded hash of the signature to the newest
// position with that hash, chained to older ones. Loading four months of
// details therefore costs a few objects per chunk, not one per detail.
// A chunk is either a block of its own, filled by Put, or a window of an
// array handed over to Adopt. A full load decodes each shard's details
// into such an array, which from then on belongs to the set, so only
// the few details at either end of a shard that do not fill a whole
// chunk are copied.
//
// Positions are dense and follow first insertion; Put on a signature
// already present overwrites its detail in place, so the last write
// wins, as with a map. Adopt keeps exactly the same positions and
// values as a Put of each of its details in order.
//
// Slices returned by Aligned and pointers returned by At are read-only
// views into the set. They stay valid while the set lives, and they see
// a later Put of the same signature. The zero value is an empty set
// ready to use. Readers may run concurrently with each other, but not
// with Put, Adopt or Grow.
type DetailSet struct {
	chunks []detailChunk
	index  map[uint64]int32 // hash → newest position with that hash
	n      int
}

func hashSig(sig *solana.Signature) uint64 {
	return maphash.Bytes(detailSeed, sig[:]) & hashMask
}

// Len returns the number of distinct signatures held.
func (s *DetailSet) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// At returns the detail at position i, 0 <= i < Len(), in first-insertion
// order. The detail is read-only.
func (s *DetailSet) At(i int) *TxDetail {
	return &s.chunks[i/detailChunkLen].dets[i%detailChunkLen]
}

// Index returns the position of sig's detail, or -1 when it is absent.
func (s *DetailSet) Index(sig solana.Signature) int {
	if s == nil {
		return -1
	}
	head, ok := s.index[hashSig(&sig)]
	if !ok {
		return -1
	}
	return int(s.onChain(head, &sig))
}

// onChain walks the collision chain from head and returns the position
// holding sig, or -1.
func (s *DetailSet) onChain(head int32, sig *solana.Signature) int32 {
	for p := head; p >= 0; p = s.chunks[p/detailChunkLen].prev[p%detailChunkLen] {
		if s.At(int(p)).Sig == *sig {
			return p
		}
	}
	return -1
}

// Has reports whether sig's detail is present.
func (s *DetailSet) Has(sig solana.Signature) bool { return s.Index(sig) >= 0 }

// Get returns a copy of sig's detail and whether it is present.
func (s *DetailSet) Get(sig solana.Signature) (TxDetail, bool) {
	if p := s.Index(sig); p >= 0 {
		return *s.At(p), true
	}
	return TxDetail{}, false
}

// Put stores d under d.Sig, overwriting the detail already held for that
// signature.
func (s *DetailSet) Put(d TxDetail) {
	h := hashSig(&d.Sig)
	head, ok := s.index[h]
	if !ok {
		head = -1
	} else if p := s.onChain(head, &d.Sig); p >= 0 {
		*s.At(int(p)) = d
		return
	}
	if s.index == nil {
		s.index = make(map[uint64]int32)
	}
	off := s.n % detailChunkLen
	if off == 0 {
		s.chunks = append(s.chunks, newChunk())
	}
	c := s.chunks[len(s.chunks)-1]
	c.dets[off], c.prev[off] = d, head
	s.index[h] = int32(s.n)
	s.n++
}

// Adopt stores dets as a Put of each of them in order would, and takes
// the array over: the caller must not use dets afterwards. Details
// already present, or repeated within dets, overwrite their first
// position, the last in order winning; the array is compacted in place
// to the rest. Only the details that fill the open chunk (at most 255)
// and those left over past the last full chunk (at most 255) are
// copied. Every full run of 256 in between becomes a chunk that points
// into dets, so the set keeps the array, and one slab of chain links
// sized to it, for as long as it lives.
func (s *DetailSet) Adopt(dets []TxDetail) {
	if len(dets) == 0 {
		return
	}
	if s.index == nil {
		s.index = make(map[uint64]int32)
	}
	// Position n0+k is laid out at dets[k], its chain link at prev[k].
	n0 := int32(s.n)
	prev := make([]int32, len(dets))
	k := 0
	for j := range dets {
		h := hashSig(&dets[j].Sig)
		head, ok := s.index[h]
		if !ok {
			head = -1
		}
		switch p := s.onRun(head, &dets[j].Sig, n0, dets[:k], prev); {
		case p >= n0:
			dets[p-n0] = dets[j]
			continue
		case p >= 0:
			*s.At(int(p)) = dets[j]
			continue
		}
		if k != j {
			dets[k] = dets[j]
		}
		prev[k] = head
		s.index[h] = n0 + int32(k)
		k++
	}
	dets, prev = dets[:k], prev[:k]

	i := 0
	if off := s.n % detailChunkLen; off != 0 {
		c := s.chunks[len(s.chunks)-1]
		i = copy(c.dets[off:], dets)
		copy(c.prev[off:], prev[:i])
	}
	for ; i+detailChunkLen <= k; i += detailChunkLen {
		s.chunks = append(s.chunks, detailChunk{
			(*[detailChunkLen]TxDetail)(dets[i:]),
			(*[detailChunkLen]int32)(prev[i:]),
		})
	}
	if i < k {
		c := newChunk()
		copy(c.dets[:], dets[i:])
		copy(c.prev[:], prev[i:])
		s.chunks = append(s.chunks, c)
	}
	s.n += k
}

// onRun is onChain during an Adopt: positions from n0 up are still
// being laid out, position n0+k at run[k] with its link at prev[k]. A
// chain visits newer positions first, so the walk leaves the run once
// and finishes in the chunks.
func (s *DetailSet) onRun(p int32, sig *solana.Signature, n0 int32, run []TxDetail, prev []int32) int32 {
	for ; p >= n0; p = prev[p-n0] {
		if run[p-n0].Sig == *sig {
			return p
		}
	}
	return s.onChain(p, sig)
}

// Grow makes room in the index for n more signatures, so that many
// Puts or Adopts do not regrow it step by step. A set already holding
// signatures rebuilds its index at the larger size.
func (s *DetailSet) Grow(n int) {
	if n <= 0 {
		return
	}
	index := make(map[uint64]int32, len(s.index)+n)
	maps.Copy(index, s.index)
	s.index = index
}

// AppendAligned appends the details of sigs, in order, to dst and
// reports whether every one is present. On false the returned slice is
// unspecified.
func (s *DetailSet) AppendAligned(dst []TxDetail, sigs []solana.Signature) ([]TxDetail, bool) {
	for i := range sigs {
		p := s.Index(sigs[i])
		if p < 0 {
			return dst, false
		}
		dst = append(dst, *s.At(p))
	}
	return dst, true
}

// Aligned resolves the details of sigs, in order, and reports whether
// every one is present. When they sit at consecutive positions of one
// chunk — always so for a record of a loaded dataset, unless it straddles
// a chunk boundary — the result is a read-only view into the set, with
// no spare capacity, and dst is untouched. Otherwise they are appended
// to dst. On false the returned slice is unspecified.
func (s *DetailSet) Aligned(dst []TxDetail, sigs []solana.Signature) ([]TxDetail, bool) {
	if len(sigs) == 0 {
		return dst, true
	}
	first := s.Index(sigs[0])
	if first < 0 {
		return dst, false
	}
	off := first % detailChunkLen
	view := off+len(sigs) <= detailChunkLen
	for i := 1; view && i < len(sigs); i++ {
		p := s.Index(sigs[i])
		if p < 0 {
			return dst, false
		}
		view = p == first+i
	}
	if view {
		c := s.chunks[first/detailChunkLen]
		return c.dets[off : off+len(sigs) : off+len(sigs)], true
	}
	return s.AppendAligned(dst, sigs)
}
