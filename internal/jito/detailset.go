package jito

import (
	"hash/maphash"

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
// (-1 ends the chain).
type detailChunk struct {
	dets [detailChunkLen]TxDetail
	prev [detailChunkLen]int32
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
//
// Positions are dense and follow first insertion; Put on a signature
// already present overwrites its detail in place, so the last write
// wins, as with a map.
//
// Slices returned by Aligned and pointers returned by At are read-only
// views into the set. They stay valid while the set lives, and they see
// a later Put of the same signature. The zero value is an empty set
// ready to use. Readers may run concurrently with each other, but not
// with Put.
type DetailSet struct {
	chunks []*detailChunk
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
		s.chunks = append(s.chunks, new(detailChunk))
	}
	c := s.chunks[len(s.chunks)-1]
	c.dets[off], c.prev[off] = d, head
	s.index[h] = int32(s.n)
	s.n++
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
