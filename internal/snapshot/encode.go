package snapshot

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"sort"
	"sync"

	"jitomev/internal/jito"
	"jitomev/internal/solana"
	"jitomev/internal/stats"
)

// Shards compress at gzip.BestSpeed: the columnar layout already groups
// similar bytes, so the fast level compresses well while keeping the
// CPU cost of a checkpoint low.
const shardGzipLevel = gzip.BestSpeed

var gzipWriters = sync.Pool{
	New: func() any {
		zw, _ := gzip.NewWriterLevel(io.Discard, shardGzipLevel)
		return zw
	},
}

// compressShard gzips raw into a fresh buffer.
func compressShard(raw []byte) []byte {
	var buf bytes.Buffer
	buf.Grow(len(raw)/2 + 64)
	zw := gzipWriters.Get().(*gzip.Writer)
	zw.Reset(&buf)
	zw.Write(raw)
	zw.Close() // in-memory buffer: cannot fail
	gzipWriters.Put(zw)
	return buf.Bytes()
}

// interner assigns dense indices to pubkeys in first-use order. Each
// shard builds its own over its details in encode order, so indices are
// a pure function of the shard's contents.
type interner struct {
	idx  map[solana.Pubkey]uint64
	keys []solana.Pubkey
}

func newInterner() *interner {
	return &interner{idx: make(map[solana.Pubkey]uint64)}
}

func (in *interner) intern(p solana.Pubkey) uint64 {
	if i, ok := in.idx[p]; ok {
		return i
	}
	i := uint64(len(in.keys))
	in.idx[p] = i
	in.keys = append(in.keys, p)
	return i
}

// writer wraps the destination with buffering and sticky error state.
type writer struct {
	w   *bufio.Writer
	m   *snapObs
	err error
	scr [binary.MaxVarintLen64]byte
}

func (w *writer) bytes(b []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

func (w *writer) byte1(b byte) {
	if w.err == nil {
		w.err = w.w.WriteByte(b)
	}
}

func (w *writer) uvarint(v uint64) {
	w.bytes(appendUvarint(w.scr[:0], v))
}

// section emits one header section: its header, then one frame per
// fixed-size slice of [0, totalItems) produced by encode(lo, hi),
// encoded and emitted serially in shard order.
func (w *writer) section(id byte, totalItems, shardSize int, encode func(lo, hi int) ([]byte, error)) {
	w.sectionV3(id, totalItems, shardSize, 1, false, func(lo, hi int) ([]byte, ShardMeta, error) {
		raw, err := encode(lo, hi)
		return raw, ShardMeta{}, err
	})
}

// Write encodes s to w in the container format: self-contained bundle
// shards with pushdown metadata. workers bounds the shard
// encode/compress pool (0 = all cores, 1 = serial); the bytes written
// are identical for every worker count.
func Write(w io.Writer, s *Snapshot, workers int) error {
	return write(w, s, workers, &snapObs{})
}

// headerSections emits the aggregate sections ahead of the streaming
// ones: meta, days, and the two tip histograms.
func (w *writer) headerSections(s *Snapshot) {
	// meta: three fixed uint64s.
	w.section(secMeta, 1, 1, func(_, _ int) ([]byte, error) {
		raw := make([]byte, 0, 24)
		raw = appendU64(raw, uint64(s.Genesis))
		raw = appendU64(raw, s.Collected)
		raw = appendU64(raw, s.Duplicates)
		return raw, nil
	})

	// days, ascending.
	days := make([]int, 0, len(s.Days))
	for d := range s.Days {
		days = append(days, d)
	}
	sort.Ints(days)
	w.section(secDays, len(days), len(days)+1, func(lo, hi int) ([]byte, error) {
		raw := make([]byte, 0, 32*(hi-lo))
		for _, d := range days[lo:hi] {
			agg := s.Days[d]
			raw = appendUvarint(raw, zigzag(int64(d)))
			raw = appendUvarint(raw, agg.Bundles)
			raw = appendUvarint(raw, agg.Txs)
			for _, c := range agg.ByLength {
				raw = appendUvarint(raw, c)
			}
			raw = appendUvarint(raw, agg.DefensiveCount)
			raw = appendUvarint(raw, agg.PriorityCount)
			raw = appendUvarint(raw, agg.DefensiveSpend)
		}
		return raw, nil
	})

	w.histogram(secTipsLen1, s.TipsLen1)
	w.histogram(secTipsLen3, s.TipsLen3)
}

// writeError brands container-level write failures.
type writeError struct{ err error }

func (e *writeError) Error() string { return "snapshot: write: " + e.err.Error() }
func (e *writeError) Unwrap() error { return e.err }

// histogram emits a histogram section; a nil histogram is an empty
// section (0 shards) and loads back as nil.
func (w *writer) histogram(id byte, h *stats.LogHistogram) {
	n := 0
	if h != nil {
		n = 1
	}
	w.section(id, n, 1, func(_, _ int) ([]byte, error) {
		return h.AppendBinary(nil), nil
	})
}

func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// encodeRecordShard lays the shard out column by column (fixed width),
// then the ragged signature lists.
func encodeRecordShard(recs []jito.BundleRecord) ([]byte, error) {
	sigBytes := 0
	for i := range recs {
		if len(recs[i].TxIDs) > 255 {
			return nil, corrupt("bundle %s has %d transactions, limit 255",
				recs[i].ID.Short(), len(recs[i].TxIDs))
		}
		sigBytes += 64 * len(recs[i].TxIDs)
	}
	raw := make([]byte, 0, len(recs)*(8*4+32+1)+sigBytes)
	for i := range recs {
		raw = appendU64(raw, recs[i].Seq)
	}
	for i := range recs {
		raw = append(raw, recs[i].ID[:]...)
	}
	for i := range recs {
		raw = appendU64(raw, uint64(recs[i].Slot))
	}
	for i := range recs {
		raw = appendU64(raw, uint64(recs[i].UnixMs))
	}
	for i := range recs {
		raw = appendU64(raw, recs[i].TipLamps)
	}
	for i := range recs {
		raw = append(raw, byte(len(recs[i].TxIDs)))
	}
	for i := range recs {
		for _, sig := range recs[i].TxIDs {
			raw = append(raw, sig[:]...)
		}
	}
	return raw, nil
}

// appendDetailColumns emits the detail columns shared by bundle and
// orphan shards: signer index, slot, flags, tip, delta count, then the
// ragged delta triples.
func appendDetailColumns(raw []byte, dets []jito.TxDetail, in *interner) []byte {
	for i := range dets {
		raw = appendUvarint(raw, in.idx[dets[i].Signer])
	}
	for i := range dets {
		raw = appendU64(raw, uint64(dets[i].Slot))
	}
	for i := range dets {
		var flags byte
		if dets[i].Failed {
			flags |= 1
		}
		if dets[i].TipOnly {
			flags |= 2
		}
		raw = append(raw, flags)
	}
	for i := range dets {
		raw = appendUvarint(raw, dets[i].TipLamports)
	}
	for i := range dets {
		raw = appendUvarint(raw, uint64(len(dets[i].TokenDeltas)))
	}
	for i := range dets {
		for _, td := range dets[i].TokenDeltas {
			raw = appendUvarint(raw, in.idx[td.Owner])
			raw = appendUvarint(raw, in.idx[td.Mint])
			raw = appendUvarint(raw, zigzag(td.Delta))
		}
	}
	return raw
}
