package snapshot

import (
	"bufio"
	"bytes"
	"io"
	"slices"
	"sync"

	"jitomev/internal/jito"
	"jitomev/internal/parallel"
	"jitomev/internal/solana"
)

// Encode: self-contained bundle shards. Each shard carries its records,
// the details aligned to them, and a local pubkey dictionary, so a
// streaming reader can decode → analyze → discard one shard at a time
// with no dataset-sized state.

// write emits the container: the header sections, then the three
// streaming sections with pushdown metadata on every frame.
func write(w io.Writer, s *Snapshot, workers int, m *snapObs) error {
	bw := &writer{w: bufio.NewWriterSize(w, 1<<16), m: m}
	bw.bytes([]byte(MagicV3))
	bw.headerSections(s)

	bw.bundleSection(secBundles3, s.Len3, s.Details, s.Clock, workers)
	bw.bundleSection(secBundlesLong, s.Long, s.Details, s.Clock, workers)

	// Orphans: details no retained record references, kept so the detail
	// set round-trips exactly. Signature-sorted, which makes the shard
	// split deterministic.
	referenced := make([]bool, s.Details.Len())
	mark := func(recs []jito.BundleRecord) {
		for i := range recs {
			for _, sig := range recs[i].TxIDs {
				if p := s.Details.Index(sig); p >= 0 {
					referenced[p] = true
				}
			}
		}
	}
	mark(s.Len3)
	mark(s.Long)
	var orphans []solana.Signature
	for p, ref := range referenced {
		if !ref {
			orphans = append(orphans, s.Details.At(p).Sig)
		}
	}
	slices.SortFunc(orphans, func(a, b solana.Signature) int {
		return bytes.Compare(a[:], b[:])
	})
	bw.sectionV3(secOrphans, len(orphans), orphanShardSize, workers, true, func(lo, hi int) ([]byte, ShardMeta, error) {
		return encodeOrphanShard(orphans[lo:hi], s.Details, s.Clock)
	})

	bw.byte1(secEnd)
	if bw.err == nil {
		bw.err = bw.w.Flush()
	}
	if bw.err != nil {
		return &writeError{bw.err}
	}
	return nil
}

// shardFrame is one encoded-and-compressed shard ready to be framed
// into the output stream.
type shardFrame struct {
	meta ShardMeta
	raw  int
	blob []byte
	err  error
}

// sectionV3 emits one section: its header, then one frame per
// fixed-size slice of [0, totalItems) produced by encode(lo, hi).
// Shards encode and compress on a pool of workers and are written in
// shard order, so the bytes are the same at every worker count. A
// streaming section (pushdown) prefixes every frame's lengths with its
// ShardMeta block.
func (w *writer) sectionV3(id byte, totalItems, shardSize, workers int, pushdown bool, encode func(lo, hi int) ([]byte, ShardMeta, error)) {
	if w.err != nil {
		return
	}
	w.byte1(id)
	w.uvarint(uint64((totalItems + shardSize - 1) / shardSize))
	w.uvarint(uint64(totalItems))
	p := parallel.NewOrderedObs(w.m.reg, "snapshot_encode", workers, func(lo int) shardFrame {
		hi := min(lo+shardSize, totalItems)
		raw, meta, err := encode(lo, hi)
		if err != nil {
			return shardFrame{err: err}
		}
		meta.Items = hi - lo
		return shardFrame{meta: meta, raw: len(raw), blob: compressShard(raw)}
	}, func(f shardFrame) {
		if w.err == nil && f.err != nil {
			w.err = f.err
		}
		if w.err != nil {
			return
		}
		w.m.frame(f.raw, len(f.blob))
		w.uvarint(uint64(f.meta.Items))
		if pushdown {
			w.uvarint(zigzag(int64(f.meta.MinDay)))
			w.uvarint(zigzag(int64(f.meta.MaxDay)))
			for _, c := range f.meta.ByLength {
				w.uvarint(c)
			}
		}
		w.uvarint(uint64(f.raw))
		w.uvarint(uint64(len(f.blob)))
		w.bytes(f.blob)
	})
	for lo := 0; lo < totalItems; lo += shardSize {
		p.Submit(lo)
	}
	p.Close()
}

// bundleSection emits one record family as self-contained bundle shards.
func (w *writer) bundleSection(id byte, recs []jito.BundleRecord, details *jito.DetailSet, clock solana.Clock, workers int) {
	w.sectionV3(id, len(recs), bundleShardSize, workers, true, func(lo, hi int) ([]byte, ShardMeta, error) {
		return encodeBundleShard(recs[lo:hi], details, clock)
	})
}

// internDetails builds a local dictionary over dets in first-use order —
// a pure function of the shard contents, so shard bytes stay
// deterministic at every worker count.
func internDetails(dets []jito.TxDetail) *interner {
	in := newInterner()
	for i := range dets {
		in.intern(dets[i].Signer)
		for _, td := range dets[i].TokenDeltas {
			in.intern(td.Owner)
			in.intern(td.Mint)
		}
	}
	return in
}

// appendLocalInterns emits the per-shard dictionary.
func appendLocalInterns(raw []byte, in *interner) []byte {
	raw = appendUvarint(raw, uint64(len(in.keys)))
	for _, k := range in.keys {
		raw = append(raw, k[:]...)
	}
	return raw
}

// encodeBundleShard lays out one self-contained shard: record columns,
// local dictionary, presence bytes, then detail columns over the present
// details in (record, member) order. A member's detail keeps no
// signature column — its signature is the transaction id at its position
// in the owning record.
func encodeBundleShard(recs []jito.BundleRecord, details *jito.DetailSet, clock solana.Clock) ([]byte, ShardMeta, error) {
	var meta ShardMeta
	meta.Items = len(recs)
	for i := range recs {
		n := len(recs[i].TxIDs)
		if n > jito.MaxBundleTxs {
			n = jito.MaxBundleTxs
		}
		meta.ByLength[n]++
		day := clock.DayOf(recs[i].Slot)
		if i == 0 || day < meta.MinDay {
			meta.MinDay = day
		}
		if i == 0 || day > meta.MaxDay {
			meta.MaxDay = day
		}
	}

	raw, err := encodeRecordShard(recs)
	if err != nil {
		return nil, meta, err
	}

	// Gather the present details in (record, member) order; pres carries
	// one byte per member so absent details (a degraded collection)
	// survive the round trip.
	dets := make([]jito.TxDetail, 0, 3*len(recs))
	pres := make([]byte, 0, 3*len(recs))
	for i := range recs {
		for _, sig := range recs[i].TxIDs {
			if p := details.Index(sig); p >= 0 {
				dets = append(dets, *details.At(p))
				pres = append(pres, 1)
			} else {
				pres = append(pres, 0)
			}
		}
	}
	in := internDetails(dets)
	raw = appendLocalInterns(raw, in)
	raw = append(raw, pres...)
	return appendDetailColumns(raw, dets, in), meta, nil
}

// encodeOrphanShard lays out unreferenced details: local dictionary,
// signature column, detail columns.
func encodeOrphanShard(sigs []solana.Signature, details *jito.DetailSet, clock solana.Clock) ([]byte, ShardMeta, error) {
	var meta ShardMeta
	meta.Items = len(sigs)
	dets := make([]jito.TxDetail, len(sigs))
	for i, sig := range sigs {
		dets[i], _ = details.Get(sig)
		day := clock.DayOf(dets[i].Slot)
		if i == 0 || day < meta.MinDay {
			meta.MinDay = day
		}
		if i == 0 || day > meta.MaxDay {
			meta.MaxDay = day
		}
	}
	in := internDetails(dets)
	raw := appendLocalInterns(make([]byte, 0, 128*len(sigs)), in)
	for _, sig := range sigs {
		raw = append(raw, sig[:]...)
	}
	return appendDetailColumns(raw, dets, in), meta, nil
}

// Batch is one decoded streaming shard. Bundle shards carry Recs plus
// the details that were stored alongside them; orphan shards carry only
// details (Recs is nil). Batches are the unit of a streaming fold:
// decode, analyze, drop.
type Batch struct {
	Recs []jito.BundleRecord

	hasDetails bool
	dets       []jito.TxDetail // present details, (record, member) order
	detOff     []int32         // per record, index of its first detail; len(Recs)+1

	arena *decodeArena // the memory the batch is carved from
}

// HasDetails reports whether detail columns were decoded (false when the
// scan asked for records only).
func (b *Batch) HasDetails() bool { return b.hasDetails }

// Details returns every detail present in the batch in (record, member)
// order — orphan batches return their whole payload. The slice is owned
// by the batch, except in a full load, which hands its array to the
// detail set's Adopt to keep.
func (b *Batch) Details() []jito.TxDetail { return b.dets }

// AppendDetails appends record i's aligned details to dst and reports
// whether every member transaction's detail is present — the same
// all-or-nothing contract as collector.Dataset.AppendDetails, so a
// streaming fold sees exactly what the in-memory pass sees.
func (b *Batch) AppendDetails(dst []jito.TxDetail, i int) ([]jito.TxDetail, bool) {
	lo, hi := b.detOff[i], b.detOff[i+1]
	if int(hi-lo) != len(b.Recs[i].TxIDs) {
		return dst, false
	}
	return append(dst, b.dets[lo:hi]...), true
}

// decodeArena is the memory one decoded shard is carved from: the Batch
// itself, its records and details, and the decode scratch. The scanner
// draws arenas from a pool and hands them back once a shard is consumed
// (after Map, or after a full load has taken the shard over), so a warm
// scan allocates per shard, not per record.
type decodeArena struct {
	batch   Batch
	recs    []jito.BundleRecord
	sigs    []solana.Signature // TxIDs backing
	dets    []jito.TxDetail
	detOff  []int32
	keys    []solana.Pubkey // shard-local dictionary
	counts  []int           // per-detail delta counts
	deltas  []jito.TokenDelta
	payload int // length of the payload last decoded into the arena

	// keepDets gives the details of a batch the fold keeps (a full
	// load's detail set adopts them) an array of exactly their number,
	// which the arena does not take back.
	keepDets bool
	// detsUsed bounds the entries of dets written since they were last
	// cleared, which may still alias TxIDs and TokenDelta arrays.
	detsUsed int
}

var arenas = sync.Pool{New: func() any { return new(decodeArena) }}

// getArena takes an arena from the pool to decode a payload of rawLen
// bytes.
func getArena(rawLen int) *decodeArena {
	a := arenas.Get().(*decodeArena)
	a.payload = rawLen
	return a
}

// recycle returns the arena to the pool; the batch carved from it must
// not be used afterwards. keepBackings withholds the TxIDs and
// TokenDelta arrays, which records copied out of the batch and the
// details a full load adopted still alias, and clears the arena's stale
// references to them. The adopted details array was never the arena's
// (see keepDets). Arenas that decoded an oversized payload are left to
// the collector, like oversized frame buffers.
func (a *decodeArena) recycle(keepBackings bool) {
	a.batch = Batch{}
	if keepBackings {
		a.sigs, a.deltas = nil, nil
		clear(a.recs[:cap(a.recs)])
		clear(a.dets[:a.detsUsed])
		a.detsUsed = 0
	}
	if a.payload <= maxPooledFrame {
		arenas.Put(a)
	}
}

// details returns the array n decoded details go into: the arena's own,
// or with keepDets a fresh one of exactly n that the arena never holds.
func (a *decodeArena) details(n int) []jito.TxDetail {
	if a.keepDets {
		return make([]jito.TxDetail, n)
	}
	a.dets = resize(a.dets, n)
	a.detsUsed = max(a.detsUsed, n)
	return a.dets
}

// resize returns s with length n, reusing its array when it is large
// enough. Reused elements keep stale values; decoders overwrite every
// field.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// readLocalInterns decodes a shard's pubkey dictionary into a.keys.
func readLocalInterns(c *varintCursor, a *decodeArena) ([]solana.Pubkey, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(c.raw)-c.off)/32 {
		return nil, corrupt("dictionary of %d keys exceeds shard size", n)
	}
	col, err := c.take(32 * int(n))
	if err != nil {
		return nil, err
	}
	a.keys = resize(a.keys, int(n))
	keys := a.keys
	for i := range keys {
		copy(keys[i][:], col[32*i:])
	}
	return keys, nil
}

// minRecordBytes is the fixed-width column footprint of one record: seq,
// id, slot, timestamp, tip and transaction count.
const minRecordBytes = 8 + 32 + 8 + 8 + 8 + 1

// decodeBundleShard parses one self-contained shard into a batch carved
// from a. With withDetails false only the record columns are decoded and
// the rest of the payload is deliberately left unparsed — the
// records-only fast path for queries that never touch details. Nothing
// in the batch aliases raw.
func decodeBundleShard(a *decodeArena, items int, raw []byte, withDetails bool) (*Batch, error) {
	if items > len(raw)/minRecordBytes {
		return nil, corrupt("%d records exceed a %d-byte shard", items, len(raw))
	}
	a.recs = resize(a.recs, items)
	b := &a.batch
	*b = Batch{Recs: a.recs, arena: a}
	c := varintCursor{raw: raw}
	if err := decodeRecordColumns(b.Recs, &c, a); err != nil {
		return nil, err
	}
	if !withDetails {
		return b, nil
	}

	keys, err := readLocalInterns(&c, a)
	if err != nil {
		return nil, err
	}
	members := 0
	for i := range b.Recs {
		members += len(b.Recs[i].TxIDs)
	}
	pres, err := c.take(members)
	if err != nil {
		return nil, err
	}
	count := 0
	for _, p := range pres {
		if p > 1 {
			return nil, corrupt("presence byte %d, want 0 or 1", p)
		}
		count += int(p)
	}
	dets := a.details(count)
	a.detOff = resize(a.detOff, items+1)
	detOff := a.detOff
	k, di := 0, 0
	for i := range b.Recs {
		detOff[i] = int32(di)
		for _, sig := range b.Recs[i].TxIDs {
			if pres[k] == 1 {
				dets[di].Sig = sig
				di++
			}
			k++
		}
	}
	detOff[items] = int32(di)
	if err := decodeDetailColumns(dets, &c, keys, a); err != nil {
		return nil, err
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	b.dets, b.detOff = dets, detOff
	b.hasDetails = true
	return b, nil
}

// decodeOrphanShard parses an orphan shard into a details-only batch
// carved from a.
func decodeOrphanShard(a *decodeArena, items int, raw []byte) (*Batch, error) {
	c := varintCursor{raw: raw}
	keys, err := readLocalInterns(&c, a)
	if err != nil {
		return nil, err
	}
	sigCol, err := c.take(64 * items)
	if err != nil {
		return nil, err
	}
	dets := a.details(items)
	for i := range dets {
		copy(dets[i].Sig[:], sigCol[64*i:])
	}
	if err := decodeDetailColumns(dets, &c, keys, a); err != nil {
		return nil, err
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	a.batch = Batch{dets: dets, hasDetails: true, arena: a}
	return &a.batch, nil
}
