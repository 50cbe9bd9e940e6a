package snapshot

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"sync"

	"jitomev/internal/jito"
	"jitomev/internal/solana"
	"jitomev/internal/stats"
)

// maxShardBytes bounds any single frame's claimed raw or compressed
// length. Honest writers stay far below it (shards are ~1 MiB); it
// exists so a corrupt or hostile length prefix cannot demand an
// arbitrary allocation before the payload is even read.
const maxShardBytes = 1 << 28

// maxDeflateRatio is deflate's largest possible expansion: a frame
// claiming more raw bytes than its blob can inflate to is corrupt, caught
// before a buffer is sized from the claim.
const maxDeflateRatio = 1032

// maxReserve caps the records a section header's item count may reserve
// up front, and the room a full load makes in its detail index from the
// same count. The count is only a claim until the shards behind it
// are read, so neither is reserved before the section's first shard has
// decoded; larger honest sections grow past the cap as they decode. No
// other map is sized from a claim.
const maxReserve = 1 << 20

var gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}

// maxPooledFrame bounds the frame buffers the streaming scan recycles.
// Honest shards inflate to ≤ 2 MB; a buffer grown past this for a larger
// (or hostile) frame is left to the collector instead of pinning that
// much memory in the pool.
const maxPooledFrame = 4 << 20

// frameBufs recycles the compressed blob and inflated payload buffers of
// scanned shards.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// getFrameBuf returns a pooled buffer of length n.
func getFrameBuf(n int) *[]byte {
	p := frameBufs.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

// putFrameBuf hands a buffer back to the pool unless it is oversized.
func putFrameBuf(p *[]byte) {
	if cap(*p) <= maxPooledFrame {
		frameBufs.Put(p)
	}
}

// decompressShard inflates blob into raw, whose length is the declared
// decompressed size; the payload must be exactly that long.
func decompressShard(raw, blob []byte) error {
	zr := gzipReaders.Get().(*gzip.Reader)
	defer gzipReaders.Put(zr)
	if err := zr.Reset(bytes.NewReader(blob)); err != nil {
		return corrupt("shard gzip header: %v", err)
	}
	if _, err := io.ReadFull(zr, raw); err != nil {
		return corrupt("shard inflate: %v", err)
	}
	// One byte past the claimed length must be clean EOF — this read
	// also forces the gzip trailer check, so a corrupted blob fails on
	// its CRC here even when it inflates to the right length.
	var one [1]byte
	if n, err := zr.Read(one[:]); n != 0 || err != io.EOF {
		return corrupt("shard not exactly %d declared bytes: %v", len(raw), err)
	}
	return nil
}

// frameHeader is the per-shard prefix.
type frameHeader struct {
	items, rawLen, compLen int
}

// readFrame reads shard number idx's frame. Every failure — including a
// short read truncating the header or body — is a corrupt error naming
// the shard, so a checkpoint cut mid-stream can never load silently.
func readFrame(br *bufio.Reader, idx, itemsLeft int) (frameHeader, []byte, error) {
	var h frameHeader
	for _, dst := range []*int{&h.items, &h.rawLen, &h.compLen} {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return h, nil, corrupt("shard %d: header: %v", idx, err)
		}
		if v > maxShardBytes {
			return h, nil, corrupt("shard %d: length %d exceeds limit", idx, v)
		}
		*dst = int(v)
	}
	if h.rawLen > maxDeflateRatio*h.compLen {
		return h, nil, corrupt("shard %d: %d raw bytes cannot inflate from %d", idx, h.rawLen, h.compLen)
	}
	if h.items > itemsLeft {
		return h, nil, corrupt("shard %d: items %d overflow section total", idx, h.items)
	}
	blob := make([]byte, h.compLen)
	if n, err := io.ReadFull(br, blob); err != nil {
		return h, nil, corrupt("shard %d: body truncated at byte %d of %d: %v", idx, n, h.compLen, err)
	}
	return h, blob, nil
}

// forEachShard reads shardCount plain frames from br in order,
// decompressing and decoding each before the next is read.
// handle(items, raw) is invoked once per shard.
func forEachShard(br *bufio.Reader, shardCount, totalItems int, m *snapObs, handle func(items int, raw []byte) error) error {
	base := 0
	for i := 0; i < shardCount; i++ {
		h, blob, err := readFrame(br, i, totalItems-base)
		if err != nil {
			return err
		}
		m.frame(h.rawLen, h.compLen)
		raw := make([]byte, h.rawLen)
		if err := decompressShard(raw, blob); err != nil {
			return corruptShard(i, err)
		}
		if err := handle(h.items, raw); err != nil {
			return corruptShard(i, err)
		}
		base += h.items
	}
	if base != totalItems {
		return corrupt("section holds %d items, header declared %d", base, totalItems)
	}
	return nil
}

// Read decodes a snapshot from r. workers bounds the shard
// decompress/decode pool (0 = all cores, 1 = serial).
func Read(r io.Reader, workers int) (*Snapshot, error) {
	return read(r, workers, &snapObs{})
}

// readBufferSize sizes the bufio.Reader that Read and Scan wrap a plain
// reader in. Headers and frame prefixes come through it; a frame body
// is read whole with io.ReadFull, whose reads of this size or more go
// around the buffer, so a larger one would only hold memory.
const readBufferSize = 64 << 10

func read(r io.Reader, workers int, m *snapObs) (*Snapshot, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, readBufferSize)
	}
	if err := readMagic(br); err != nil {
		return nil, err
	}
	return readV3(br, workers, m)
}

// readMagic consumes the container magic. Any other head — a retired
// layout's magic, a foreign file, a short read — is ErrCorrupt naming
// what was found.
func readMagic(br *bufio.Reader) error {
	var magic [len(MagicV3)]byte
	if n, err := io.ReadFull(br, magic[:]); err != nil {
		return corrupt("magic %q: %v", magic[:n], err)
	}
	if string(magic[:]) != MagicV3 {
		return corrupt("bad magic %q, want %q (not a snapshot container, or a retired layout)", magic[:], MagicV3)
	}
	return nil
}

// readHistogram decodes a histogram section: 0 shards means nil.
func readHistogram(br *bufio.Reader, shards, total int, m *snapObs) (*stats.LogHistogram, error) {
	if shards == 0 {
		return nil, nil
	}
	h := new(stats.LogHistogram)
	err := forEachShard(br, shards, total, m, func(_ int, raw []byte) error {
		return h.UnmarshalBinary(raw)
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// varintCursor walks a raw shard payload.
type varintCursor struct {
	raw []byte
	off int
}

func (c *varintCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.raw[c.off:])
	if n <= 0 {
		return 0, corrupt("truncated varint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *varintCursor) u64() (uint64, error) {
	if c.off+8 > len(c.raw) {
		return 0, corrupt("truncated u64 at offset %d", c.off)
	}
	v := binary.LittleEndian.Uint64(c.raw[c.off:])
	c.off += 8
	return v, nil
}

func (c *varintCursor) take(n int) ([]byte, error) {
	if n < 0 || c.off+n > len(c.raw) {
		return nil, corrupt("truncated field at offset %d", c.off)
	}
	b := c.raw[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *varintCursor) done() error {
	if c.off != len(c.raw) {
		return corrupt("%d trailing bytes in shard", len(c.raw)-c.off)
	}
	return nil
}

// decodeDays parses the days payload into dst.
func decodeDays(dst map[int]*DayAgg, items int, raw []byte) error {
	c := varintCursor{raw: raw}
	for i := 0; i < items; i++ {
		day, err := c.uvarint()
		if err != nil {
			return err
		}
		agg := new(DayAgg)
		fields := make([]*uint64, 0, 5+len(agg.ByLength))
		fields = append(fields, &agg.Bundles, &agg.Txs)
		for j := range agg.ByLength {
			fields = append(fields, &agg.ByLength[j])
		}
		fields = append(fields, &agg.DefensiveCount, &agg.PriorityCount, &agg.DefensiveSpend)
		for _, f := range fields {
			if *f, err = c.uvarint(); err != nil {
				return err
			}
		}
		dst[int(unzigzag(day))] = agg
	}
	return c.done()
}

// decodeRecordColumns parses the record columns at the cursor into dst
// (one entry per record), leaving the cursor just past them — bundle
// shards continue decoding their dictionary and details from there. Signatures for the
// whole shard share one backing array, drawn from a.
func decodeRecordColumns(dst []jito.BundleRecord, c *varintCursor, a *decodeArena) error {
	n := len(dst)
	col, err := c.take(8 * n)
	if err != nil {
		return err
	}
	for i := range dst {
		dst[i].Seq = binary.LittleEndian.Uint64(col[8*i:])
	}
	if col, err = c.take(32 * n); err != nil {
		return err
	}
	for i := range dst {
		copy(dst[i].ID[:], col[32*i:])
	}
	if col, err = c.take(8 * n); err != nil {
		return err
	}
	for i := range dst {
		dst[i].Slot = solana.Slot(binary.LittleEndian.Uint64(col[8*i:]))
	}
	if col, err = c.take(8 * n); err != nil {
		return err
	}
	for i := range dst {
		dst[i].UnixMs = int64(binary.LittleEndian.Uint64(col[8*i:]))
	}
	if col, err = c.take(8 * n); err != nil {
		return err
	}
	for i := range dst {
		dst[i].TipLamps = binary.LittleEndian.Uint64(col[8*i:])
	}
	counts, err := c.take(n)
	if err != nil {
		return err
	}
	totalSigs := 0
	for _, cnt := range counts {
		totalSigs += int(cnt)
	}
	sigCol, err := c.take(64 * totalSigs)
	if err != nil {
		return err
	}
	a.sigs = resize(a.sigs, totalSigs)
	backing := a.sigs
	for i := range backing {
		copy(backing[i][:], sigCol[64*i:])
	}
	off := 0
	for i := range dst {
		cnt := int(counts[i])
		if cnt > 0 {
			dst[i].TxIDs = backing[off : off+cnt : off+cnt]
		} else {
			dst[i].TxIDs = nil
		}
		off += cnt
	}
	return nil
}

// decodeDetailColumns parses the detail columns at the cursor into dets
// (whose length fixes the item count): signer index, slot, flags, tip,
// delta counts, then the ragged delta triples — the layout shared by
// bundle and orphan shards. Pubkey indices resolve against interned,
// the shard's local dictionary. The delta counts and the TokenDelta
// backing come from a.
func decodeDetailColumns(dets []jito.TxDetail, c *varintCursor, interned []solana.Pubkey, a *decodeArena) error {
	items := len(dets)
	var err error
	pubkey := func() (solana.Pubkey, error) {
		idx, err := c.uvarint()
		if err != nil {
			return solana.Pubkey{}, err
		}
		if idx >= uint64(len(interned)) {
			return solana.Pubkey{}, corrupt("intern index %d out of range %d", idx, len(interned))
		}
		return interned[idx], nil
	}
	for i := range dets {
		if dets[i].Signer, err = pubkey(); err != nil {
			return err
		}
	}
	col, err := c.take(8 * items)
	if err != nil {
		return err
	}
	for i := range dets {
		dets[i].Slot = solana.Slot(binary.LittleEndian.Uint64(col[8*i:]))
	}
	flags, err := c.take(items)
	if err != nil {
		return err
	}
	for i := range dets {
		dets[i].Failed = flags[i]&1 != 0
		dets[i].TipOnly = flags[i]&2 != 0
	}
	for i := range dets {
		if dets[i].TipLamports, err = c.uvarint(); err != nil {
			return err
		}
	}
	a.counts = resize(a.counts, items)
	counts := a.counts
	totalDeltas := 0
	for i := range dets {
		n, err := c.uvarint()
		if err != nil {
			return err
		}
		// Each delta needs ≥3 bytes after the counts column, which bounds
		// the backing array by the shard size before it is allocated.
		if n > uint64(len(c.raw)-c.off)/3 || totalDeltas+int(n) > (len(c.raw)-c.off)/3 {
			return corrupt("delta count %d exceeds shard size", n)
		}
		counts[i] = int(n)
		totalDeltas += int(n)
	}
	a.deltas = resize(a.deltas, totalDeltas)
	backing := a.deltas
	off := 0
	for i := range dets {
		for j := 0; j < counts[i]; j++ {
			td := &backing[off+j]
			if td.Owner, err = pubkey(); err != nil {
				return err
			}
			if td.Mint, err = pubkey(); err != nil {
				return err
			}
			d, err := c.uvarint()
			if err != nil {
				return err
			}
			td.Delta = unzigzag(d)
		}
		if counts[i] > 0 {
			dets[i].TokenDeltas = backing[off : off+counts[i] : off+counts[i]]
		} else {
			dets[i].TokenDeltas = nil
		}
		off += counts[i]
	}
	return nil
}
