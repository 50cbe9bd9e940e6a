package snapshot

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"sync"

	"jitomev/internal/jito"
	"jitomev/internal/parallel"
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

// maxReserve caps the records or keys a section header's item count may
// reserve up front. The count is only a claim until the shards behind it
// are read; larger honest sections grow past the cap as they decode.
// Maps are never sized from a claim.
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

// forEachShard reads shardCount frames from br in order, decompressing
// and decoding them on a bounded pool of workers: the serial reader
// stays ahead of the pool by at most ~2×workers shards, so peak
// transient memory is bounded by the shard size, not the section.
// handle(base, items, raw) is invoked once per shard with base = the sum
// of preceding shards' items; it must be safe for concurrent calls on
// distinct shards.
func forEachShard(br *bufio.Reader, shardCount, totalItems, workers int, m *snapObs, handle func(base, items int, raw []byte) error) error {
	workers = parallel.Workers(workers)
	if workers == 1 || shardCount <= 1 {
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
			if err := handle(base, h.items, raw); err != nil {
				return corruptShard(i, err)
			}
			base += h.items
		}
		if base != totalItems {
			return corrupt("section holds %d items, header declared %d", base, totalItems)
		}
		return nil
	}

	type job struct {
		idx  int
		base int
		h    frameHeader
		blob []byte
	}
	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}

	jobs := make(chan job, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if failed() {
					continue
				}
				raw := make([]byte, j.h.rawLen)
				err := decompressShard(raw, j.blob)
				if err == nil {
					err = handle(j.base, j.h.items, raw)
				}
				if err != nil {
					fail(corruptShard(j.idx, err))
				}
			}
		}()
	}

	base := 0
	for i := 0; i < shardCount && !failed(); i++ {
		h, blob, err := readFrame(br, i, totalItems-base)
		if err != nil {
			fail(err)
			break
		}
		m.frame(h.rawLen, h.compLen)
		jobs <- job{idx: i, base: base, h: h, blob: blob}
		base += h.items
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if base != totalItems {
		return corrupt("section holds %d items, header declared %d", base, totalItems)
	}
	return nil
}

// Read decodes a v2 or v3 snapshot from r, sniffing the version from
// the magic. workers bounds the shard decompress/decode pool (0 = all
// cores, 1 = serial).
func Read(r io.Reader, workers int) (*Snapshot, error) {
	return read(r, workers, &snapObs{})
}

func read(r io.Reader, workers int, m *snapObs) (*Snapshot, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, corrupt("magic: %v", err)
	}
	switch string(magic[:]) {
	case Magic:
		return readV2(br, workers, m)
	case MagicV3:
		return readV3(br, workers, m)
	default:
		return nil, corrupt("bad magic %q (not a snapshot container)", magic[:])
	}
}

// readV2 decodes the superseded v2 body (everything after the magic).
func readV2(br *bufio.Reader, workers int, m *snapObs) (*Snapshot, error) {
	s := &Snapshot{}
	var interned []solana.Pubkey
	seen := make(map[byte]bool)
	for {
		id, err := br.ReadByte()
		if err != nil {
			return nil, corrupt("section id: %v", err)
		}
		if id == secEnd {
			break
		}
		if seen[id] {
			return nil, corrupt("duplicate section %#x", id)
		}
		seen[id] = true

		shards64, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, corrupt("shard count: %v", err)
		}
		total64, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, corrupt("item count: %v", err)
		}
		if shards64 > 1<<24 || total64 > 1<<40 {
			return nil, corrupt("implausible section shape %d/%d", shards64, total64)
		}
		shards, total := int(shards64), int(total64)

		switch id {
		case secMeta:
			err = forEachShard(br, shards, total, 1, m, func(_, _ int, raw []byte) error {
				if len(raw) != 24 {
					return corrupt("meta payload %d bytes, want 24", len(raw))
				}
				s.Genesis = int64(binary.LittleEndian.Uint64(raw[0:]))
				s.Collected = binary.LittleEndian.Uint64(raw[8:])
				s.Duplicates = binary.LittleEndian.Uint64(raw[16:])
				return nil
			})
		case secDays:
			if total > 0 {
				s.Days = make(map[int]*DayAgg)
			}
			err = forEachShard(br, shards, total, 1, m, func(_, items int, raw []byte) error {
				return decodeDays(s.Days, items, raw)
			})
		case secTipsLen1:
			s.TipsLen1, err = readHistogram(br, shards, total, m)
		case secTipsLen3:
			s.TipsLen3, err = readHistogram(br, shards, total, m)
		case secInterns:
			interned, err = readIndexed(br, shards, total, workers, m, func(dst []solana.Pubkey, raw []byte) error {
				if len(raw) != 32*len(dst) {
					return corrupt("intern shard %d bytes for %d keys", len(raw), len(dst))
				}
				for i := range dst {
					copy(dst[i][:], raw[32*i:])
				}
				return nil
			})
		case secLen3, secLong:
			var recs []jito.BundleRecord
			recs, err = readIndexed(br, shards, total, workers, m, func(dst []jito.BundleRecord, raw []byte) error {
				return decodeRecordShard(dst, raw, new(decodeArena))
			})
			if id == secLen3 {
				s.Len3 = recs
			} else {
				s.Long = recs
			}
		case secDetails:
			s.Details = make(map[solana.Signature]jito.TxDetail)
			var mu sync.Mutex
			err = forEachShard(br, shards, total, workers, m, func(_, items int, raw []byte) error {
				return decodeDetailShard(s.Details, &mu, items, raw, interned, new(decodeArena))
			})
		default:
			return nil, corrupt("unknown section %#x", id)
		}
		if err != nil {
			return nil, err
		}
	}
	// The writer emits every section unconditionally (empty sections have
	// zero shards), so a missing one means the stream was cut at a section
	// boundary — a truncation shape that would otherwise load as a
	// silently smaller dataset if the next byte happened to read as 0xFF.
	for _, id := range []byte{secMeta, secDays, secTipsLen1, secTipsLen3,
		secInterns, secLen3, secLong, secDetails} {
		if !seen[id] {
			return nil, corrupt("missing section %#x (truncated at a section boundary?)", id)
		}
	}
	return s, nil
}

// readIndexed decodes a v2 section whose shards fill consecutive ranges
// of one slice (nil when the section is empty). A total within
// maxReserve is allocated up front and filled in parallel; a larger
// claim is not trusted, so the slice grows shard by shard on one worker,
// each shard bounded by its real payload.
func readIndexed[T any](br *bufio.Reader, shards, total, workers int, m *snapObs, decode func(dst []T, raw []byte) error) ([]T, error) {
	var out []T
	if total <= maxReserve {
		if total > 0 {
			out = make([]T, total)
		}
	} else {
		workers = 1
	}
	err := forEachShard(br, shards, total, workers, m, func(base, items int, raw []byte) error {
		if base+items > len(out) {
			if items > len(raw) {
				return corrupt("%d items exceed a %d-byte shard", items, len(raw))
			}
			out = append(out, make([]T, base+items-len(out))...)
		}
		return decode(out[base:base+items], raw)
	})
	return out, err
}

// readHistogram decodes a histogram section: 0 shards means nil.
func readHistogram(br *bufio.Reader, shards, total int, m *snapObs) (*stats.LogHistogram, error) {
	if shards == 0 {
		return nil, nil
	}
	h := new(stats.LogHistogram)
	err := forEachShard(br, shards, total, 1, m, func(_, _ int, raw []byte) error {
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

// decodeRecordShard parses a columnar record shard into dst (one entry
// per record).
func decodeRecordShard(dst []jito.BundleRecord, raw []byte, a *decodeArena) error {
	c := varintCursor{raw: raw}
	if err := decodeRecordColumns(dst, &c, a); err != nil {
		return err
	}
	return c.done()
}

// decodeRecordColumns parses the record columns at the cursor into dst
// (one entry per record), leaving the cursor just past them — v3 bundle
// shards continue decoding detail columns from there. Signatures for the
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

// decodeDetailShard parses a detail shard and inserts the entries into
// dst under mu. Parsing — the expensive part — runs outside the lock.
func decodeDetailShard(dst map[solana.Signature]jito.TxDetail, mu *sync.Mutex, items int, raw []byte, interned []solana.Pubkey, a *decodeArena) error {
	c := varintCursor{raw: raw}
	sigCol, err := c.take(64 * items)
	if err != nil {
		return err
	}
	dets := make([]jito.TxDetail, items)
	for i := range dets {
		copy(dets[i].Sig[:], sigCol[64*i:])
	}
	if err := decodeDetailColumns(dets, &c, interned, a); err != nil {
		return err
	}
	if err := c.done(); err != nil {
		return err
	}
	mu.Lock()
	for i := range dets {
		dst[dets[i].Sig] = dets[i]
	}
	mu.Unlock()
	return nil
}

// decodeDetailColumns parses the detail columns at the cursor into dets
// (whose length fixes the item count): signer index, slot, flags, tip,
// delta counts, then the ragged delta triples — the layout shared by the
// v2 details section and the v3 bundle/orphan shards. Pubkey indices
// resolve against interned (the global v2 table or a v3 shard-local
// dictionary). The delta counts and the TokenDelta backing come from a.
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
