package snapshot

import (
	"bufio"
	"encoding/binary"
	"io"
	"sync/atomic"
	"time"

	"jitomev/internal/jito"
	"jitomev/internal/obs"
	"jitomev/internal/parallel"
	"jitomev/internal/stats"
)

// Streaming scan over a snapshot: the out-of-core read path. The
// caller sees the prelude (the Scope, every aggregate stored ahead of
// the bundle sections) once, then one fold call per shard in file order. Frames
// are read serially; shard payloads are decompressed and decoded on a
// parallel.Ordered pool, one per section, so peak live memory is
// proportional to the pool's window × shard size and independent of
// the dataset.

// Section identifies which streaming section a shard belongs to.
type Section byte

const (
	SectionLen3 Section = iota
	SectionLong
	SectionOrphans
)

// String names the section for metrics labels and error messages.
func (s Section) String() string {
	switch s {
	case SectionLen3:
		return "len3"
	case SectionLong:
		return "long"
	case SectionOrphans:
		return "orphans"
	}
	return "unknown"
}

// ScanFold receives every shard of the streaming sections in file order
// on one goroutine — the caller's at Workers 1, otherwise not
// necessarily the caller's. The prelude and each SectionStart still run
// before that section's folds and after every fold of the previous
// section, so state they share with the fold needs no lock. b is nil
// for a pruned shard (its metadata is still delivered, so folds can
// count what was skipped) and for every shard when Map is set — mapped
// then carries Map's result instead. Batches are owned by the fold and
// dropped by the scanner — holding every batch would defeat the
// bounded-memory point.
type ScanFold func(sec Section, m ShardMeta, b *Batch, mapped any) error

// ScanOptions configure a streaming pass. The zero value scans
// everything on all cores, uninstrumented.
type ScanOptions struct {
	// Workers bounds the decompress/decode pool (0 = all cores). At 1,
	// everything runs on the calling goroutine. Frames are always read
	// and pruned on the calling goroutine and folded on one goroutine in
	// shard order, so results are identical at every worker count. After
	// the first fold, Map or decode error no further frame is read.
	Workers int

	// Reg optionally records shard counts, byte totals and scan duration
	// (the same families the batch read path uses, op="scan").
	Reg *obs.Registry

	// Prune, when non-nil, is consulted once per shard in file order
	// before the blob is touched; returning true skips decompression and
	// decode entirely — the reader discards CompLen bytes — and the fold
	// sees a nil batch. Pruning decisions must rely on ShardMeta only.
	Prune func(sec Section, m ShardMeta) bool

	// Map, when non-nil, runs on the worker pool right after a shard is
	// decoded, turning the batch into whatever the fold actually needs
	// (detection partials, counts). The batch is released on the worker —
	// the fold receives b == nil and Map's return value — so per-shard
	// work heavier than the decode itself scales with the pool instead of
	// serializing on the fold. The batch's memory, down to its
	// records' TxIDs and its details' TokenDeltas, is reused for later
	// shards once Map returns: Map must not retain the batch or any slice
	// reachable from it, and must be safe to call concurrently. Pruned
	// shards never reach Map.
	Map func(sec Section, m ShardMeta, b *Batch) (any, error)

	// RecordsOnly, when non-nil and reporting true for a bundle section,
	// leaves that section's detail payloads unparsed: batches carry
	// records with HasDetails() == false. Ignored for the orphans
	// section (which holds nothing but details).
	RecordsOnly func(sec Section) bool

	// SectionStart, when non-nil, runs on the calling goroutine before
	// each streaming section's shards are read, with the totals its
	// header claims — the hook full loads and planners use to size their
	// accounting. The totals are only a claim until the shards are read.
	SectionStart func(sec Section, shards, items int) error

	// keepDetails decodes each batch's details into an array of their
	// exact number that the arena does not take back: the full load's
	// detail set adopts it. Only readV3 sets it.
	keepDetails bool
}

// Scan streams a snapshot from r: prelude once, then one fold call per
// shard of the len3, long and orphans sections, in file order.
func Scan(r io.Reader, opts ScanOptions, prelude func(*Scope) error, fold ScanFold) error {
	m := newSnapObs(opts.Reg, "scan")
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, readBufferSize)
	}
	if err := readMagic(br); err != nil {
		return err
	}
	return scanSections(br, &opts, m, prelude, fold)
}

// readSectionHeader consumes one section header, enforcing the strict
// section order (which is also what turns a cut at a section
// boundary into a loud error).
func readSectionHeader(br *bufio.Reader, want byte) (shards, total int, err error) {
	id, err := br.ReadByte()
	if err != nil {
		return 0, 0, corrupt("section id: %v", err)
	}
	if id != want {
		return 0, 0, corrupt("section %#x, want %#x (sections are strictly ordered)", id, want)
	}
	shards64, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, corrupt("shard count: %v", err)
	}
	total64, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, corrupt("item count: %v", err)
	}
	if shards64 > 1<<24 || total64 > 1<<40 {
		return 0, 0, corrupt("implausible section shape %d/%d", shards64, total64)
	}
	return int(shards64), int(total64), nil
}

// scanSections walks the body (everything after the magic).
func scanSections(br *bufio.Reader, opts *ScanOptions, m *snapObs, preludeFn func(*Scope) error, fold ScanFold) error {
	p := &Scope{}

	shards, total, err := readSectionHeader(br, secMeta)
	if err != nil {
		return err
	}
	if err := forEachShard(br, shards, total, m, func(_ int, raw []byte) error {
		if len(raw) != 24 {
			return corrupt("meta payload %d bytes, want 24", len(raw))
		}
		p.Clock.Genesis = time.Unix(0, int64(binary.LittleEndian.Uint64(raw[0:]))).UTC()
		p.Collected = binary.LittleEndian.Uint64(raw[8:])
		p.Duplicates = binary.LittleEndian.Uint64(raw[16:])
		return nil
	}); err != nil {
		return err
	}

	if shards, total, err = readSectionHeader(br, secDays); err != nil {
		return err
	}
	if total > 0 {
		p.Days = make(map[int]*DayAgg)
	}
	if err := forEachShard(br, shards, total, m, func(items int, raw []byte) error {
		return decodeDays(p.Days, items, raw)
	}); err != nil {
		return err
	}

	for _, h := range []struct {
		id  byte
		dst **stats.LogHistogram
	}{{secTipsLen1, &p.TipsLen1}, {secTipsLen3, &p.TipsLen3}} {
		if shards, total, err = readSectionHeader(br, h.id); err != nil {
			return err
		}
		if *h.dst, err = readHistogram(br, shards, total, m); err != nil {
			return err
		}
	}

	if preludeFn != nil {
		if err := preludeFn(p); err != nil {
			return err
		}
	}

	for _, sec := range []struct {
		id  byte
		sec Section
	}{{secBundles3, SectionLen3}, {secBundlesLong, SectionLong}, {secOrphans, SectionOrphans}} {
		if shards, total, err = readSectionHeader(br, sec.id); err != nil {
			return err
		}
		if opts.SectionStart != nil {
			if err := opts.SectionStart(sec.sec, shards, total); err != nil {
				return err
			}
		}
		if err := scanSection(br, sec.sec, shards, total, opts, m, fold); err != nil {
			return err
		}
	}

	id, err := br.ReadByte()
	if err != nil {
		return corrupt("terminator: %v", err)
	}
	if id != secEnd {
		return corrupt("terminator byte %#x, want %#x", id, secEnd)
	}
	return nil
}

// scanShard is one frame's journey through the scan pipeline.
type scanShard struct {
	idx    int
	meta   ShardMeta
	blob   *[]byte // pooled; returned once inflated
	batch  *Batch
	mapped any
	pruned bool
	err    error
}

// scanSection streams one section. Frames are read serially on the
// calling goroutine, and pruned frames are discarded right there; every
// other frame is submitted to a pool that inflates, decodes and maps it,
// and the fold consumes the results in shard order on one goroutine —
// identical folds at every worker count. The first fold or decode error
// stops the section: no further frame is read, and frames already
// submitted are neither inflated nor mapped once the pool sees it.
func scanSection(br *bufio.Reader, sec Section, shards, total int, opts *ScanOptions, m *snapObs, fold ScanFold) error {
	withDetails := true
	if opts.RecordsOnly != nil && sec != SectionOrphans {
		withDetails = !opts.RecordsOnly(sec)
	}
	var (
		stopped atomic.Bool
		foldErr error // written by the fold, read after Close
	)
	pool := parallel.NewOrdered(opts.Workers, func(sh scanShard) scanShard {
		if sh.pruned {
			return sh
		}
		if stopped.Load() {
			putFrameBuf(sh.blob)
			sh.blob = nil
			return sh
		}
		decodeShard(&sh, sec, withDetails, opts)
		return sh
	}, func(sh scanShard) {
		if foldErr != nil {
			return
		}
		if sh.err == nil {
			sh.err = fold(sec, sh.meta, sh.batch, sh.mapped)
		}
		if sh.err != nil {
			foldErr = sh.err
			stopped.Store(true)
		}
	})

	base := 0
	var readErr error
	for i := 0; i < shards && readErr == nil && !stopped.Load(); i++ {
		sh := scanShard{idx: i}
		if sh.meta, readErr = readFrameV3(br, i, total-base); readErr != nil {
			break
		}
		base += sh.meta.Items
		if opts.Prune != nil && opts.Prune(sec, sh.meta) {
			sh.pruned = true
			if _, err := br.Discard(sh.meta.CompLen); err != nil {
				readErr = corrupt("shard %d: body truncated in skip: %v", i, err)
			}
		} else {
			blob := getFrameBuf(sh.meta.CompLen)
			if n, err := io.ReadFull(br, *blob); err != nil {
				putFrameBuf(blob)
				readErr = corrupt("shard %d: body truncated at byte %d of %d: %v",
					i, n, sh.meta.CompLen, err)
			} else {
				sh.blob = blob
				m.frame(sh.meta.RawLen, sh.meta.CompLen)
			}
		}
		if readErr == nil {
			pool.Submit(sh)
		}
	}
	pool.Close()

	if foldErr != nil {
		return foldErr
	}
	if readErr != nil {
		return readErr
	}
	if base != total {
		return corrupt("section holds %d items, header declared %d", base, total)
	}
	return nil
}

// decodeShard inflates and decodes one read frame, then runs Map over
// the batch when set. The decoders copy everything out of the payload,
// so both frame buffers go back to the pool as soon as the shard is
// decoded; a mapped batch's memory is reused, since Map must not retain
// it. An unmapped batch goes to the fold, which owns it.
func decodeShard(sh *scanShard, sec Section, withDetails bool, opts *ScanOptions) {
	raw := getFrameBuf(sh.meta.RawLen)
	err := decompressShard(*raw, *sh.blob)
	putFrameBuf(sh.blob)
	sh.blob = nil
	if err == nil {
		a := getArena(sh.meta.RawLen)
		a.keepDets = opts.keepDetails
		if sec == SectionOrphans {
			sh.batch, err = decodeOrphanShard(a, sh.meta.Items, *raw)
		} else {
			sh.batch, err = decodeBundleShard(a, sh.meta.Items, *raw, withDetails)
		}
		if err != nil {
			a.recycle(false)
		}
	}
	putFrameBuf(raw)
	if err != nil {
		sh.err = corruptShard(sh.idx, err)
		return
	}
	if opts.Map != nil {
		sh.mapped, sh.err = opts.Map(sec, sh.meta, sh.batch)
		sh.batch.arena.recycle(false)
		sh.batch = nil
	}
}

// readFrameV3 reads one extended frame header (the pushdown metadata
// block), validating it against the section totals so a hostile or
// truncated header cannot demand absurd work.
func readFrameV3(br *bufio.Reader, idx, itemsLeft int) (ShardMeta, error) {
	var m ShardMeta
	next := func(what string) (uint64, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, corrupt("shard %d: %s: %v", idx, what, err)
		}
		return v, nil
	}
	items, err := next("header")
	if err != nil {
		return m, err
	}
	if items > uint64(itemsLeft) {
		return m, corrupt("shard %d: items %d overflow section total", idx, items)
	}
	m.Items = int(items)
	for _, dst := range []*int{&m.MinDay, &m.MaxDay} {
		v, err := next("day bound")
		if err != nil {
			return m, err
		}
		d := unzigzag(v)
		if d < -(1<<32) || d > 1<<32 {
			return m, corrupt("shard %d: implausible day bound %d", idx, d)
		}
		*dst = int(d)
	}
	if m.Items > 0 && m.MinDay > m.MaxDay {
		return m, corrupt("shard %d: inverted day bounds [%d, %d]", idx, m.MinDay, m.MaxDay)
	}
	sum := uint64(0)
	for j := range m.ByLength {
		v, err := next("length histogram")
		if err != nil {
			return m, err
		}
		if v > items {
			return m, corrupt("shard %d: length histogram bucket %d overflows items", idx, v)
		}
		m.ByLength[j] = v
		sum += v
	}
	if sum != items && sum != 0 {
		return m, corrupt("shard %d: length histogram sums %d, want %d or 0", idx, sum, items)
	}
	for _, f := range []struct {
		what string
		dst  *int
	}{{"raw length", &m.RawLen}, {"compressed length", &m.CompLen}} {
		v, err := next(f.what)
		if err != nil {
			return m, err
		}
		if v > maxShardBytes {
			return m, corrupt("shard %d: length %d exceeds limit", idx, v)
		}
		*f.dst = int(v)
	}
	if m.RawLen > maxDeflateRatio*m.CompLen {
		return m, corrupt("shard %d: %d raw bytes cannot inflate from %d", idx, m.RawLen, m.CompLen)
	}
	return m, nil
}

// readV3 is the full-materialization read path: the streaming scan with
// no pruning, reassembling the in-memory Snapshot.
func readV3(br *bufio.Reader, workers int, m *snapObs) (*Snapshot, error) {
	s := &Snapshot{Details: new(jito.DetailSet)}
	// A section's records, and room in the detail index, are reserved
	// from its header's claim only once its first shard has decoded, so
	// a hostile claim alone costs nothing; each is capped at maxReserve.
	// The index is sized by the details per item that first shard held.
	reserve, first := 0, false
	grow := func(dst, recs []jito.BundleRecord) []jito.BundleRecord {
		if dst == nil {
			dst = make([]jito.BundleRecord, 0, max(reserve, len(recs)))
		}
		return append(dst, recs...)
	}
	opts := ScanOptions{
		Workers:     workers,
		keepDetails: true,
		SectionStart: func(_ Section, _, items int) error {
			reserve, first = min(items, maxReserve), true
			return nil
		},
	}
	err := scanSections(br, &opts, m, func(p *Scope) error {
		s.Scope = *p
		return nil
	}, func(sec Section, m ShardMeta, b *Batch, _ any) error {
		if first && m.Items > 0 {
			s.Details.Grow(min(len(b.Details())*reserve/m.Items, maxReserve))
			first = false
		}
		switch sec {
		case SectionLen3:
			s.Len3 = grow(s.Len3, b.Recs)
		case SectionLong:
			s.Long = grow(s.Long, b.Recs)
		}
		// The set adopts the shard's details array as it arrives, copying
		// at most a chunk's worth at either end.
		s.Details.Adopt(b.Details())
		// The set now owns the details array; it and the copied records
		// alias the TxIDs and TokenDelta arrays. The rest of the batch is
		// reused.
		b.arena.recycle(true)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}
