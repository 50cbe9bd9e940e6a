package explorer

// The explorer's wire codec. Both sides of the API — the server's
// handlers and the collector's HTTP transport — encode and decode the
// three JSON bodies here rather than through reflection:
//
//   - The Append* encoders reproduce json.NewEncoder(w).Encode byte for
//     byte: field order, omitempty, null for a nil slice and [] for an
//     empty one, and the trailing newline. Base58 and hex go straight
//     into the output buffer.
//   - The Read* decoders read a body whole, parse the canonical form the
//     encoders emit directly into fresh values, and hand any other input
//     to json.NewDecoder over the same bytes (followed by the same read
//     error, if any). Accept/reject, leniency and the error itself are
//     therefore encoding/json's on every input.
//   - PageBuffer.Read is ReadRecent decoding into storage it reuses: one
//     record slice and one flat signature arena per buffer. The server
//     decodes detail requests into a pooled PageBuffer's arena the same
//     way.
//   - A body cut off at an http.MaxBytesReader cap is refused with the
//     cap's error, not decoded as a prefix.
//
// Body bytes live in pooled scratch buffers; a buffer that grew past
// maxPooledScratch is dropped rather than pooled, so one huge page
// cannot pin its size in the heap. A PageBuffer likewise keeps nothing
// past one MaxPageLimit page of MaxBundleTxs-long bundles.

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"jitomev/internal/base58"
	"jitomev/internal/jito"
	"jitomev/internal/solana"
)

// maxPooledScratch caps the buffers kept for reuse: a default 200-record
// page or a few-thousand-id detail batch fits; a widened 50,000-record
// page does not and is left to the collector.
const maxPooledScratch = 1 << 20

var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

func getScratch() *[]byte { return scratchPool.Get().(*[]byte) }

// putScratch returns b's storage to the pool unless it outgrew the cap.
func putScratch(sp *[]byte, b []byte) {
	if cap(b) > maxPooledScratch {
		return
	}
	*sp = b[:0]
	scratchPool.Put(sp)
}

// writeWire writes v's wire form as one JSON response, encoded into a
// pooled scratch buffer. One Write of the whole body frames the response
// exactly as json.Encoder did.
func writeWire[T any](w http.ResponseWriter, v T, enc func([]byte, T) []byte) {
	w.Header().Set("Content-Type", "application/json")
	sp := getScratch()
	b := enc((*sp)[:0], v)
	// A failed write is a connection-level failure; nothing useful is
	// left to do.
	w.Write(b) //nolint:errcheck
	putScratch(sp, b)
}

// AppendRecent appends the json.Encoder form of v to dst.
func AppendRecent(dst []byte, v RecentResponse) []byte {
	dst = append(dst, `{"bundles":`...)
	if v.Bundles == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range v.Bundles {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendRecord(dst, &v.Bundles[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

// AppendDetailRequest appends the json.Encoder form of v to dst.
func AppendDetailRequest(dst []byte, v DetailRequest) []byte {
	dst = append(dst, `{"ids":`...)
	dst = appendSigs(dst, v.IDs)
	return append(dst, "}\n"...)
}

// AppendDetailResponse appends the json.Encoder form of v to dst.
func AppendDetailResponse(dst []byte, v DetailResponse) []byte {
	dst = append(dst, `{"transactions":`...)
	if v.Transactions == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range v.Transactions {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendDetail(dst, &v.Transactions[i])
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...)
}

func appendRecord(dst []byte, r *jito.BundleRecord) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, r.Seq, 10)
	dst = append(dst, `,"bundleId":"`...)
	dst = hex.AppendEncode(dst, r.ID[:])
	dst = append(dst, `","slot":`...)
	dst = strconv.AppendUint(dst, uint64(r.Slot), 10)
	dst = append(dst, `,"timestamp":`...)
	dst = strconv.AppendInt(dst, r.UnixMs, 10)
	dst = append(dst, `,"transactions":`...)
	dst = appendSigs(dst, r.TxIDs)
	dst = append(dst, `,"tipLamports":`...)
	dst = strconv.AppendUint(dst, r.TipLamps, 10)
	return append(dst, '}')
}

func appendSigs(dst []byte, sigs []solana.Signature) []byte {
	if sigs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range sigs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = sigs[i].AppendJSON(dst)
	}
	return append(dst, ']')
}

func appendDetail(dst []byte, d *jito.TxDetail) []byte {
	dst = append(dst, `{"signature":`...)
	dst = d.Sig.AppendJSON(dst)
	dst = append(dst, `,"signer":`...)
	dst = d.Signer.AppendJSON(dst)
	dst = append(dst, `,"slot":`...)
	dst = strconv.AppendUint(dst, uint64(d.Slot), 10)
	if d.Failed {
		dst = append(dst, `,"failed":true`...)
	}
	if d.TipLamports != 0 {
		dst = append(dst, `,"tipLamports":`...)
		dst = strconv.AppendUint(dst, d.TipLamports, 10)
	}
	if d.TipOnly {
		dst = append(dst, `,"tipOnly":true`...)
	}
	if len(d.TokenDeltas) > 0 {
		dst = append(dst, `,"tokenDeltas":[`...)
		for i := range d.TokenDeltas {
			td := &d.TokenDeltas[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"owner":`...)
			dst = td.Owner.AppendJSON(dst)
			dst = append(dst, `,"mint":`...)
			dst = td.Mint.AppendJSON(dst)
			dst = append(dst, `,"delta":`...)
			dst = strconv.AppendInt(dst, td.Delta, 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// ReadRecent reads r to EOF and decodes the body as
// json.NewDecoder(r).Decode into a zero RecentResponse would. It also
// returns the number of body bytes read.
func ReadRecent(r io.Reader) (RecentResponse, int, error) {
	return readWire(r, parseRecent)
}

// Bounds on the storage a PageBuffer keeps between pages: what one
// MaxPageLimit page of MaxBundleTxs-long bundles needs (compare
// maxPooledScratch and maxPooledPage).
const (
	maxKeptRecords = MaxPageLimit
	maxKeptSigs    = MaxPageLimit * jito.MaxBundleTxs
)

// PageBuffer is reusable decode storage for recent-bundles pages: one
// record slice and one flat signature arena that every decoded record's
// TxIDs slices into. A response Read returns aliases the buffer and is
// valid until the next Read on it; a caller copies whatever it keeps.
// A page that needed more storage than one MaxPageLimit page of
// MaxBundleTxs-long bundles is decoded into fresh memory, and the
// buffer then keeps nothing. The zero value is ready to use; a
// PageBuffer is not safe for concurrent use.
type PageBuffer struct {
	recs []jito.BundleRecord
	sigs []solana.Signature
}

// Read decodes r's body exactly as ReadRecent does, into pb's storage.
func (pb *PageBuffer) Read(r io.Reader) (RecentResponse, int, error) {
	return readWire(r, pb.parse)
}

// Retained reports the record and signature capacities pb keeps for
// the next Read.
func (pb *PageBuffer) Retained() (records, sigs int) {
	return cap(pb.recs), cap(pb.sigs)
}

// ReadDetailRequest is ReadRecent for a DetailRequest body.
func ReadDetailRequest(r io.Reader) (DetailRequest, int, error) {
	return readWire(r, parseDetailRequest)
}

// ReadDetailResponse is ReadRecent for a DetailResponse body.
func ReadDetailResponse(r io.Reader) (DetailResponse, int, error) {
	return readWire(r, parseDetailResponse)
}

// SizedBody is a body whose size is partly known: Hint is its declared
// length (an HTTP Content-Length, or ≤ 0 when unknown) and Limit the most
// bytes R yields (a cap on it, or 0 when unbounded). The Read* decoders
// size their buffer for Hint (at most Limit) once rather than growing it,
// and never grow it further past Limit than one read that detects the
// end needs.
type SizedBody struct {
	R     io.Reader
	Hint  int64
	Limit int64
}

// Read implements io.Reader.
func (b *SizedBody) Read(p []byte) (int, error) { return b.R.Read(p) }

// readWire reads r whole into a pooled buffer and decodes it: the
// canonical form through parse, anything else (or a body whose read
// failed) through json.Decoder over the same bytes and error. parse
// returns its value rather than filling a pointer, so the value stays
// off the heap on the canonical path. A *SizedBody sizes the read.
func readWire[T any](r io.Reader, parse func([]byte) (T, bool)) (T, int, error) {
	var hint, limit int64
	if b, ok := r.(*SizedBody); ok {
		r, hint, limit = b.R, b.Hint, b.Limit
	}
	return readSized(r, hint, limit, parse)
}

// readSized is readWire with the body's size hint and limit given.
func readSized[T any](r io.Reader, hint, limit int64, parse func([]byte) (T, bool)) (T, int, error) {
	sp := getScratch()
	body, rerr := readAll((*sp)[:0], r, hint, limit)
	var v T
	ok := false
	if rerr == nil {
		v, ok = parse(body)
	}
	var err error
	switch {
	case ok:
	case rerr != nil && tooLarge(rerr):
		err = rerr
	default:
		v, err = decodeJSON[T](body, rerr)
	}
	n := len(body)
	putScratch(sp, body)
	return v, n, err
}

// decodeJSON decodes body, followed by rerr when it is not nil, with
// json.Decoder into a zero T.
func decodeJSON[T any](body []byte, rerr error) (T, error) {
	var v T
	var src io.Reader = bytes.NewReader(body)
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	err := json.NewDecoder(src).Decode(&v)
	return v, err
}

// readSpare is the least free space readAll reads into.
const readSpare = 512

// readAll is io.ReadAll appending to dst; EOF is not an error. A
// positive hint (capped at a positive limit) is the expected body
// length: dst is sized for it once. Otherwise dst doubles as it fills,
// except that a step that would reach limit goes to limit plus the spare
// that one more read needs to see the end: the most a reader capped at
// limit can return.
func readAll(dst []byte, r io.Reader, hint, limit int64) ([]byte, error) {
	if limit > 0 && hint > limit {
		hint = limit
	}
	if hint > 0 && int64(cap(dst)-len(dst)) < hint+readSpare {
		dst = regrow(dst, len(dst)+int(hint)+readSpare)
	}
	for {
		if cap(dst)-len(dst) < readSpare {
			n := max(2*cap(dst), len(dst)+readSpare)
			if limit > 0 && int64(n) >= limit {
				n = max(int(limit), len(dst)) + readSpare
			}
			dst = regrow(dst, n)
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// regrow copies dst into fresh storage of capacity n.
func regrow(dst []byte, n int) []byte {
	grown := make([]byte, len(dst), n)
	copy(grown, dst)
	return grown
}

// tooLarge reports whether err is an http.MaxBytesReader's cap.
func tooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// errReader replays a read error after the bytes that preceded it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// Lower bounds on the canonical size of one element, used to cap the
// pre-sized slices so a hostile body cannot request more memory than
// its own length justifies.
const (
	minRecordLen = len(`{"seq":0,"bundleId":"","slot":0,"timestamp":0,"transactions":null,"tipLamports":0}`) + 64
	minDetailLen = len(`{"signature":"","signer":"","slot":0}`) + 64 + 32
	minDeltaLen  = len(`{"owner":"","mint":"","delta":0}`) + 32 + 32
	minSigLen    = len(`""`) + 64
)

// parseRecent parses a canonical recent page into fresh storage.
func parseRecent(b []byte) (RecentResponse, bool) {
	var pb PageBuffer
	return pb.parse(b)
}

// parse is the canonical recent-page parser. It sizes the record slice
// and the signature arena once, from the body: in the canonical form
// every quote belongs to the top-level key, to one of a record's six
// keys or its bundle id, or to a signature, so the counts are exact,
// and each is capped by what the body's length could hold.
func (pb *PageBuffer) parse(b []byte) (v RecentResponse, ok bool) {
	p := parser{b: b, ok: true}
	p.lit(`{"bundles":`)
	if !p.null() {
		p.lit("[")
		if !p.ok {
			return v, false
		}
		nrec := min(bytes.Count(b, []byte(`{"seq":`)), len(b)/minRecordLen)
		nsig := min(max(bytes.Count(b, []byte{'"'})/2-1-7*nrec, 0), len(b)/minSigLen)
		recs, sigs := pb.recs[:0], pb.sigs[:0]
		if cap(recs) < nrec {
			recs = make([]jito.BundleRecord, 0, nrec)
		}
		if cap(sigs) < nsig {
			sigs = make([]solana.Signature, 0, nsig)
		}
		p.arena = sigs
		for more := !p.skip(']'); more && p.ok; more = p.next() {
			recs = append(recs, jito.BundleRecord{})
			p.record(&recs[len(recs)-1])
		}
		if recs == nil {
			recs = []jito.BundleRecord{}
		}
		v.Bundles = recs
		pb.keep(recs, p.arena)
	}
	p.lit("}")
	return v, p.ok
}

// keep retains the page's storage for the next Read. A page past either
// bound keeps nothing: its records point into an arena too large to
// hold, and a normal page regrows both buffers at its own size.
func (pb *PageBuffer) keep(recs []jito.BundleRecord, sigs []solana.Signature) {
	if cap(recs) > maxKeptRecords || cap(sigs) > maxKeptSigs {
		pb.recs, pb.sigs = nil, nil
		return
	}
	pb.recs, pb.sigs = recs[:0], sigs[:0]
}

// readIDs decodes r's body exactly as ReadDetailRequest does, into pb's
// signature arena: the ids are valid until the next read on pb.
func (pb *PageBuffer) readIDs(r io.Reader, hint, limit int64) (DetailRequest, int, error) {
	return readSized(r, hint, limit, pb.parseIDs)
}

// parseDetailRequest parses a canonical detail request into fresh
// storage.
func parseDetailRequest(b []byte) (DetailRequest, bool) {
	var pb PageBuffer
	return pb.parseIDs(b)
}

// parseIDs is the canonical detail-request parser. Every quote pair but
// the key's is a signature's, so the arena is sized once, from the body.
func (pb *PageBuffer) parseIDs(b []byte) (v DetailRequest, ok bool) {
	p := parser{b: b, ok: true}
	n := min(max(bytes.Count(b, []byte{'"'})/2-1, 0), len(b)/minSigLen)
	p.arena = pb.sigs[:0]
	if cap(p.arena) < n {
		p.arena = make([]solana.Signature, 0, n)
	}
	p.lit(`{"ids":`)
	v.IDs = p.sigs()
	p.lit("}")
	pb.keep(pb.recs, p.arena)
	return v, p.ok
}

func parseDetailResponse(b []byte) (v DetailResponse, ok bool) {
	p := parser{b: b, ok: true}
	p.lit(`{"transactions":`)
	if !p.null() {
		p.lit("[")
		n := min(bytes.Count(b, []byte(`{"signature":`)), len(b)/minDetailLen)
		v.Transactions = make([]jito.TxDetail, 0, n)
		for more := !p.skip(']'); more && p.ok; more = p.next() {
			v.Transactions = append(v.Transactions, jito.TxDetail{})
			p.detail(&v.Transactions[len(v.Transactions)-1])
		}
	}
	p.lit("}")
	return v, p.ok
}

// parser walks the canonical wire form. Any deviation clears ok, after
// which every method is a no-op; the caller then falls back to
// encoding/json.
type parser struct {
	b  []byte
	i  int
	ok bool

	// arena holds every signature sigs parses, sized once per body.
	arena []solana.Signature
}

// lit consumes the exact bytes s.
func (p *parser) lit(s string) {
	if p.ok && len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return
	}
	p.ok = false
}

// skip consumes c if it is next.
func (p *parser) skip(c byte) bool {
	if p.ok && p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// null consumes a null literal if it is next.
func (p *parser) null() bool {
	if p.ok && len(p.b)-p.i >= 4 && string(p.b[p.i:p.i+4]) == "null" {
		p.i += 4
		return true
	}
	return false
}

// next ends one array element: true after a comma, false after the
// closing bracket.
func (p *parser) next() bool {
	if p.skip(',') {
		return true
	}
	p.lit("]")
	return false
}

// uint parses a canonical unsigned integer: no sign, no leading zero,
// no fraction or exponent, in range.
func (p *parser) uint() uint64 {
	if !p.ok {
		return 0
	}
	start := p.i
	var v uint64
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		d := uint64(p.b[p.i] - '0')
		if v > (math.MaxUint64-d)/10 {
			p.ok = false
			return 0
		}
		v = v*10 + d
		p.i++
	}
	if n := p.i - start; n == 0 || (n > 1 && p.b[start] == '0') {
		p.ok = false
	}
	return v
}

// int parses a canonical signed integer ("-0" is not canonical).
func (p *parser) int() int64 {
	neg := p.skip('-')
	u := p.uint()
	switch {
	case !neg && u <= math.MaxInt64:
		return int64(u)
	case neg && u != 0 && u <= 1<<63:
		return int64(-u)
	}
	p.ok = false
	return 0
}

// quoted58 decodes a plain quoted base58 literal into dst.
func (p *parser) quoted58(dst []byte) {
	if !p.skip('"') {
		p.ok = false
		return
	}
	end := bytes.IndexByte(p.b[p.i:], '"')
	if end < 0 || base58.DecodeBytesInto(dst, p.b[p.i:p.i+end]) != nil {
		p.ok = false
		return
	}
	p.i += end + 1
}

// sigs parses a null or an array of signature literals into the arena:
// the result is a window of it, capped so an append to one record's
// TxIDs cannot reach the next record's.
func (p *parser) sigs() []solana.Signature {
	if p.null() {
		return nil
	}
	p.lit("[")
	start := len(p.arena)
	for more := !p.skip(']'); more && p.ok; more = p.next() {
		p.arena = append(p.arena, solana.Signature{})
		p.quoted58(p.arena[len(p.arena)-1][:])
	}
	if len(p.arena) == start {
		// Empty, not nil: a window of an arena without storage would
		// be nil.
		return []solana.Signature{}
	}
	return p.arena[start:len(p.arena):len(p.arena)]
}

func (p *parser) record(r *jito.BundleRecord) {
	p.lit(`{"seq":`)
	r.Seq = p.uint()
	p.lit(`,"bundleId":"`)
	p.hex(r.ID[:])
	p.lit(`","slot":`)
	r.Slot = solana.Slot(p.uint())
	p.lit(`,"timestamp":`)
	r.UnixMs = p.int()
	p.lit(`,"transactions":`)
	r.TxIDs = p.sigs()
	p.lit(`,"tipLamports":`)
	r.TipLamps = p.uint()
	p.lit("}")
}

// hex decodes exactly 2·len(dst) hex digits into dst.
func (p *parser) hex(dst []byte) {
	n := 2 * len(dst)
	if !p.ok || len(p.b)-p.i < n {
		p.ok = false
		return
	}
	if _, err := hex.Decode(dst, p.b[p.i:p.i+n]); err != nil {
		p.ok = false
		return
	}
	p.i += n
}

// bool parses a JSON boolean literal.
func (p *parser) bool() bool {
	if p.null() {
		// null is valid JSON for a bool field but leaves it untouched;
		// not canonical, so let encoding/json say so.
		p.ok = false
		return false
	}
	if p.ok && len(p.b)-p.i >= 4 && string(p.b[p.i:p.i+4]) == "true" {
		p.i += 4
		return true
	}
	p.lit("false")
	return false
}

// key consumes `,"name":` if it is next and reports whether it did:
// the omitempty fields of a detail are optional but ordered.
func (p *parser) key(name string) bool {
	n := len(name)
	if p.ok && len(p.b)-p.i >= n+4 && p.b[p.i] == ',' && p.b[p.i+1] == '"' &&
		string(p.b[p.i+2:p.i+2+n]) == name && p.b[p.i+2+n] == '"' && p.b[p.i+3+n] == ':' {
		p.i += n + 4
		return true
	}
	return false
}

func (p *parser) detail(d *jito.TxDetail) {
	p.lit(`{"signature":`)
	p.quoted58(d.Sig[:])
	p.lit(`,"signer":`)
	p.quoted58(d.Signer[:])
	p.lit(`,"slot":`)
	d.Slot = solana.Slot(p.uint())
	if p.key("failed") {
		d.Failed = p.bool()
	}
	if p.key("tipLamports") {
		d.TipLamports = p.uint()
	}
	if p.key("tipOnly") {
		d.TipOnly = p.bool()
	}
	if p.key("tokenDeltas") {
		d.TokenDeltas = p.deltas()
	}
	p.lit("}")
}

// deltas parses a null or an array of token deltas.
func (p *parser) deltas() []jito.TokenDelta {
	if p.null() {
		return nil
	}
	p.lit("[")
	if !p.ok {
		return nil
	}
	span := bytes.IndexByte(p.b[p.i:], ']')
	if span < 0 {
		p.ok = false
		return nil
	}
	n := min(bytes.Count(p.b[p.i:p.i+span], []byte{'{'}), span/minDeltaLen+1)
	out := make([]jito.TokenDelta, 0, n)
	for more := !p.skip(']'); more && p.ok; more = p.next() {
		out = append(out, jito.TokenDelta{})
		td := &out[len(out)-1]
		p.lit(`{"owner":`)
		p.quoted58(td.Owner[:])
		p.lit(`,"mint":`)
		p.quoted58(td.Mint[:])
		p.lit(`,"delta":`)
		td.Delta = p.int()
		p.lit("}")
	}
	return out
}
