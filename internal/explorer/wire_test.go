package explorer

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"jitomev/internal/faults"
	"jitomev/internal/jito"
	"jitomev/internal/solana"
)

// jsonEncode is the reference wire form: what json.Encoder wrote before
// the codec existed.
func jsonEncode(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func randSig(rng *rand.Rand) (s solana.Signature) {
	rng.Read(s[:])
	// Leading zero bytes exercise the '1'-prefix path now and then.
	for i := 0; i < rng.Intn(4) && rng.Intn(3) == 0; i++ {
		s[i] = 0
	}
	return s
}

func randKey(rng *rand.Rand) (p solana.Pubkey) {
	rng.Read(p[:])
	return p
}

// genRecords generates n bundle records of one to five transactions.
func genRecords(rng *rand.Rand, n int) []jito.BundleRecord {
	recs := make([]jito.BundleRecord, n)
	for i := range recs {
		r := &recs[i]
		r.Seq = rng.Uint64() >> uint(rng.Intn(64))
		rng.Read(r.ID[:])
		r.Slot = solana.Slot(rng.Uint64() >> 20)
		r.UnixMs = rng.Int63() - rng.Int63()
		r.TipLamps = rng.Uint64() >> uint(rng.Intn(64))
		r.TxIDs = make([]solana.Signature, 1+rng.Intn(5))
		for j := range r.TxIDs {
			r.TxIDs[j] = randSig(rng)
		}
	}
	return recs
}

// genDetails generates n transaction details with every optional field
// sometimes zero and sometimes set.
func genDetails(rng *rand.Rand, n int) []jito.TxDetail {
	ds := make([]jito.TxDetail, n)
	for i := range ds {
		d := &ds[i]
		d.Sig = randSig(rng)
		d.Signer = randKey(rng)
		d.Slot = solana.Slot(rng.Uint64() >> 20)
		d.Failed = rng.Intn(4) == 0
		if rng.Intn(2) == 0 {
			d.TipLamports = rng.Uint64() >> uint(rng.Intn(64))
		}
		d.TipOnly = rng.Intn(3) == 0
		if k := rng.Intn(4); k > 0 {
			d.TokenDeltas = make([]jito.TokenDelta, k)
			for j := range d.TokenDeltas {
				d.TokenDeltas[j] = jito.TokenDelta{Owner: randKey(rng), Mint: randKey(rng), Delta: rng.Int63() - rng.Int63()}
			}
		}
	}
	return ds
}

// goldenCases are the wire edge cases: nil vs empty slices at every
// level, zero values, integer extremes and each omitempty field both
// ways.
func goldenCases() (recent []RecentResponse, reqs []DetailRequest, resps []DetailResponse) {
	rng := rand.New(rand.NewSource(11))
	var full solana.Signature
	for i := range full {
		full[i] = 0xff
	}
	ids64 := make([]solana.Signature, 64)
	for i := range ids64 {
		ids64[i] = randSig(rng)
	}
	recent = []RecentResponse{
		{},
		{Bundles: []jito.BundleRecord{}},
		{Bundles: []jito.BundleRecord{{}}},
		{Bundles: []jito.BundleRecord{{TxIDs: []solana.Signature{}}}},
		{Bundles: []jito.BundleRecord{{Seq: math.MaxUint64, TipLamps: math.MaxUint64, Slot: math.MaxUint64,
			UnixMs: -1, TxIDs: []solana.Signature{{}, full}}}},
		{Bundles: []jito.BundleRecord{{UnixMs: math.MinInt64}, {UnixMs: math.MaxInt64}}},
		{Bundles: genRecords(rng, 20)},
	}
	reqs = []DetailRequest{{}, {IDs: []solana.Signature{}}, {IDs: []solana.Signature{{}}}, {IDs: ids64}}
	resps = []DetailResponse{
		{},
		{Transactions: []jito.TxDetail{}},
		{Transactions: []jito.TxDetail{{}}},
		{Transactions: []jito.TxDetail{{Failed: true}, {TipLamports: 1}, {TipOnly: true}, {TipLamports: math.MaxUint64}}},
		{Transactions: []jito.TxDetail{{TokenDeltas: []jito.TokenDelta{}}, {TokenDeltas: nil}}},
		{Transactions: []jito.TxDetail{{Failed: true, TipLamports: 5, TipOnly: true, Slot: 9,
			TokenDeltas: []jito.TokenDelta{{Delta: -42}, {Delta: math.MinInt64}, {Delta: math.MaxInt64}, {}}}}},
		{Transactions: genDetails(rng, 30)},
	}
	return recent, reqs, resps
}

// TestWireGoldenMatchesEncodingJSON is the byte-compatibility gate: the
// hand encoders must write exactly what json.Encoder writes, and the
// decoders must take that form on their direct path to the value
// encoding/json decodes from it.
func TestWireGoldenMatchesEncodingJSON(t *testing.T) {
	recent, reqs, resps := goldenCases()
	for i, v := range recent {
		checkGolden(t, fmt.Sprintf("recent[%d]", i), v, AppendRecent(nil, v), parseRecent)
	}
	for i, v := range reqs {
		checkGolden(t, fmt.Sprintf("request[%d]", i), v, AppendDetailRequest(nil, v), parseDetailRequest)
	}
	for i, v := range resps {
		checkGolden(t, fmt.Sprintf("response[%d]", i), v, AppendDetailResponse(nil, v), parseDetailResponse)
	}
}

func checkGolden[T any](t *testing.T, name string, v T, got []byte, parse func([]byte) (T, bool)) {
	t.Helper()
	want := jsonEncode(t, v)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: codec wrote\n%s\nencoding/json wrote\n%s", name, got, want)
	}
	var ref T
	direct, ok := parse(got)
	if !ok {
		t.Fatalf("%s: canonical body fell back to encoding/json", name)
	}
	if err := json.NewDecoder(bytes.NewReader(got)).Decode(&ref); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, ref) {
		t.Fatalf("%s: direct decode %+v, encoding/json %+v", name, direct, ref)
	}
}

// checkDecode compares a codec reader against json.NewDecoder on body:
// the same accept/reject, the same error text and fault class, equal
// values, and every body byte counted.
func checkDecode[T any](t *testing.T, body []byte, read func(io.Reader) (T, int, error)) {
	t.Helper()
	got, n, err := read(bytes.NewReader(body))
	var want T
	werr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if n != len(body) {
		t.Fatalf("read %d of %d body bytes", n, len(body))
	}
	if (err == nil) != (werr == nil) || fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("codec err %v, encoding/json err %v on %q", err, werr, body)
	}
	if err != nil {
		if faults.DecodeClass(err) != faults.DecodeClass(werr) {
			t.Fatalf("fault class %v, want %v", faults.DecodeClass(err), faults.DecodeClass(werr))
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("codec decoded %+v, encoding/json %+v from %q", got, want, body)
	}
}

// chaosBodies returns body damaged the way faults.ChaosHandler damages a
// response: cut in half, or ^0x5a flips at a few offsets.
func chaosBodies(rng *rand.Rand, body []byte) [][]byte {
	out := [][]byte{body[:len(body)/2]}
	for k := 0; k < 3; k++ {
		b := append([]byte(nil), body...)
		for j := 0; j <= k; j++ {
			b[rng.Intn(len(b))] ^= 0x5a
		}
		out = append(out, b)
	}
	return out
}

// nonCanonical are inputs encoding/json accepts (or rejects) that the
// direct path must hand over: whitespace, escapes, reordered and
// repeated keys, case-folded keys, nulls, leading zeros, -0 and
// overflowing numbers, uppercase hex, trailing bytes.
var nonCanonical = []string{
	"", " ", "null", "[]", "{}", ` {"bundles":[]}`, `{"bundles": []}`, `{"Bundles":[]}`,
	`{"bundles":[],"bundles":null}`, `{"bundles":[]}garbage`, `{"bundles":[]`, `{"bundles":[{}]}`,
	`{"bundles":[{"seq":01}]}`, `{"bundles":[{"seq":-0}]}`, `{"bundles":[{"seq":18446744073709551616}]}`,
	`{"bundles":[{"seq":1.5}]}`, `{"transactions":[{"slot":null}]}`, `{"transactions":[{"failed":false}]}`,
	`{"transactions":[{"tokenDeltas":null}]}`, `{"ids":["1"]}`, `{"ids":[null]}`, `{"ids":[1]}`,
}

func TestWireDecodeMatchesEncodingJSON(t *testing.T) {
	recent, reqs, resps := goldenCases()
	rng := rand.New(rand.NewSource(12))
	for _, v := range recent {
		body := AppendRecent(nil, v)
		checkDecode(t, body, ReadRecent)
		for _, bad := range chaosBodies(rng, body) {
			checkDecode(t, bad, ReadRecent)
		}
		upper := bytes.ToUpper(body) // uppercase hex and base58 case swaps
		checkDecode(t, upper, ReadRecent)
	}
	for _, v := range reqs {
		body := AppendDetailRequest(nil, v)
		checkDecode(t, body, ReadDetailRequest)
		for _, bad := range chaosBodies(rng, body) {
			checkDecode(t, bad, ReadDetailRequest)
		}
	}
	for _, v := range resps {
		body := AppendDetailResponse(nil, v)
		checkDecode(t, body, ReadDetailResponse)
		for _, bad := range chaosBodies(rng, body) {
			checkDecode(t, bad, ReadDetailResponse)
		}
	}
	for _, s := range nonCanonical {
		checkDecode(t, []byte(s), ReadRecent)
		checkDecode(t, []byte(s), ReadDetailRequest)
		checkDecode(t, []byte(s), ReadDetailResponse)
	}
}

// failingReader yields body, then fails with err.
type failingReader struct {
	body []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.body) == 0 {
		return 0, f.err
	}
	n := copy(p, f.body)
	f.body = f.body[n:]
	return n, nil
}

// TestWireReadErrorReplayed: a read that fails mid-body decides exactly
// as json.Decoder on the same stream — a value complete before the
// failure still decodes, an incomplete one surfaces the read error.
func TestWireReadErrorReplayed(t *testing.T) {
	boom := errors.New("connection reset")
	body := AppendRecent(nil, RecentResponse{Bundles: genRecords(rand.New(rand.NewSource(13)), 3)})
	for _, cut := range []int{len(body), len(body) - 1, len(body) / 2, 0} {
		got, n, err := ReadRecent(&failingReader{body: body[:cut], err: boom})
		var want RecentResponse
		werr := json.NewDecoder(&failingReader{body: body[:cut], err: boom}).Decode(&want)
		if n != cut || fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: codec (%d, %v), encoding/json %v", cut, n, err, werr)
		}
	}
}

func TestWireEncodersDoNotAllocate(t *testing.T) {
	recent, reqs, resps := goldenCases()
	buf := make([]byte, 0, 1<<16)
	if n := testing.AllocsPerRun(20, func() {
		for _, v := range recent {
			buf = AppendRecent(buf[:0], v)
		}
		for _, v := range reqs {
			buf = AppendDetailRequest(buf[:0], v)
		}
		for _, v := range resps {
			buf = AppendDetailResponse(buf[:0], v)
		}
	}); n != 0 {
		t.Fatalf("encoders allocated %.0f times per run", n)
	}
}

func TestScratchPoolDropsOversizedBuffers(t *testing.T) {
	sp := getScratch()
	big := make([]byte, 0, maxPooledScratch+1)
	putScratch(sp, big)
	for i := 0; i < 4; i++ {
		if p := getScratch(); cap(*p) > maxPooledScratch {
			t.Fatalf("pool handed back a %d-byte buffer", cap(*p))
		}
	}
}

// TestServerRecentLimitAndBefore parses both query parameters from one
// query string: each bad value still gets its own 400, a cursor past
// the high-water still names it, and good pairs page as the store does.
func TestServerRecentLimitAndBefore(t *testing.T) {
	s := NewStore()
	for i := 1; i <= 30; i++ {
		s.Accept(0, fakeAccepted(i, 2))
	}
	srv := httptest.NewServer(NewServer(s, 0))
	defer srv.Close()
	get := func(query string) (int, []byte) {
		resp, err := http.Get(srv.URL + "/api/v1/bundles/recent?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	for _, tc := range []struct{ query, body string }{
		{"limit=abc&before=5", "bad limit"},
		{"limit=0&before=5", "bad limit"},
		{"limit=5&before=xyz", "bad before cursor"},
		{"limit=5&before=-1", "bad before cursor"},
		{"before=xyz&limit=abc", "bad limit"},
		{"limit=5&before=99", "high-water"},
	} {
		status, body := get(tc.query)
		if status != http.StatusBadRequest || !strings.Contains(string(body), tc.body) {
			t.Errorf("%s: %d %q, want 400 naming %q", tc.query, status, body, tc.body)
		}
	}
	for _, tc := range []struct {
		query  string
		before uint64
		limit  int
	}{
		{"limit=4&before=10", 10, 4},
		{"before=10&limit=4", 10, 4},
		{"before=10", 10, 200},
		{"limit=3&before=0", 0, 3},
		{"limit=3&before=31", 31, 3},
		{"limit=50&before=3", 3, 50},
	} {
		status, body := get(tc.query)
		page, err := s.RecentBefore(tc.before, tc.limit)
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusOK || !bytes.Equal(body, jsonEncode(t, RecentResponse{Bundles: page})) {
			t.Errorf("%s: status %d, body differs from the store's page", tc.query, status)
		}
	}
}

// wireCorpus seeds a decode fuzz target with canonical bodies, their
// ChaosHandler-style damage, and the non-canonical inputs.
func wireCorpus(f *testing.F, bodies [][]byte) {
	rng := rand.New(rand.NewSource(14))
	for _, b := range bodies {
		f.Add(b)
		for _, bad := range chaosBodies(rng, b) {
			f.Add(bad)
		}
	}
	for _, s := range nonCanonical {
		f.Add([]byte(s))
	}
}

func FuzzDecodeRecent(f *testing.F) {
	recent, _, _ := goldenCases()
	var bodies [][]byte
	for _, v := range recent {
		bodies = append(bodies, AppendRecent(nil, v))
	}
	wireCorpus(f, bodies)
	// Two different bodies leave a buffer dirty before each input: the
	// 20-record page, and one mixing empty and null transactions.
	dirty := [][]byte{bodies[len(bodies)-1], AppendRecent(nil, recent[3])}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, ReadRecent)
		for _, d := range dirty {
			if !bytes.Equal(d, body) {
				checkReuse(t, d, body, (*PageBuffer).Read, ReadRecent)
			}
		}
	})
}

// checkReuse decodes body through reuse into a PageBuffer left dirty by
// decoding dirty, and requires exactly what fresh returns: the same
// value (nil and empty signature slices told apart), byte count, error
// and fault class.
func checkReuse[T any](t *testing.T, dirty, body []byte, reuse func(*PageBuffer, io.Reader) (T, int, error), fresh func(io.Reader) (T, int, error)) {
	t.Helper()
	var pb PageBuffer
	if _, _, err := reuse(&pb, bytes.NewReader(dirty)); err != nil {
		t.Fatal(err)
	}
	got, n, err := reuse(&pb, bytes.NewReader(body))
	want, wn, werr := fresh(bytes.NewReader(body))
	if n != wn || fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("reused buffer read (%d, %v), fresh (%d, %v) on %q", n, err, wn, werr, body)
	}
	if err != nil && faults.DecodeClass(err) != faults.DecodeClass(werr) {
		t.Fatalf("fault class %v, want %v", faults.DecodeClass(err), faults.DecodeClass(werr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reused buffer decoded %+v, fresh %+v from %q", got, want, body)
	}
}

// TestPageBufferAllocsFlat pins the reusing decode's allocations per
// page: warmed buffers make a 200-record page cost exactly what a
// 20-record page does.
func TestPageBufferAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops body buffers under the race detector")
	}
	rng := rand.New(rand.NewSource(16))
	allocs := func(n int) float64 {
		body := AppendRecent(nil, RecentResponse{Bundles: genRecords(rng, n)})
		r := bytes.NewReader(body)
		var pb PageBuffer
		read := func() {
			r.Reset(body)
			if v, _, err := pb.Read(r); err != nil || len(v.Bundles) != n {
				t.Fatalf("%d-record page: %d records, %v", n, len(v.Bundles), err)
			}
		}
		read()
		return testing.AllocsPerRun(50, read)
	}
	if a20, a200 := allocs(20), allocs(200); a20 != a200 {
		t.Fatalf("warmed decode: %v allocations for 20 records, %v for 200", a20, a200)
	}
}

func FuzzDecodeDetailRequest(f *testing.F) {
	_, reqs, _ := goldenCases()
	var bodies [][]byte
	for _, v := range reqs {
		bodies = append(bodies, AppendDetailRequest(nil, v))
	}
	wireCorpus(f, bodies)
	// The server decodes ids into pooled storage: two different bodies
	// leave it dirty before each input, the 64-id batch and one id.
	dirty := [][]byte{bodies[len(bodies)-1], bodies[2]}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, ReadDetailRequest)
		for _, d := range dirty {
			if !bytes.Equal(d, body) {
				checkReuse(t, d, body, readIDs, ReadDetailRequest)
			}
		}
	})
}

// readIDs is PageBuffer.readIDs with no size hint or limit.
func readIDs(pb *PageBuffer, r io.Reader) (DetailRequest, int, error) { return pb.readIDs(r, 0, 0) }

func FuzzDecodeDetailResponse(f *testing.F) {
	_, _, resps := goldenCases()
	var bodies [][]byte
	for _, v := range resps {
		bodies = append(bodies, AppendDetailResponse(nil, v))
	}
	wireCorpus(f, bodies)
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body, ReadDetailResponse) })
}

// benchPage is a default-size 200-record page.
func benchPage() RecentResponse {
	return RecentResponse{Bundles: genRecords(rand.New(rand.NewSource(15)), 200)}
}

func BenchmarkEncodeRecent(b *testing.B) {
	page := benchPage()
	buf := AppendRecent(nil, page)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendRecent(buf[:0], page)
	}
}

func BenchmarkEncodeRecentJSON(b *testing.B) {
	page := benchPage()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	b.SetBytes(int64(len(jsonEncode(b, page))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := enc.Encode(page); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRecent(b *testing.B) {
	body := AppendRecent(nil, benchPage())
	r := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(body)
		if _, _, err := ReadRecent(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRecentReused(b *testing.B) {
	body := AppendRecent(nil, benchPage())
	r := bytes.NewReader(body)
	var pb PageBuffer
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(body)
		if _, _, err := pb.Read(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRecentJSON(b *testing.B) {
	body := AppendRecent(nil, benchPage())
	r := bytes.NewReader(body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(body)
		var v RecentResponse
		if err := json.NewDecoder(r).Decode(&v); err != nil {
			b.Fatal(err)
		}
	}
}
