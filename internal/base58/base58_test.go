package base58

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

var vectors = []struct {
	raw []byte
	enc string
}{
	{[]byte{}, ""},
	{[]byte{0}, "1"},
	{[]byte{0, 0, 0}, "111"},
	{[]byte{57}, "z"},
	{[]byte{58}, "21"},
	{[]byte{255}, "5Q"},
	{[]byte("hello world"), "StV1DL6CwTryKyV"},
	{[]byte{0, 0, 40, 127, 180, 205}, "11233QC4"},
	{[]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, "4HUtbHhN2TkpR"},
}

func TestEncodeVectors(t *testing.T) {
	for _, v := range vectors {
		if got := Encode(v.raw); got != v.enc {
			t.Errorf("Encode(%v) = %q, want %q", v.raw, got, v.enc)
		}
	}
}

func TestDecodeVectors(t *testing.T) {
	for _, v := range vectors {
		got, err := Decode(v.enc)
		if err != nil {
			t.Fatalf("Decode(%q): %v", v.enc, err)
		}
		if !bytes.Equal(got, v.raw) {
			t.Errorf("Decode(%q) = %v, want %v", v.enc, got, v.raw)
		}
	}
}

func TestDecodeInvalidCharacter(t *testing.T) {
	for _, s := range []string{"0", "O", "I", "l", "abc!", "Zz0"} {
		if _, err := Decode(s); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", s)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(b []byte) bool {
		dec, err := Decode(Encode(b))
		return err == nil && bytes.Equal(dec, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripFixedWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{32, 64} {
		for i := 0; i < 200; i++ {
			b := make([]byte, n)
			rng.Read(b)
			dst := make([]byte, n)
			if err := DecodeInto(dst, Encode(b)); err != nil {
				t.Fatalf("DecodeInto width %d: %v", n, err)
			}
			if !bytes.Equal(dst, b) {
				t.Fatalf("width %d round trip mismatch", n)
			}
		}
	}
}

func TestDecodeIntoWrongLength(t *testing.T) {
	var dst [32]byte
	if err := DecodeInto(dst[:], Encode([]byte{1, 2, 3})); err == nil {
		t.Fatal("DecodeInto accepted short input")
	}
}

func TestLeadingZerosPreserved(t *testing.T) {
	f := func(b []byte) bool {
		withZeros := append([]byte{0, 0, 0, 0}, b...)
		dec, err := Decode(Encode(withZeros))
		return err == nil && bytes.Equal(dec, withZeros)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode32(b *testing.B) {
	var key [32]byte
	rand.New(rand.NewSource(7)).Read(key[:])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(key[:])
	}
}

func BenchmarkDecode32(b *testing.B) {
	var key [32]byte
	rand.New(rand.NewSource(7)).Read(key[:])
	s := Encode(key[:])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(s); err != nil {
			b.Fatal(err)
		}
	}
}

// fixedInputs returns 32- and 64-byte inputs that stress the fixed-width
// path: random values, leading zero runs of every length, all-zero and
// all-0xff.
func fixedInputs(rng *rand.Rand) [][]byte {
	var out [][]byte
	for _, n := range []int{32, 64} {
		out = append(out, make([]byte, n), bytes.Repeat([]byte{0xff}, n))
		for z := 0; z <= n; z++ {
			b := make([]byte, n)
			rng.Read(b[z:])
			out = append(out, b)
		}
		for i := 0; i < 200; i++ {
			b := make([]byte, n)
			rng.Read(b)
			out = append(out, b)
		}
	}
	return out
}

func TestFixedEncodeMatchesGeneric(t *testing.T) {
	for _, b := range fixedInputs(rand.New(rand.NewSource(2))) {
		want := string(appendGeneric(nil, b))
		if got := string(AppendEncode(nil, b)); got != want {
			t.Fatalf("AppendEncode(%x) = %q, want %q", b, got, want)
		}
		if got := Encode(b); got != want {
			t.Fatalf("Encode(%x) = %q, want %q", b, got, want)
		}
		if got := string(AppendEncode([]byte("x"), b)); got != "x"+want {
			t.Fatalf("AppendEncode did not append: %q", got)
		}
	}
}

func TestFixedDecodeMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var cases []string
	for _, b := range fixedInputs(rng) {
		s := Encode(b)
		cases = append(cases, s, "1"+s, s[1:], s+"1", s[:len(s)-1]+"0", "z"+s)
	}
	// Values just past 2^256 and 2^512, strings of only '1's, and lengths
	// around the width bounds.
	cases = append(cases, "", "1", strings.Repeat("1", 32), strings.Repeat("1", 33),
		strings.Repeat("1", 64), strings.Repeat("1", 65), strings.Repeat("z", 44),
		strings.Repeat("z", 45), strings.Repeat("z", 88), strings.Repeat("z", 89),
		Encode(append([]byte{1}, make([]byte, 32)...)), Encode(append([]byte{1}, make([]byte, 64)...)))
	for _, s := range cases {
		for _, n := range []int{32, 64} {
			fixed, generic := make([]byte, n), make([]byte, n)
			fixedOK := decodeFixed(fixed, s)
			genericErr := decodeIntoGeneric(generic, s)
			if fixedOK != (genericErr == nil) {
				t.Fatalf("width %d %q: fixed ok=%v, generic err=%v", n, s, fixedOK, genericErr)
			}
			if fixedOK && !bytes.Equal(fixed, generic) {
				t.Fatalf("width %d %q: fixed %x, generic %x", n, s, fixed, generic)
			}
			if !fixedOK && !bytes.Equal(fixed, make([]byte, n)) {
				t.Fatalf("width %d %q: rejected decode wrote dst", n, s)
			}
			viaBytes := make([]byte, n)
			if err := DecodeBytesInto(viaBytes, []byte(s)); fmt.Sprint(err) != fmt.Sprint(genericErr) || !bytes.Equal(viaBytes, generic) {
				t.Fatalf("width %d %q: DecodeBytesInto err %v, want %v", n, s, err, genericErr)
			}
		}
	}
}

func TestFixedWidthDoesNotAllocate(t *testing.T) {
	var sig [64]byte
	rand.New(rand.NewSource(4)).Read(sig[:])
	s := Encode(sig[:])
	buf := make([]byte, 0, 128)
	src := []byte(s)
	var dst [64]byte
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendEncode(buf[:0], sig[:])
		buf = AppendEncode(buf[:0], sig[:32])
		if err := DecodeBytesInto(dst[:], src); err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(dst[:], s); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("fixed-width encode/decode allocated %.0f times per run", n)
	}
}

// FuzzBase58Fixed checks the fixed-width paths against the generic
// reference: identical encodings for every 32- and 64-byte input, and
// identical accept/reject and bytes for every decoded string.
func FuzzBase58Fixed(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, b := range fixedInputs(rng)[:40] {
		f.Add(b, Encode(b))
	}
	f.Add([]byte{}, "")
	f.Add([]byte{0}, strings.Repeat("1", 64))
	f.Add([]byte{1}, strings.Repeat("z", 88))
	f.Fuzz(func(t *testing.T, raw []byte, s string) {
		for _, n := range []int{32, 64} {
			b := make([]byte, n)
			copy(b, raw)
			want := string(appendGeneric(nil, b))
			if got := string(AppendEncode(nil, b)); got != want {
				t.Fatalf("encode %x: fixed %q, generic %q", b, got, want)
			}
			if got := string(AppendEncode([]byte("dst:"), b)); got != "dst:"+want {
				t.Fatalf("encode %x into a non-empty dst: %q, want %q", b, got, "dst:"+want)
			}
			fixed, generic := make([]byte, n), make([]byte, n)
			ok := decodeFixed(fixed, s)
			err := decodeIntoGeneric(generic, s)
			if ok != (err == nil) {
				t.Fatalf("decode width %d %q: fixed ok=%v, generic err=%v", n, s, ok, err)
			}
			if ok && !bytes.Equal(fixed, generic) {
				t.Fatalf("decode width %d %q: fixed %x, generic %x", n, s, fixed, generic)
			}
			viaBytes := make([]byte, n)
			if got := DecodeBytesInto(viaBytes, []byte(s)); fmt.Sprint(got) != fmt.Sprint(err) || !bytes.Equal(viaBytes, generic) {
				t.Fatalf("DecodeBytesInto width %d %q: %x, %v; want %x, %v", n, s, viaBytes, got, generic, err)
			}
		}
	})
}

// TestFixedEdgeCases checks named boundary inputs against the generic
// reference: encodes of all-zero, all-0xff and leading-zero inputs, and
// decodes that must be rejected (with the generic path's error text)
// or accepted.
func TestFixedEdgeCases(t *testing.T) {
	for _, n := range []int{32, 64} {
		maxChars := map[int]int{32: maxChars32, 64: maxChars64}[n]
		encs := map[string][]byte{
			"zero":     make([]byte, n),
			"all 0xff": bytes.Repeat([]byte{0xff}, n),
		}
		for z := 1; z <= n; z++ {
			b := bytes.Repeat([]byte{0xff}, n)
			clear(b[:z])
			encs[fmt.Sprintf("%d leading zero bytes then 0xff", z)] = b
			b = make([]byte, n)
			if z < n {
				b[z] = 1
			}
			encs[fmt.Sprintf("%d leading zero bytes then 0x01", z)] = b
		}
		for name, b := range encs {
			want := string(appendGeneric(nil, b))
			if got := string(AppendEncode(nil, b)); got != want {
				t.Errorf("width %d %s: encode %q, want %q", n, name, got, want)
			}
		}

		over := make([]byte, n+1) // 2^(8n): the smallest value that does not fit
		over[0] = 1
		smallestOver := string(appendGeneric(nil, over))
		if len(smallestOver) != maxChars {
			t.Fatalf("width %d: 2^%d encodes to %d characters, want %d", n, 8*n, len(smallestOver), maxChars)
		}
		largest := Encode(bytes.Repeat([]byte{0xff}, n))
		withZeros := Encode(append([]byte{0, 0, 0}, bytes.Repeat([]byte{0x42}, n-3)...))
		rejects := map[string]string{
			"smallest overflowing":            smallestOver,
			"over-long":                       strings.Repeat("2", maxChars+1),
			"over-long after '1's":            "11" + strings.Repeat("2", maxChars+1),
			"far over-long":                   strings.Repeat("z", 4*maxChars),
			"too many leading '1's":           "1" + withZeros,
			"too few leading '1's":            withZeros[1:],
			"only '1's, one too many":         strings.Repeat("1", n+1),
			"only '1's, one too few":          strings.Repeat("1", n-1),
			"largest with an extra leading 1": "1" + largest,
			"empty":                           "",
		}
		for _, base := range []string{largest, withZeros, smallestOver} {
			for i := range base {
				for _, bad := range []string{"0", "O", "I", "l", "\x80", "\xff", "é"} {
					rejects[fmt.Sprintf("%q at %d of %q", bad, i, base)] = base[:i] + bad + base[i+1:]
				}
			}
		}
		for name, s := range rejects {
			want := decodeIntoGeneric(make([]byte, n), s)
			if want == nil {
				t.Fatalf("width %d %s: the generic path accepts %q", n, name, s)
			}
			dst := make([]byte, n)
			if decodeFixed(dst, s) {
				t.Errorf("width %d %s: fixed path accepts %q", n, name, s)
			}
			if err := DecodeInto(dst, s); fmt.Sprint(err) != fmt.Sprint(want) {
				t.Errorf("width %d %s: DecodeInto error %v, want %v", n, name, err, want)
			}
			if err := DecodeBytesInto(dst, []byte(s)); fmt.Sprint(err) != fmt.Sprint(want) {
				t.Errorf("width %d %s: DecodeBytesInto error %v, want %v", n, name, err, want)
			}
			if !bytes.Equal(dst, make([]byte, n)) {
				t.Errorf("width %d %s: a rejected decode wrote dst", n, name)
			}
		}
		for name, b := range encs {
			s := Encode(b)
			dst := make([]byte, n)
			if !decodeFixed(dst, s) || !bytes.Equal(dst, b) {
				t.Errorf("width %d %s: fixed decode of %q = %x", n, name, s, dst)
			}
		}
	}
}

func BenchmarkEncode64(b *testing.B) {
	var sig [64]byte
	rand.New(rand.NewSource(7)).Read(sig[:])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(sig[:])
	}
}

func BenchmarkAppendEncodeFixed(b *testing.B) {
	for _, n := range []int{32, 64} {
		src := make([]byte, n)
		rand.New(rand.NewSource(7)).Read(src)
		buf := make([]byte, 0, 128)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = AppendEncode(buf[:0], src)
			}
		})
	}
}

func BenchmarkDecodeIntoFixed(b *testing.B) {
	for _, n := range []int{32, 64} {
		src := make([]byte, n)
		rand.New(rand.NewSource(7)).Read(src)
		s := Encode(src)
		dst := make([]byte, n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := DecodeInto(dst, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncodeGeneric64(b *testing.B) {
	var sig [64]byte
	rand.New(rand.NewSource(7)).Read(sig[:])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		appendGeneric(nil, sig[:])
	}
}
