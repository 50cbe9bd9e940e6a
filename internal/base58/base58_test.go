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

// fixedInputs returns 32- and 64-byte inputs that stress the wide-limb
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
			if got, want := string(AppendEncode(nil, b)), string(appendGeneric(nil, b)); got != want {
				t.Fatalf("encode %x: fixed %q, generic %q", b, got, want)
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
		}
	})
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
