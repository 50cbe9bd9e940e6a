// Package base58 implements Bitcoin-alphabet base58 encoding as used by
// Solana for public keys, transaction signatures and block hashes.
//
// The implementation is self-contained (stdlib only). The fixed-width
// inputs that dominate this codebase — 32-byte public keys and 64-byte
// signatures — take a table-driven path, the technique of Firedancer's
// fd_base58, with all scratch on the stack: AppendEncode and DecodeInto
// do not allocate on it. Other widths use the generic byte-at-a-time
// conversion, which is also the reference the fixed-width path is
// tested against, and every string the fixed-width decode rejects is
// decoded again by the generic path, so callers see its errors.
//
// A fixed-width value is held as base-58^5 limbs (9 for 32 bytes, 18
// for 64; a limb is five digits and below 2^30) on one side and as
// big-endian 32-bit words (8 or 16) on the other. Both directions are
// one matrix product in uint64 arithmetic followed by one carry pass:
//
//   - Encode: limb j is the sum over words i of word i times
//     encTableN[j-1][i], the base-58^5 limb j of 2^(32·(words-1-i)).
//     The limbs are then carried from the least significant up, and
//     each expands into five digits.
//   - Decode: the digits after the leading '1's are grouped, from the
//     right, into limbs; word j is the sum over limbs k of limb k times
//     decTableN[j][k], the 32-bit word j of 58^(5·(limbs-1-k)). The
//     words are then carried from the least significant up, and a carry
//     out of word 0 means the value does not fit.
//
// Each sum must stay below 2^64 without reduction: the largest column
// sum of a table times the largest input word (2^32-1 for encode,
// 58^5-1 for decode) bounds it. TestColumnSumsFit proves the bound for
// every column from the tables themselves. Every column fits except
// limb 16 of the 64-byte encode, whose sum over all 16 words reaches
// 2^65; that limb is carried into limb 15 once after the first 8 words
// (encSplit64, encCarry64), and the proof covers that reduction point
// too.
package base58

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Alphabet is the Bitcoin base58 alphabet, which Solana uses verbatim.
const Alphabet = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"

var decodeMap [256]int8

func init() {
	for i := range decodeMap {
		decodeMap[i] = -1
	}
	for i := 0; i < len(Alphabet); i++ {
		decodeMap[Alphabet[i]] = int8(i)
	}
	for v := range pairs {
		pairs[v] = [2]byte{Alphabet[v/58], Alphabet[v%58]}
	}
}

// Encode returns the base58 encoding of b.
//
// Leading zero bytes are encoded as leading '1' characters, matching the
// Bitcoin/Solana convention.
func Encode(b []byte) string {
	if len(b) == 32 || len(b) == 64 {
		var buf [maxChars64]byte
		return string(appendFixed(buf[:0], b))
	}
	return string(appendGeneric(nil, b))
}

// AppendEncode appends the base58 encoding of src to dst and returns the
// extended buffer. 32- and 64-byte inputs allocate nothing beyond dst's
// own growth.
func AppendEncode(dst, src []byte) []byte {
	if len(src) == 32 || len(src) == 64 {
		return appendFixed(dst, src)
	}
	return appendGeneric(dst, src)
}

// appendGeneric is the byte-at-a-time conversion: interpret b as a
// big-endian integer and repeatedly divide by 58.
func appendGeneric(dst, b []byte) []byte {
	// Count leading zeros.
	zeros := 0
	for zeros < len(b) && b[zeros] == 0 {
		zeros++
	}

	// size is an upper bound on output length: log(256)/log(58) ≈ 1.365.
	size := (len(b)-zeros)*138/100 + 1
	buf := make([]byte, size)
	high := size - 1
	for _, c := range b[zeros:] {
		carry := int(c)
		i := size - 1
		for ; i > high || carry != 0; i-- {
			carry += 256 * int(buf[i])
			buf[i] = byte(carry % 58)
			carry /= 58
		}
		high = i
	}

	// Skip leading zero digits in buf.
	start := 0
	for start < size && buf[start] == 0 {
		start++
	}

	for i := 0; i < zeros; i++ {
		dst = append(dst, '1')
	}
	for _, v := range buf[start:] {
		dst = append(dst, Alphabet[v])
	}
	return dst
}

// Decode parses a base58 string and returns the decoded bytes.
func Decode(s string) ([]byte, error) {
	if s == "" {
		return []byte{}, nil
	}

	zeros := 0
	for zeros < len(s) && s[zeros] == '1' {
		zeros++
	}

	size := (len(s)-zeros)*733/1000 + 1 // log(58)/log(256) ≈ 0.7327
	buf := make([]byte, size)
	high := size - 1
	for i := zeros; i < len(s); i++ {
		d := decodeMap[s[i]]
		if d < 0 {
			return nil, fmt.Errorf("base58: invalid character %q at index %d", s[i], i)
		}
		carry := int(d)
		j := size - 1
		for ; j > high || carry != 0; j-- {
			if j < 0 {
				return nil, errors.New("base58: value overflow")
			}
			carry += 58 * int(buf[j])
			buf[j] = byte(carry % 256)
			carry /= 256
		}
		high = j
	}

	start := 0
	for start < size && buf[start] == 0 {
		start++
	}

	out := make([]byte, zeros+size-start)
	copy(out[zeros:], buf[start:])
	return out, nil
}

// DecodeInto decodes s into dst and errors unless the decoded length is
// exactly len(dst). It is the checked path used for fixed-width keys and
// signatures: 32- and 64-byte destinations decode without allocating,
// and dst is left untouched on error.
func DecodeInto(dst []byte, s string) error {
	if decodeFixed(dst, s) {
		return nil
	}
	return decodeIntoGeneric(dst, s)
}

// DecodeBytesInto is DecodeInto for a byte-slice source, so a decoder
// can parse straight out of a wire buffer without a string conversion.
func DecodeBytesInto(dst, src []byte) error {
	if decodeFixed(dst, src) {
		return nil
	}
	return decodeIntoGeneric(dst, string(src))
}

// decodeIntoGeneric is DecodeInto over the generic conversion. Every
// input the fixed-width path rejects comes here, so the error a caller
// sees never depends on which path ran.
func decodeIntoGeneric(dst []byte, s string) error {
	b, err := Decode(s)
	if err != nil {
		return err
	}
	if len(b) != len(dst) {
		return fmt.Errorf("base58: decoded %d bytes, want %d", len(b), len(dst))
	}
	copy(dst, b)
	return nil
}

// Fixed-width constants. A 32-byte value has at most 44 digits, held in
// 9 base-58^5 limbs (45 digit slots); a 64-byte value has at most 88,
// held in 18 limbs (90 slots).
const (
	limbBase   = 58 * 58 * 58 * 58 * 58 // 656,356,768
	maxChars32 = 44                     // ceil(256 / log2(58))
	maxChars64 = 88                     // ceil(512 / log2(58))
	limbs32    = 9
	limbs64    = 18

	// The 64-byte encode sums the first encSplit64 input words into its
	// limbs, carries limb encCarry64 into the limb above it, and then
	// adds the other words: that limb's sum over all 16 words could
	// overflow a uint64 (see the package comment).
	encSplit64 = 8
	encCarry64 = 16
)

// ones holds the '1' run a fixed-width encode emits for leading zero
// bytes.
const ones = "1111111111111111111111111111111111111111111111111111111111111111"

// pairs[v] holds the two digits of v < 58², so a limb expands into
// five digits with two divisions instead of four.
var pairs [58 * 58][2]byte

// A matrix is a conversion table, restricted to a run of its columns,
// regrouped for the dot products: its rows in groups of four counted
// from the last row, so that only the first group can be short, and in
// each group the entries of every column side by side, from the group's
// first to its last column with a non-zero entry.
type matrix []group

type group struct {
	row  int         // the group's first row
	lo   int         // the column cols[0] holds
	cols [][4]uint32 // four entries a column; a short group's are zero-padded
}

var (
	encMatrix32   = matrixOf(encTable32[:], 0, 8)
	encMatrix64lo = matrixOf(encTable64[:], 0, encSplit64)
	encMatrix64hi = matrixOf(encTable64[:], encSplit64, 16)
	decMatrix32   = matrixOf(decTable32[:], 0, limbs32)
	decMatrix64   = matrixOf(decTable64[:], 0, limbs64)
)

// matrixOf regroups columns [from, to) of table.
func matrixOf[R [8]uint32 | [9]uint32 | [16]uint32 | [18]uint32](table []R, from, to int) matrix {
	var m matrix
	for row, size := 0, (len(table)+3)%4+1; row < len(table); row, size = row+size, 4 {
		cols := make([][4]uint32, to)
		lo, hi := to, from
		for k := range size {
			for i := from; i < to; i++ {
				if t := table[row+k][i]; t != 0 {
					cols[i][k] = t
					lo, hi = min(lo, i), max(hi, i+1)
				}
			}
		}
		if lo < hi {
			m = append(m, group{row, lo, cols[lo:hi]})
		}
	}
	return m
}

// mulAdd adds to each out[j] the dot product of x with row j over the
// matrix's columns. A short group adds its zero sums to the rows after
// it, so out needs at least four rows.
func (m matrix) mulAdd(out, x []uint64) {
	for _, g := range m {
		s0, s1, s2, s3 := dot4(x[g.lo:g.lo+len(g.cols)], g.cols)
		o := out[g.row : g.row+4]
		o[0] += s0
		o[1] += s1
		o[2] += s2
		o[3] += s3
	}
}

// dot4 returns the dot products of x with the four rows held in cols.
// It stays a call of its own so that its loop keeps the four sums in
// registers.
//
//go:noinline
func dot4(x []uint64, cols [][4]uint32) (s0, s1, s2, s3 uint64) {
	cols = cols[:len(x)]
	for i, v := range x {
		t := &cols[i]
		s0 += v * uint64(t[0])
		s1 += v * uint64(t[1])
		s2 += v * uint64(t[2])
		s3 += v * uint64(t[3])
	}
	return s0, s1, s2, s3
}

// appendFixed encodes a 32- or 64-byte src (see the package comment).
func appendFixed(dst, src []byte) []byte {
	var words [16]uint64
	for i := range len(src) / 4 {
		words[i] = uint64(binary.BigEndian.Uint32(src[4*i:]))
	}
	var buf [limbs64]uint64
	var limbs []uint64
	if len(src) == 32 {
		limbs = buf[:limbs32]
		encMatrix32.mulAdd(limbs[1:], words[:])
	} else {
		limbs = buf[:limbs64]
		encMatrix64lo.mulAdd(limbs[1:], words[:])
		v := limbs[encCarry64]
		limbs[encCarry64] = v % limbBase
		limbs[encCarry64-1] += v / limbBase
		encMatrix64hi.mulAdd(limbs[1:], words[:])
	}

	var carry uint64
	for j := len(limbs) - 1; j >= 0; j-- {
		v := limbs[j] + carry
		carry = v / limbBase
		limbs[j] = v % limbBase
	}
	var chars [limbs64 * 5]byte
	for j, v := range limbs {
		x := uint32(v)
		q := x / (58 * 58)
		c := (*[5]byte)(chars[5*j:])
		c[0] = Alphabet[q/(58*58)]
		*(*[2]byte)(c[1:]) = pairs[q%(58*58)]
		*(*[2]byte)(c[3:]) = pairs[x%(58*58)]
	}
	digits := chars[:5*len(limbs)]
	start := 0
	for start < len(digits) && digits[start] == '1' {
		start++
	}
	zeros := 0
	for zeros < len(src) && src[zeros] == 0 {
		zeros++
	}
	dst = append(dst, ones[:zeros]...)
	return append(dst, digits[start:]...)
}

// decodeFixed decodes s into a 32- or 64-byte dst and reports success.
// It accepts exactly what the generic DecodeInto accepts for that width:
// alphabet characters only, a value that fits len(dst) bytes, and as
// many leading '1's as the value has leading zero bytes. dst is written
// only on success; any other width reports false.
func decodeFixed[S string | []byte](dst []byte, s S) bool {
	width := len(dst)
	maxChars, nl, m := maxChars64, limbs64, decMatrix64
	switch width {
	case 32:
		maxChars, nl, m = maxChars32, limbs32, decMatrix32
	case 64:
	default:
		return false
	}
	zeros := 0
	for zeros < len(s) && s[zeros] == '1' {
		zeros++
	}
	n := len(s) - zeros
	if zeros > width || n > maxChars {
		// More leading '1's than bytes, or a value of at least 58^maxChars,
		// which exceeds 2^(8·width): either way the decoded length is
		// wrong.
		return false
	}

	var buf [limbs64]uint64
	limbs := buf[:nl]
	k := nl - (n+4)/5 // the most significant non-empty limb
	i := zeros
	var bad int8
	if g := n % 5; g != 0 {
		// The short leading group.
		var acc uint64
		for ; i < zeros+g; i++ {
			d := decodeMap[s[i]]
			bad |= d
			acc = acc*58 + uint64(d)
		}
		limbs[k] = acc
		k++
	}
	for ; k < nl; k, i = k+1, i+5 {
		_ = s[i+4]
		d0, d1, d2, d3, d4 := decodeMap[s[i]], decodeMap[s[i+1]], decodeMap[s[i+2]], decodeMap[s[i+3]], decodeMap[s[i+4]]
		bad |= d0 | d1 | d2 | d3 | d4
		limbs[k] = uint64(d0)*(58*58*58*58) + uint64(d1)*(58*58*58) + uint64(d2)*(58*58) + uint64(d3)*58 + uint64(d4)
	}
	if bad < 0 {
		return false // a character outside the alphabet
	}

	var words [16]uint64
	m.mulAdd(words[:], limbs)
	nw := width / 4
	var carry uint64
	for j := nw - 1; j >= 0; j-- {
		v := words[j] + carry
		carry = v >> 32
		words[j] = v & (1<<32 - 1)
	}
	if carry != 0 {
		return false // the value does not fit width bytes
	}

	lead := 0
	for _, w := range words[:nw] {
		if w != 0 {
			lead += bits.LeadingZeros32(uint32(w)) / 8
			break
		}
		lead += 4
	}
	if lead != zeros {
		return false
	}
	for j, w := range words[:nw] {
		binary.BigEndian.PutUint32(dst[4*j:], uint32(w))
	}
	return true
}
