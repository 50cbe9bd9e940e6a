// Package base58 implements Bitcoin-alphabet base58 encoding as used by
// Solana for public keys, transaction signatures and block hashes.
//
// The implementation is self-contained (stdlib only). The fixed-width
// inputs that dominate this codebase — 32-byte public keys and 64-byte
// signatures — take a wide-limb path: the number is converted between
// 32-bit limbs and base-58^5 limbs in uint64 arithmetic, five digits per
// division instead of one, with all scratch on the stack. AppendEncode
// and DecodeInto do not allocate on that path. Other widths use the
// generic byte-at-a-time conversion, which also serves as the reference
// the fixed-width path is tested against.
package base58

import (
	"errors"
	"fmt"
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

// Wide-limb constants. A base-58^5 limb is below 2^30, so a limb times
// 2^32 plus a 32-bit carry fits a uint64, and so does a 32-bit limb
// times 58^5 plus a carry.
const (
	limbBase   = 58 * 58 * 58 * 58 * 58 // 656,356,768
	maxChars32 = 44                     // ceil(256 / log2(58))
	maxChars64 = 88                     // ceil(512 / log2(58))
	maxLimbs   = (maxChars64 + 4) / 5   // base-58^5 limbs for 64 bytes
)

// pow58 holds 58^k for the short leading group of a decode.
var pow58 = [5]uint64{1, 58, 58 * 58, 58 * 58 * 58, 58 * 58 * 58 * 58}

// appendFixed encodes a 32- or 64-byte src. The input is read as
// big-endian 32-bit words; each word is folded into little-endian
// base-58^5 limbs with one uint64 multiply-divide per limb, and the
// limbs are then expanded into five digits each.
func appendFixed(dst, src []byte) []byte {
	zeros := 0
	for zeros < len(src) && src[zeros] == 0 {
		zeros++
	}
	var limbs [maxLimbs]uint32
	used := 0 // limbs holding a non-zero value so far
	for w := 0; w < len(src); w += 4 {
		carry := uint64(src[w])<<24 | uint64(src[w+1])<<16 | uint64(src[w+2])<<8 | uint64(src[w+3])
		for j := 0; j < used; j++ {
			t := uint64(limbs[j])<<32 | carry
			limbs[j] = uint32(t % limbBase)
			carry = t / limbBase
		}
		for carry != 0 {
			limbs[used] = uint32(carry % limbBase)
			carry /= limbBase
			used++
		}
	}

	var digits [maxLimbs * 5]byte
	n := 0
	for j := used - 1; j >= 0; j-- {
		v := limbs[j]
		for k := 4; k >= 0; k-- {
			digits[n+k] = byte(v % 58)
			v /= 58
		}
		n += 5
	}
	start := 0
	for start < n && digits[start] == 0 {
		start++
	}
	for i := 0; i < zeros; i++ {
		dst = append(dst, '1')
	}
	for _, d := range digits[start:n] {
		dst = append(dst, Alphabet[d])
	}
	return dst
}

// decodeFixed decodes s into a 32- or 64-byte dst and reports success.
// It accepts exactly what the generic DecodeInto accepts for that width:
// alphabet characters only, a value that fits len(dst) bytes, and as
// many leading '1's as the value has leading zero bytes. dst is written
// only on success; any other width reports false.
func decodeFixed[S string | []byte](dst []byte, s S) bool {
	width := len(dst)
	maxChars := maxChars64
	switch width {
	case 32:
		maxChars = maxChars32
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

	var words [16]uint32 // little-endian 32-bit limbs of the value
	nw := width / 4
	i := zeros
	group := n % 5
	if group == 0 {
		group = 5
	}
	for i < len(s) {
		var acc uint64
		for end := i + group; i < end; i++ {
			d := decodeMap[s[i]]
			if d < 0 {
				return false
			}
			acc = acc*58 + uint64(d)
		}
		mul := uint64(limbBase)
		if group < 5 {
			mul = pow58[group]
		}
		group = 5
		carry := acc
		for j := 0; j < nw; j++ {
			t := uint64(words[j])*mul + carry
			words[j] = uint32(t)
			carry = t >> 32
		}
		if carry != 0 {
			return false // the value does not fit width bytes
		}
	}

	var out [64]byte
	for j := 0; j < nw; j++ {
		w := words[nw-1-j]
		out[4*j] = byte(w >> 24)
		out[4*j+1] = byte(w >> 16)
		out[4*j+2] = byte(w >> 8)
		out[4*j+3] = byte(w)
	}
	lead := 0
	for lead < width && out[lead] == 0 {
		lead++
	}
	if lead != zeros {
		return false
	}
	copy(dst, out[:width])
	return true
}
