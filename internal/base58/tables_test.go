package base58

import (
	"fmt"
	"math/big"
	"testing"
)

// rowsOf copies a conversion table into big integers, row by row.
func rowsOf[R [8]uint32 | [9]uint32 | [16]uint32 | [18]uint32](table []R) [][]*big.Int {
	out := make([][]*big.Int, len(table))
	for r, row := range table {
		out[r] = make([]*big.Int, len(row))
		for c := range out[r] {
			out[r][c] = new(big.Int).SetUint64(uint64(row[c]))
		}
	}
	return out
}

// digits returns x as n base-b digits, most significant first, or nil
// if x needs more than n.
func digits(x, b *big.Int, n int) []*big.Int {
	out := make([]*big.Int, n)
	v := new(big.Int).Set(x)
	for i := n - 1; i >= 0; i-- {
		out[i] = new(big.Int)
		v.DivMod(v, b, out[i])
	}
	if v.Sign() != 0 {
		return nil
	}
	return out
}

var (
	bigLimb  = big.NewInt(limbBase)
	bigWord  = new(big.Int).Lsh(big.NewInt(1), 32)
	bigMax64 = new(big.Int).Lsh(big.NewInt(1), 64) // every uint64 sum stays below it
)

// fixedWidths describes both fixed widths: their tables, limb counts
// and the limb the encode carries mid-way (-1: none).
var fixedWidths = []struct {
	width, limbs int
	enc, dec     [][]*big.Int
	split, carry int
}{
	{32, limbs32, rowsOf(encTable32[:]), rowsOf(decTable32[:]), 8, -1},
	{64, limbs64, rowsOf(encTable64[:]), rowsOf(decTable64[:]), encSplit64, encCarry64},
}

// TestTablesMatchBigInt regenerates both tables of both widths with
// math/big and compares them with the checked-in constants.
func TestTablesMatchBigInt(t *testing.T) {
	for _, fw := range fixedWidths {
		words := fw.width / 4
		if len(fw.enc) != fw.limbs-1 || len(fw.dec) != words {
			t.Fatalf("width %d: tables have %d and %d rows", fw.width, len(fw.enc), len(fw.dec))
		}
		// 2^(8·width) must fit the limbs' digit slots.
		if new(big.Int).Lsh(big.NewInt(1), uint(8*fw.width)).Cmp(new(big.Int).Exp(bigLimb, big.NewInt(int64(fw.limbs)), nil)) > 0 {
			t.Fatalf("width %d: %d limbs are too few", fw.width, fw.limbs)
		}
		for i := 0; i < words; i++ {
			pow := new(big.Int).Lsh(big.NewInt(1), uint(32*(words-1-i)))
			want := digits(pow, bigLimb, fw.limbs)
			if want[0].Sign() != 0 {
				t.Fatalf("width %d: 2^%d has a non-zero limb 0", fw.width, 32*(words-1-i))
			}
			for j := 1; j < fw.limbs; j++ {
				if got := fw.enc[j-1][i]; got.Cmp(want[j]) != 0 {
					t.Errorf("encTable%d[%d][%d] = %v, want %v", fw.width, j-1, i, got, want[j])
				}
			}
		}
		for k := 0; k < fw.limbs; k++ {
			pow := new(big.Int).Exp(bigLimb, big.NewInt(int64(fw.limbs-1-k)), nil)
			want := digits(pow, bigWord, words)
			if want == nil {
				t.Fatalf("width %d: 58^%d does not fit %d words", fw.width, 5*(fw.limbs-1-k), words)
			}
			for j := range want {
				if got := fw.dec[j][k]; got.Cmp(want[j]) != 0 {
					t.Errorf("decTable%d[%d][%d] = %v, want %v", fw.width, j, k, got, want[j])
				}
			}
		}
	}
}

// columnSum returns the sum of row[i]·max over i in [from, to).
func columnSum(row []*big.Int, max *big.Int, from, to int) *big.Int {
	sum := new(big.Int)
	for i := from; i < to; i++ {
		sum.Add(sum, new(big.Int).Mul(row[i], max))
	}
	return sum
}

// sums bounds out[j] += columnSum(rows[j], max, from, to), failing the
// test if a bound reaches 2^64.
func sums(t *testing.T, name string, out []*big.Int, rows [][]*big.Int, max *big.Int, from, to int) {
	t.Helper()
	for j, row := range rows {
		out[j].Add(out[j], columnSum(row, max, from, to))
		if out[j].Cmp(bigMax64) >= 0 {
			t.Errorf("%s: row %d can reach %v ≥ 2^64", name, j, out[j])
		}
	}
}

// carryChain bounds the final carry pass over the bounded sums b, from
// the last entry up, failing the test if a sum plus its incoming carry
// can reach 2^64.
func carryChain(t *testing.T, name string, b []*big.Int, base *big.Int) {
	t.Helper()
	carry := new(big.Int)
	for j := len(b) - 1; j >= 0; j-- {
		v := new(big.Int).Add(b[j], carry)
		if v.Cmp(bigMax64) >= 0 {
			t.Errorf("%s: carry into %d can reach %v ≥ 2^64", name, j, v)
		}
		carry.Div(v, base)
	}
}

func zeros(n int) []*big.Int {
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int)
	}
	return out
}

// TestColumnSumsFit proves that no uint64 sum of the fixed-width
// kernel wraps: every word is at most 2^32-1 and every decode limb at
// most 58^5-1, so the table's column sums times those maxima bound
// every accumulator, at every reduction point and through the final
// carry. It also shows that the 64-byte encode's mid-way carry is
// needed.
func TestColumnSumsFit(t *testing.T) {
	maxWord := big.NewInt(1<<32 - 1)
	maxLimb := big.NewInt(limbBase - 1)
	for _, fw := range fixedWidths {
		words := fw.width / 4

		enc := zeros(fw.limbs)
		name := fmt.Sprintf("encode %d", fw.width)
		sums(t, name, enc[1:], fw.enc, maxWord, 0, fw.split)
		if fw.carry >= 0 {
			if columnSum(fw.enc[fw.carry-1], maxWord, 0, words).Cmp(bigMax64) < 0 {
				t.Errorf("%s: limb %d fits without its mid-way carry; drop the carry", name, fw.carry)
			}
			enc[fw.carry-1].Add(enc[fw.carry-1], new(big.Int).Div(enc[fw.carry], bigLimb))
			enc[fw.carry].Set(new(big.Int).Sub(bigLimb, big.NewInt(1)))
			if enc[fw.carry-1].Cmp(bigMax64) >= 0 {
				t.Errorf("%s: the mid-way carry into limb %d can reach 2^64", name, fw.carry-1)
			}
		}
		sums(t, name, enc[1:], fw.enc, maxWord, fw.split, words)
		carryChain(t, name, enc, bigLimb)

		dec := zeros(words)
		name = fmt.Sprintf("decode %d", fw.width)
		sums(t, name, dec, fw.dec, maxLimb, 0, fw.limbs)
		carryChain(t, name, dec, bigWord)
	}
}
