package solana

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"jitomev/internal/base58"
)

func TestKeypairDeterminism(t *testing.T) {
	a := NewKeypairFromSeed("alice")
	b := NewKeypairFromSeed("alice")
	c := NewKeypairFromSeed("bob")
	if a.Pubkey() != b.Pubkey() {
		t.Error("same seed produced different pubkeys")
	}
	if a.Pubkey() == c.Pubkey() {
		t.Error("different seeds produced same pubkey")
	}
}

func TestKeypairFromRandReproducible(t *testing.T) {
	k1 := NewKeypair(rand.New(rand.NewSource(42)))
	k2 := NewKeypair(rand.New(rand.NewSource(42)))
	if k1.Pubkey() != k2.Pubkey() {
		t.Error("same rng seed produced different keypairs")
	}
}

func TestSignVerify(t *testing.T) {
	kp := NewKeypairFromSeed("signer")
	msg := []byte("the quick brown fox")
	sig := kp.Sign(msg)
	if !Verify(kp.Pubkey(), msg, sig) {
		t.Fatal("valid signature rejected")
	}
	other := NewKeypairFromSeed("other")
	if Verify(other.Pubkey(), msg, sig) {
		t.Error("signature verified under wrong pubkey")
	}
	var tampered Signature
	copy(tampered[:], sig[:])
	tampered[0] ^= 1
	if Verify(kp.Pubkey(), msg, tampered) {
		t.Error("tampered signature verified")
	}
}

func TestDistinctSignersDistinctSignatures(t *testing.T) {
	msg := []byte("same message")
	a := NewKeypairFromSeed("a").Sign(msg)
	b := NewKeypairFromSeed("b").Sign(msg)
	if a == b {
		t.Error("two signers produced identical signatures for one message")
	}
}

func TestPubkeyBase58RoundTrip(t *testing.T) {
	kp := NewKeypairFromSeed("roundtrip")
	p := kp.Pubkey()
	got, err := PubkeyFromBase58(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Error("pubkey base58 round trip mismatch")
	}
}

func TestPubkeyJSON(t *testing.T) {
	p := NewKeypairFromSeed("json").Pubkey()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Pubkey
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Error("pubkey JSON round trip mismatch")
	}
}

func TestSignatureJSON(t *testing.T) {
	sig := NewKeypairFromSeed("json").Sign([]byte("x"))
	b, err := json.Marshal(sig)
	if err != nil {
		t.Fatal(err)
	}
	var back Signature
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != sig {
		t.Error("signature JSON round trip mismatch")
	}
}

func TestLamportsConversions(t *testing.T) {
	if got := FromSOL(1.5); got != 1_500_000_000 {
		t.Errorf("FromSOL(1.5) = %d", got)
	}
	if got := Lamports(2_000_000_000).SOL(); got != 2.0 {
		t.Errorf("SOL() = %v", got)
	}
	if FromSOL(-1) != 0 {
		t.Error("negative SOL should clamp to 0")
	}
	if Lamports(5).SubSat(10) != 0 {
		t.Error("SubSat should saturate at 0")
	}
	if Lamports(10).SubSat(4) != 6 {
		t.Error("SubSat arithmetic wrong")
	}
}

func sampleTx(seed string, nonce uint64) *Transaction {
	kp := NewKeypairFromSeed(seed)
	dst := NewKeypairFromSeed(seed + "/dst").Pubkey()
	pool := NewKeypairFromSeed("pool").Pubkey()
	mint := NewKeypairFromSeed("mint").Pubkey()
	tip := NewKeypairFromSeed("tipacct").Pubkey()
	return NewTransaction(kp, nonce, 1234,
		&Transfer{From: kp.Pubkey(), To: dst, Amount: 777},
		&Swap{Pool: pool, InputMint: mint, AmountIn: 10_000, MinOut: 9_000},
		&Tip{TipAccount: tip, Amount: 50_000},
		&Memo{Data: []byte("hello")},
	)
}

func TestTransactionValidate(t *testing.T) {
	tx := sampleTx("v", 1)
	if err := tx.Validate(); err != nil {
		t.Fatalf("valid tx rejected: %v", err)
	}

	unsigned := &Transaction{Signer: tx.Signer, Instructions: tx.Instructions}
	if err := unsigned.Validate(); err != ErrUnsigned {
		t.Errorf("unsigned tx: got %v, want ErrUnsigned", err)
	}

	empty := &Transaction{Signer: tx.Signer, Sig: tx.Sig}
	if err := empty.Validate(); err != ErrEmpty {
		t.Errorf("empty tx: got %v, want ErrEmpty", err)
	}

	tampered := sampleTx("v", 2)
	tampered.PriorityFee++
	if err := tampered.Validate(); err != ErrBadSignature {
		t.Errorf("tampered tx: got %v, want ErrBadSignature", err)
	}
}

func TestTransactionIDUniqueness(t *testing.T) {
	seen := map[Signature]bool{}
	for nonce := uint64(0); nonce < 100; nonce++ {
		id := sampleTx("uniq", nonce).ID()
		if seen[id] {
			t.Fatalf("duplicate transaction ID at nonce %d", nonce)
		}
		seen[id] = true
	}
}

func TestTransactionBinaryRoundTrip(t *testing.T) {
	tx := sampleTx("bin", 9)
	b, err := tx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Transaction
	if err := back.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if back.Sig != tx.Sig || back.Signer != tx.Signer || back.Nonce != tx.Nonce ||
		back.PriorityFee != tx.PriorityFee || len(back.Instructions) != len(tx.Instructions) {
		t.Fatal("binary round trip header mismatch")
	}
	b2, _ := back.MarshalBinary()
	if !bytes.Equal(b, b2) {
		t.Fatal("re-encode mismatch")
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped tx does not validate: %v", err)
	}
}

func TestUnmarshalBinaryTruncation(t *testing.T) {
	tx := sampleTx("trunc", 1)
	b, _ := tx.MarshalBinary()
	for _, n := range []int{0, 10, 63, 64, 100, len(b) - 1} {
		var back Transaction
		if err := back.UnmarshalBinary(b[:n]); err == nil {
			t.Errorf("UnmarshalBinary accepted %d-byte prefix", n)
		}
	}
	var back Transaction
	if err := back.UnmarshalBinary(append(b, 0)); err == nil {
		t.Error("UnmarshalBinary accepted trailing byte")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(nonce uint64, fee uint32, amt uint64, memoLen uint8) bool {
		kp := NewKeypair(rng)
		instrs := []Instruction{
			&Transfer{From: kp.Pubkey(), To: NewKeypair(rng).Pubkey(), Amount: Lamports(amt)},
			&Memo{Data: make([]byte, int(memoLen))},
		}
		tx := NewTransaction(kp, nonce, Lamports(fee), instrs...)
		b, err := tx.MarshalBinary()
		if err != nil {
			return false
		}
		var back Transaction
		if err := back.UnmarshalBinary(b); err != nil {
			return false
		}
		b2, _ := back.MarshalBinary()
		return bytes.Equal(b, b2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTipHelpers(t *testing.T) {
	kp := NewKeypairFromSeed("tips")
	tipAcct := NewKeypairFromSeed("tipacct").Pubkey()

	tipOnly := NewTransaction(kp, 1, 0, &Tip{TipAccount: tipAcct, Amount: 9_000})
	if !tipOnly.IsTipOnly() {
		t.Error("tip-only tx not recognized")
	}
	if tipOnly.TipAmount() != 9_000 {
		t.Errorf("TipAmount = %d", tipOnly.TipAmount())
	}

	tipAndMemo := NewTransaction(kp, 2, 0,
		&Tip{TipAccount: tipAcct, Amount: 1_000}, &Memo{Data: []byte("x")})
	if !tipAndMemo.IsTipOnly() {
		t.Error("tip+memo should still be tip-only")
	}

	mixed := sampleTx("tips2", 3)
	if mixed.IsTipOnly() {
		t.Error("tx with swap classified tip-only")
	}
	if !mixed.HasSwap() {
		t.Error("HasSwap missed the swap")
	}

	noTip := NewTransaction(kp, 4, 0, &Memo{Data: []byte("y")})
	if noTip.IsTipOnly() {
		t.Error("memo-only tx classified tip-only")
	}
	if noTip.TipAmount() != 0 {
		t.Error("memo-only tx has nonzero tip")
	}
}

func TestFee(t *testing.T) {
	tx := sampleTx("fee", 1)
	if tx.Fee() != BaseFee+1234 {
		t.Errorf("Fee = %d, want %d", tx.Fee(), BaseFee+1234)
	}
}

func TestClock(t *testing.T) {
	genesis := time.Date(2025, 2, 9, 0, 0, 0, 0, time.UTC)
	c := Clock{Genesis: genesis}

	if c.SlotAt(genesis) != 0 {
		t.Error("slot at genesis should be 0")
	}
	if c.SlotAt(genesis.Add(399*time.Millisecond)) != 0 {
		t.Error("slot should still be 0 at +399ms")
	}
	if c.SlotAt(genesis.Add(400*time.Millisecond)) != 1 {
		t.Error("slot should be 1 at +400ms")
	}
	if c.SlotAt(genesis.Add(-time.Hour)) != 0 {
		t.Error("pre-genesis time should clamp to slot 0")
	}

	if SlotsPerDay != 216_000 {
		t.Errorf("SlotsPerDay = %d, want 216000", SlotsPerDay)
	}
	day3 := c.SlotAt(genesis.Add(72 * time.Hour))
	if c.DayOf(day3) != 3 {
		t.Errorf("DayOf(+72h) = %d, want 3", c.DayOf(day3))
	}
	if got := c.TimeOf(SlotsPerDay); !got.Equal(genesis.Add(24 * time.Hour)) {
		t.Errorf("TimeOf(SlotsPerDay) = %v", got)
	}
	if DayStart(2) != 2*SlotsPerDay {
		t.Error("DayStart(2) wrong")
	}
}

func TestShortForms(t *testing.T) {
	p := NewKeypairFromSeed("short").Pubkey()
	if len(p.Short()) != 10 {
		t.Errorf("Pubkey.Short() = %q, want 10 chars", p.Short())
	}
	s := NewKeypairFromSeed("short").Sign([]byte("m"))
	if len(s.Short()) != 12 {
		t.Errorf("Signature.Short() = %q, want 12 chars", s.Short())
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestSignMatchesConcatenation checks the buffer-reusing signer against
// the plain definition — SHA-256 over freshly concatenated inputs — for a
// message that fits the stack arrays and one that spills past them and
// past the pooled-buffer cap.
func TestSignMatchesConcatenation(t *testing.T) {
	kp := NewKeypairFromSeed("concat")
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, memo := range []int{5, sigInputCap, maxPooledMessage + 1} {
		tx := NewTransaction(kp, 9, 0, &Memo{Data: bytes.Repeat([]byte{'m'}, memo)})
		msg := tx.Message()
		if got := tx.AppendMessage([]byte("prefix")); !bytes.Equal(got[6:], msg) {
			t.Fatalf("memo %d: AppendMessage differs from Message", memo)
		}
		h1 := sha256.Sum256(cat([]byte("jitomev/sig1/"), kp.secret[:], msg))
		h2 := sha256.Sum256(cat([]byte("jitomev/sig2/"), kp.pub[:], msg, h1[:]))
		var want Signature
		copy(want[:32], h1[:])
		copy(want[32:], h2[:])
		if tx.Sig != want {
			t.Errorf("memo %d: signature differs from the concatenated definition", memo)
		}
		if err := tx.Validate(); err != nil {
			t.Errorf("memo %d: %v", memo, err)
		}
	}
}

// TestSignValidateAllocateNothing pins the signing hot path: with the
// message pool warm, neither Sign nor Validate allocates.
func TestSignValidateAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	kp := NewKeypairFromSeed("sampleTx")
	tx := sampleTx("sampleTx", 0)
	if n := testing.AllocsPerRun(100, func() { tx.Sign(kp) }); n != 0 {
		t.Errorf("Sign allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if tx.Validate() != nil {
			t.Fatal("Validate failed")
		}
	}); n != 0 {
		t.Errorf("Validate allocates %v times per call, want 0", n)
	}
}

func BenchmarkSignTransaction(b *testing.B) {
	kp := NewKeypairFromSeed("bench")
	tx := sampleTx("bench", 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx.Nonce = uint64(i)
		tx.Sign(kp)
	}
}

func BenchmarkTransactionBinaryRoundTrip(b *testing.B) {
	tx := sampleTx("bench2", 0)
	buf, _ := tx.MarshalBinary()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var back Transaction
		if err := back.UnmarshalBinary(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestJSONFastPathMatchesUnmarshal pins the direct base58 JSON forms to
// the json.Marshal/json.Unmarshal route they replace: identical bytes
// out, identical values and error text in, for plain, escaped, null and
// malformed literals.
func TestJSONFastPathMatchesUnmarshal(t *testing.T) {
	kp := NewKeypairFromSeed("json")
	sig := kp.Sign([]byte("m"))
	pub := kp.Pubkey()
	if got, _ := pub.MarshalJSON(); string(got) != mustMarshal(t, pub.String()) {
		t.Fatalf("Pubkey.MarshalJSON = %s", got)
	}
	if got, _ := sig.MarshalJSON(); string(got) != mustMarshal(t, sig.String()) {
		t.Fatalf("Signature.MarshalJSON = %s", got)
	}
	escaped := `"\u00` + fmt.Sprintf("%x", sig.String()[0]) + sig.String()[1:] + `"`
	inputs := []string{
		mustMarshal(t, sig.String()), mustMarshal(t, pub.String()), escaped, `null`, `""`,
		`"0OIl"`, `"` + sig.String() + `1"`, `"` + pub.String()[1:] + `"`, `"` + sig.String(), `12`,
	}
	for _, in := range inputs {
		var gotSig, refSig Signature
		errGot := gotSig.UnmarshalJSON([]byte(in))
		errRef := refUnmarshal58(refSig[:], []byte(in))
		if fmt.Sprint(errGot) != fmt.Sprint(errRef) || gotSig != refSig {
			t.Errorf("Signature %s: got (%v, %v), want (%v, %v)", in, gotSig.Short(), errGot, refSig.Short(), errRef)
		}
		var gotPub, refPub Pubkey
		errGot = gotPub.UnmarshalJSON([]byte(in))
		errRef = refUnmarshal58(refPub[:], []byte(in))
		if fmt.Sprint(errGot) != fmt.Sprint(errRef) || gotPub != refPub {
			t.Errorf("Pubkey %s: got (%v, %v), want (%v, %v)", in, gotPub.Short(), errGot, refPub.Short(), errRef)
		}
	}
	if n := testing.AllocsPerRun(50, func() { sig.MarshalJSON() }); n != 1 {
		t.Errorf("Signature.MarshalJSON allocated %.0f times, want 1", n)
	}
	plain := []byte(mustMarshal(t, sig.String()))
	if n := testing.AllocsPerRun(50, func() { sig.UnmarshalJSON(plain) }); n != 0 {
		t.Errorf("Signature.UnmarshalJSON allocated %.0f times on a plain literal", n)
	}
}

func mustMarshal(t *testing.T, s string) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// refUnmarshal58 is the generic route: json.Unmarshal to a string, then
// base58.DecodeInto.
func refUnmarshal58(dst, b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	return base58.DecodeInto(dst, s)
}
