// Package solana provides the chain primitives that the rest of the
// reproduction builds on: public keys, signatures, lamports, instructions,
// transactions and the slot clock.
//
// The types mirror the parts of the real Solana data model that the paper's
// measurement pipeline observes — transaction identifiers (signatures),
// signers, fees and instruction effects — without importing any external
// SDK. Key generation and signing are deterministic SHA-256 constructions:
// the measurement methodology only needs stable, unforgeable-in-simulation
// identities, not real Ed25519.
package solana

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"

	"jitomev/internal/base58"
)

// Pubkey is a 32-byte account address, displayed in base58 like Solana's.
type Pubkey [32]byte

// Signature is a 64-byte transaction signature. The first signature of a
// Solana transaction doubles as its transaction ID; we keep that convention.
type Signature [64]byte

// Hash is a 32-byte hash (block hashes, bundle content hashes).
type Hash [32]byte

// String returns the base58 form of the key.
func (p Pubkey) String() string { return base58.Encode(p[:]) }

// Short returns an abbreviated base58 form for logs and tables.
func (p Pubkey) Short() string {
	s := p.String()
	if len(s) <= 8 {
		return s
	}
	return s[:4] + ".." + s[len(s)-4:]
}

// IsZero reports whether p is the all-zero address.
func (p Pubkey) IsZero() bool { return p == Pubkey{} }

// MarshalJSON encodes the key as a base58 JSON string.
func (p Pubkey) MarshalJSON() ([]byte, error) { return p.AppendJSON(make([]byte, 0, 46)), nil }

// AppendJSON appends the key's JSON string form to dst. Base58 digits
// need no escaping, so the bytes equal json.Marshal of String().
func (p Pubkey) AppendJSON(dst []byte) []byte { return appendQuoted58(dst, p[:]) }

// UnmarshalJSON decodes a base58 JSON string.
func (p *Pubkey) UnmarshalJSON(b []byte) error {
	if decodeQuoted58(p[:], b) {
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	return base58.DecodeInto(p[:], s)
}

// PubkeyFromBase58 parses a base58 address.
func PubkeyFromBase58(s string) (Pubkey, error) {
	var p Pubkey
	if err := base58.DecodeInto(p[:], s); err != nil {
		return Pubkey{}, fmt.Errorf("pubkey: %w", err)
	}
	return p, nil
}

// String returns the base58 form of the signature.
func (s Signature) String() string { return base58.Encode(s[:]) }

// Short returns an abbreviated base58 form for logs and tables.
func (s Signature) Short() string {
	str := s.String()
	if len(str) <= 10 {
		return str
	}
	return str[:5] + ".." + str[len(str)-5:]
}

// IsZero reports whether s is the all-zero signature.
func (s Signature) IsZero() bool { return s == Signature{} }

// MarshalJSON encodes the signature as a base58 JSON string.
func (s Signature) MarshalJSON() ([]byte, error) { return s.AppendJSON(make([]byte, 0, 90)), nil }

// AppendJSON appends the signature's JSON string form to dst (see
// Pubkey.AppendJSON).
func (s Signature) AppendJSON(dst []byte) []byte { return appendQuoted58(dst, s[:]) }

// UnmarshalJSON decodes a base58 JSON string.
func (s *Signature) UnmarshalJSON(b []byte) error {
	if decodeQuoted58(s[:], b) {
		return nil
	}
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	return base58.DecodeInto(s[:], str)
}

// SignatureFromBase58 parses a base58 signature.
func SignatureFromBase58(str string) (Signature, error) {
	var s Signature
	if err := base58.DecodeInto(s[:], str); err != nil {
		return Signature{}, fmt.Errorf("signature: %w", err)
	}
	return s, nil
}

// String returns the base58 form of the hash.
func (h Hash) String() string { return base58.Encode(h[:]) }

func appendQuoted58(dst, raw []byte) []byte {
	dst = append(dst, '"')
	dst = base58.AppendEncode(dst, raw)
	return append(dst, '"')
}

// decodeQuoted58 decodes a quoted base58 literal straight into dst and
// reports success. Success implies every byte between the quotes is a
// base58 digit, which json.Unmarshal would have passed through as is;
// anything else (escapes, null, a bad digit, a wrong width) reports false
// so the caller takes the json.Unmarshal route and its errors.
func decodeQuoted58(dst, b []byte) bool {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return false
	}
	return base58.DecodeBytesInto(dst, b[1:len(b)-1]) == nil
}

// Keypair is a deterministic signing identity. The public key is derived
// from the secret by hashing, and signatures are keyed hashes over message
// content — enough to make signer attribution in the detector meaningful.
type Keypair struct {
	pub    Pubkey
	secret [32]byte
}

// NewKeypairFromSeed derives a keypair from an arbitrary seed string.
// The same seed always yields the same keypair.
func NewKeypairFromSeed(seed string) *Keypair {
	var kp Keypair
	kp.secret = sha256.Sum256([]byte("jitomev/secret/" + seed))
	kp.pub = derivePub(kp.secret)
	return &kp
}

// NewKeypair draws a keypair from rng. Passing a seeded *rand.Rand makes
// whole agent populations reproducible.
func NewKeypair(rng *rand.Rand) *Keypair {
	var seed [32]byte
	for i := 0; i < 32; i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], rng.Uint64())
	}
	var kp Keypair
	kp.secret = sha256.Sum256(append([]byte("jitomev/secret/rand/"), seed[:]...))
	kp.pub = derivePub(kp.secret)
	return &kp
}

func derivePub(secret [32]byte) Pubkey {
	h := sha256.Sum256(append([]byte("jitomev/pub/"), secret[:]...))
	return Pubkey(h)
}

// Pubkey returns the public key of the pair.
func (kp *Keypair) Pubkey() Pubkey { return kp.pub }

// sigInputCap sizes the stack arrays Sign and Verify assemble their
// SHA-256 input in; a message too long to fit spills to the heap.
const sigInputCap = 512

// Sign produces a deterministic 64-byte signature over msg. The first half
// binds the secret and the message; the second half binds the public key,
// so two signers never produce equal signatures for the same message.
func (kp *Keypair) Sign(msg []byte) Signature {
	var sig Signature
	var buf [sigInputCap]byte
	in := append(buf[:0], "jitomev/sig1/"...)
	in = append(in, kp.secret[:]...)
	h1 := sha256.Sum256(append(in, msg...))
	copy(sig[:32], h1[:])
	h2 := verifierHalf(kp.pub, msg, sig[:32])
	copy(sig[32:], h2[:])
	return sig
}

func verifierHalf(pub Pubkey, msg, h1 []byte) [32]byte {
	var buf [sigInputCap]byte
	b := append(buf[:0], "jitomev/sig2/"...)
	b = append(b, pub[:]...)
	b = append(b, msg...)
	b = append(b, h1...)
	return sha256.Sum256(b)
}

// Verify checks that sig binds pub to msg. Without real asymmetric crypto
// only the message-binding half can be checked; that is enough to catch
// signer mis-attribution and post-signing tampering, which is all the
// simulation needs from signatures.
func Verify(pub Pubkey, msg []byte, sig Signature) bool {
	return [32]byte(sig[32:]) == verifierHalf(pub, msg, sig[:32])
}
