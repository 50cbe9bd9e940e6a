package solana

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Transaction is a single-signer Solana transaction. The fee payer is the
// signer; the first (and only) signature is the transaction ID, matching
// how the paper identifies transactions ("transactionIds").
type Transaction struct {
	Sig          Signature
	Signer       Pubkey
	Nonce        uint64   // per-signer uniquifier standing in for recent blockhashes
	PriorityFee  Lamports // optional fee on top of BaseFee, paid to the leader
	Instructions []Instruction
}

// Errors returned by transaction validation.
var (
	ErrUnsigned     = errors.New("solana: transaction is not signed")
	ErrBadSignature = errors.New("solana: signature does not verify")
	ErrEmpty        = errors.New("solana: transaction has no instructions")
)

// NewTransaction builds and signs a transaction in one step.
func NewTransaction(kp *Keypair, nonce uint64, priorityFee Lamports, instrs ...Instruction) *Transaction {
	tx := &Transaction{
		Signer:       kp.Pubkey(),
		Nonce:        nonce,
		PriorityFee:  priorityFee,
		Instructions: instrs,
	}
	tx.Sign(kp)
	return tx
}

// Message returns the canonical byte encoding of everything covered by the
// signature.
func (tx *Transaction) Message() []byte {
	return tx.AppendMessage(make([]byte, 0, 64+len(tx.Instructions)*80))
}

// AppendMessage appends the canonical message encoding (see Message) to
// dst.
func (tx *Transaction) AppendMessage(dst []byte) []byte {
	dst = append(dst, tx.Signer[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, tx.Nonce)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(tx.PriorityFee))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(tx.Instructions)))
	for _, in := range tx.Instructions {
		dst = in.AppendBinary(dst)
	}
	return dst
}

// maxPooledMessage caps the message buffers kept for reuse; a buffer a
// long memo grew past it is dropped.
const maxPooledMessage = 4 << 10

// messagePool holds the scratch Sign and Validate encode the message
// into. A stack array would not do: the interface call to AppendBinary
// makes it escape.
var messagePool = sync.Pool{New: func() any { return new([]byte) }}

// pooledMessage encodes tx's message into a pooled buffer. The caller
// hands both back to releaseMessage and must not retain msg.
func (tx *Transaction) pooledMessage() (bp *[]byte, msg []byte) {
	bp = messagePool.Get().(*[]byte)
	return bp, tx.AppendMessage((*bp)[:0])
}

func releaseMessage(bp *[]byte, msg []byte) {
	if cap(msg) > maxPooledMessage {
		return
	}
	*bp = msg[:0]
	messagePool.Put(bp)
}

// Sign signs the transaction with kp, which must match tx.Signer.
func (tx *Transaction) Sign(kp *Keypair) {
	if kp.Pubkey() != tx.Signer {
		panic("solana: signing key does not match tx.Signer")
	}
	bp, msg := tx.pooledMessage()
	tx.Sig = kp.Sign(msg)
	releaseMessage(bp, msg)
}

// Validate checks structural well-formedness and the signature.
func (tx *Transaction) Validate() error {
	if len(tx.Instructions) == 0 {
		return ErrEmpty
	}
	if tx.Sig.IsZero() {
		return ErrUnsigned
	}
	bp, msg := tx.pooledMessage()
	ok := Verify(tx.Signer, msg, tx.Sig)
	releaseMessage(bp, msg)
	if !ok {
		return ErrBadSignature
	}
	return nil
}

// ID returns the transaction identifier (its signature).
func (tx *Transaction) ID() Signature { return tx.Sig }

// Fee returns the total fee the signer pays the leader: base + priority.
func (tx *Transaction) Fee() Lamports { return BaseFee + tx.PriorityFee }

// TipAmount sums all Tip instructions in the transaction.
func (tx *Transaction) TipAmount() Lamports {
	var total Lamports
	for _, in := range tx.Instructions {
		if t, ok := in.(*Tip); ok {
			total += t.Amount
		}
	}
	return total
}

// IsTipOnly reports whether the transaction does nothing except pay Jito
// tips (plus optional memos). The paper's criterion C5 excludes length-3
// bundles whose final transaction is tip-only.
func (tx *Transaction) IsTipOnly() bool {
	sawTip := false
	for _, in := range tx.Instructions {
		switch in.(type) {
		case *Tip:
			sawTip = true
		case *Memo:
			// memos don't change tip-only status
		default:
			return false
		}
	}
	return sawTip
}

// HasSwap reports whether the transaction contains at least one Swap.
func (tx *Transaction) HasSwap() bool {
	for _, in := range tx.Instructions {
		if _, ok := in.(*Swap); ok {
			return true
		}
	}
	return false
}

// String renders a compact single-line description.
func (tx *Transaction) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "tx %s signer=%s", tx.Sig.Short(), tx.Signer.Short())
	for _, in := range tx.Instructions {
		sb.WriteString(" [")
		sb.WriteString(in.String())
		sb.WriteString("]")
	}
	return sb.String()
}

// MarshalBinary encodes the full transaction (signature + message) in the
// wire format used by the explorer's bulk endpoints and the collector.
func (tx *Transaction) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 128+len(tx.Instructions)*80)
	b = append(b, tx.Sig[:]...)
	return tx.AppendMessage(b), nil
}

// UnmarshalBinary decodes a transaction produced by MarshalBinary.
func (tx *Transaction) UnmarshalBinary(b []byte) error {
	const fixed = 64 + 32 + 8 + 8 + 4
	if len(b) < fixed {
		return fmt.Errorf("solana: transaction truncated: %d bytes", len(b))
	}
	copy(tx.Sig[:], b[:64])
	b = b[64:]
	copy(tx.Signer[:], b[:32])
	b = b[32:]
	tx.Nonce = binary.LittleEndian.Uint64(b)
	tx.PriorityFee = Lamports(binary.LittleEndian.Uint64(b[8:]))
	n := binary.LittleEndian.Uint32(b[16:])
	b = b[20:]
	if n > 64 {
		return fmt.Errorf("solana: implausible instruction count %d", n)
	}
	tx.Instructions = make([]Instruction, 0, n)
	for i := uint32(0); i < n; i++ {
		in, rest, err := decodeInstruction(b)
		if err != nil {
			return err
		}
		tx.Instructions = append(tx.Instructions, in)
		b = rest
	}
	if len(b) != 0 {
		return fmt.Errorf("solana: %d trailing bytes after transaction", len(b))
	}
	return nil
}

func decodeInstruction(b []byte) (Instruction, []byte, error) {
	if len(b) < 1 {
		return nil, nil, errors.New("solana: instruction truncated")
	}
	kind := InstrKind(b[0])
	b = b[1:]
	switch kind {
	case KindTransfer:
		if len(b) < 72 {
			return nil, nil, errors.New("solana: transfer truncated")
		}
		t := &Transfer{}
		copy(t.From[:], b[:32])
		copy(t.To[:], b[32:64])
		t.Amount = Lamports(binary.LittleEndian.Uint64(b[64:]))
		return t, b[72:], nil
	case KindSwap:
		if len(b) < 80 {
			return nil, nil, errors.New("solana: swap truncated")
		}
		s := &Swap{}
		copy(s.Pool[:], b[:32])
		copy(s.InputMint[:], b[32:64])
		s.AmountIn = binary.LittleEndian.Uint64(b[64:])
		s.MinOut = binary.LittleEndian.Uint64(b[72:])
		return s, b[80:], nil
	case KindTip:
		if len(b) < 40 {
			return nil, nil, errors.New("solana: tip truncated")
		}
		t := &Tip{}
		copy(t.TipAccount[:], b[:32])
		t.Amount = Lamports(binary.LittleEndian.Uint64(b[32:]))
		return t, b[40:], nil
	case KindMemo:
		if len(b) < 4 {
			return nil, nil, errors.New("solana: memo truncated")
		}
		n := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint32(len(b)) < n {
			return nil, nil, errors.New("solana: memo data truncated")
		}
		m := &Memo{Data: append([]byte(nil), b[:n]...)}
		return m, b[n:], nil
	}
	return nil, nil, fmt.Errorf("solana: unknown instruction kind %d", kind)
}
