package snapshot

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
	"time"

	"jitomev/internal/jito"
	"jitomev/internal/solana"
)

// writeWithOrphans is write with the orphan section taken from orphans
// instead of derived from s, so a test can lay out a file the writer
// never makes: a signature in a bundle shard and again in the orphan
// shard.
func writeWithOrphans(tb testing.TB, s *Snapshot, orphans []jito.TxDetail) []byte {
	tb.Helper()
	var buf bytes.Buffer
	bw := &writer{w: bufio.NewWriter(&buf), m: &snapObs{}}
	bw.bytes([]byte(MagicV3))
	bw.headerSections(s)
	clock := solana.Clock{Genesis: time.Unix(0, s.Genesis).UTC()}
	bw.bundleSection(secBundles3, s.Len3, s.Details, clock, 1)
	bw.bundleSection(secBundlesLong, s.Long, s.Details, clock, 1)
	set := new(jito.DetailSet)
	sigs := make([]solana.Signature, len(orphans))
	for i := range orphans {
		set.Put(orphans[i])
		sigs[i] = orphans[i].Sig
	}
	bw.sectionV3(secOrphans, len(sigs), orphanShardSize, 1, true, func(lo, hi int) ([]byte, ShardMeta, error) {
		return encodeOrphanShard(sigs[lo:hi], set, clock)
	})
	bw.byte1(secEnd)
	if bw.err == nil {
		bw.err = bw.w.Flush()
	}
	if bw.err != nil {
		tb.Fatal(bw.err)
	}
	return buf.Bytes()
}

// dupSigFile is a one-record file whose second member's signature is
// stored again, with other content (later), in the orphan shard.
func dupSigFile(tb testing.TB) (data []byte, rec jito.BundleRecord, later jito.TxDetail) {
	s := testSnapshot(91, 0, 0)
	rec = jito.BundleRecord{Seq: 1, Slot: 5, TxIDs: []solana.Signature{{1}, {2}, {3}}}
	s.Len3 = []jito.BundleRecord{rec}
	for _, sig := range rec.TxIDs {
		s.Details.Put(jito.TxDetail{Sig: sig, Slot: 5, TipLamports: 10})
	}
	later = jito.TxDetail{Sig: rec.TxIDs[1], Slot: 6, TipLamports: 99,
		TokenDeltas: []jito.TokenDelta{{Owner: solana.Pubkey{7}, Delta: -4}}}
	orphan := jito.TxDetail{Sig: solana.Signature{9}, Slot: 7}
	return writeWithOrphans(tb, s, []jito.TxDetail{later, orphan}), rec, later
}

// TestDuplicateSignatureLastInScanOrderWins: a signature stored with a
// bundle record and again, with other content, in the orphan shard loads
// to the orphan's detail — the later one in scan order, the one a
// signature-keyed map filled in scan order kept. The set still holds it
// once, at the record's position, so the record's details stay aligned.
func TestDuplicateSignatureLastInScanOrderWins(t *testing.T) {
	data, rec, later := dupSigFile(t)
	got, err := Read(bytes.NewReader(data), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Details.Len() != 4 {
		t.Fatalf("loaded %d details, want 4", got.Details.Len())
	}
	if d, ok := got.Details.Get(later.Sig); !ok || !reflect.DeepEqual(d, later) {
		t.Fatalf("duplicate signature loaded %+v, want the orphan shard's %+v", d, later)
	}
	if got.Details.Index(later.Sig) != 1 {
		t.Fatalf("duplicate signature moved to position %d", got.Details.Index(later.Sig))
	}
	dets, ok := got.Details.Aligned(nil, rec.TxIDs)
	if !ok || dets[0].TipLamports != 10 || !reflect.DeepEqual(dets[1], later) || dets[2].TipLamports != 10 {
		t.Fatalf("record details after the overwrite: %+v %v", dets, ok)
	}
	checkLoadedDetails(t, data, got.Details)
}
