package types

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestBlockHashChain(t *testing.T) {
	genesis := NewBlock(0, nil, nil)
	b1 := NewBlock(1, genesis.Header.Hash(), [][]byte{[]byte("tx1"), []byte("tx2")})
	b2 := NewBlock(2, b1.Header.Hash(), [][]byte{[]byte("tx3")})

	if !bytes.Equal(b1.Header.PrevHash, genesis.Header.Hash()) {
		t.Error("b1 not chained to genesis")
	}
	if !bytes.Equal(b2.Header.PrevHash, b1.Header.Hash()) {
		t.Error("b2 not chained to b1")
	}
	if err := b1.VerifyDataHash(); err != nil {
		t.Errorf("VerifyDataHash: %v", err)
	}
}

func TestBlockTamperDetection(t *testing.T) {
	b := NewBlock(1, []byte("prev"), [][]byte{[]byte("tx1"), []byte("tx2")})
	b.Data[0] = []byte("tampered")
	if err := b.VerifyDataHash(); err == nil {
		t.Error("tampered data not detected")
	}
}

func TestBlockHeaderHashSensitivity(t *testing.T) {
	h1 := BlockHeader{Number: 1, PrevHash: []byte("p"), DataHash: []byte("d")}
	h2 := h1
	h2.Number = 2
	if bytes.Equal(h1.Hash(), h2.Hash()) {
		t.Error("different headers hash equal")
	}
}

func TestComputeDataHashUnambiguous(t *testing.T) {
	// ["ab","c"] must hash differently from ["a","bc"]: length prefixes
	// prevent concatenation ambiguity.
	a := ComputeDataHash([][]byte{[]byte("ab"), []byte("c")})
	b := ComputeDataHash([][]byte{[]byte("a"), []byte("bc")})
	if bytes.Equal(a, b) {
		t.Error("data hash ambiguous under re-chunking")
	}
}

// TestComputeDataHashGolden pins the data hash of a fixed block, so the
// length-prefix encoding (and every chain hashed with it) cannot drift.
// The third payload needs a two-byte varint prefix.
func TestComputeDataHashGolden(t *testing.T) {
	data := [][]byte{[]byte("tx-one"), {}, bytes.Repeat([]byte{0xab}, 300)}
	const want = "c03531db7579d7b3230a84236c71dd01bdf32ccaa2a7e0e082be43ddac5ebfaa"
	if got := hex.EncodeToString(ComputeDataHash(data)); got != want {
		t.Errorf("ComputeDataHash = %s, want %s", got, want)
	}
}

func TestBlockRoundTrip(t *testing.T) {
	b := NewBlock(7, []byte("prevhash"), [][]byte{[]byte("tx1"), []byte("tx2")})
	b.Metadata.ValidationFlags = []ValidationCode{ValidationValid, ValidationMVCCConflict}
	b.Metadata.OrderedTime = 999
	b.Metadata.OrdererID = "osn1"
	got, err := UnmarshalBlock(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, b)
	}
}

func TestBlockRoundTripProperty(t *testing.T) {
	f := func(num uint64, prev []byte, payloads [][]byte) bool {
		b := NewBlock(num, prev, payloads)
		got, err := UnmarshalBlock(b.Marshal())
		if err != nil {
			return false
		}
		return bytes.Equal(got.Marshal(), b.Marshal()) && got.VerifyDataHash() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBlockTransactionsDecode(t *testing.T) {
	tx := &Transaction{Proposal: *sampleProposal(), Results: sampleRWSet()}
	b := NewBlock(1, nil, [][]byte{tx.Marshal(), tx.Marshal()})
	txs, err := b.Transactions()
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 2 || txs[0].ID() != tx.ID() {
		t.Errorf("decoded %d txs", len(txs))
	}

	bad := NewBlock(2, nil, [][]byte{[]byte("garbage")})
	if _, err := bad.Transactions(); err == nil {
		t.Error("garbage payload decoded")
	}
}

func TestBlockSizePositive(t *testing.T) {
	b := NewBlock(1, []byte("p"), [][]byte{make([]byte, 1000)})
	if b.Size() < 1000 {
		t.Errorf("Size() = %d, want >= payload size", b.Size())
	}
}

// sharedTransactions calls Transactions on b from n goroutines at once
// and returns each caller's result.
func sharedTransactions(b *Block, n int) ([][]*Transaction, []error) {
	txs := make([][]*Transaction, n)
	errs := make([]error, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			txs[i], errs[i] = b.Transactions()
		}(i)
	}
	start.Done()
	wg.Wait()
	return txs, errs
}

func TestDeliveryCopySharesOneDecode(t *testing.T) {
	tx := &Transaction{Proposal: *sampleProposal(), Results: sampleRWSet()}
	b := NewBlock(1, nil, [][]byte{tx.Marshal(), tx.Marshal(), tx.Marshal()})
	d := b.DeliveryCopy()
	if !bytes.Equal(d.Marshal(), b.Marshal()) {
		t.Fatal("delivery copy encodes differently from its block")
	}
	txs, errs := sharedTransactions(d, 16)
	for i := range txs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if len(txs[i]) != 3 {
			t.Fatalf("caller %d decoded %d txs, want 3", i, len(txs[i]))
		}
		for j, got := range txs[i] {
			if got != txs[0][j] {
				t.Errorf("caller %d tx %d is a different object from caller 0's", i, j)
			}
		}
	}
	if txs[0][0].ID() != tx.ID() {
		t.Errorf("decoded ID %q, want %q", txs[0][0].ID(), tx.ID())
	}
}

func TestDeliveryCopySharesDecodeError(t *testing.T) {
	tx := &Transaction{Proposal: *sampleProposal(), Results: sampleRWSet()}
	d := NewBlock(4, nil, [][]byte{tx.Marshal(), []byte("garbage")}).DeliveryCopy()
	txs, errs := sharedTransactions(d, 16)
	for i := range errs {
		if errs[i] == nil || txs[i] != nil {
			t.Fatalf("caller %d: got %d txs, err %v; want the decode error", i, len(txs[i]), errs[i])
		}
		if errs[i] != errs[0] {
			t.Errorf("caller %d: error %v is not the shared error %v", i, errs[i], errs[0])
		}
	}
}

func TestCacheFreeBlocksDecodeFresh(t *testing.T) {
	tx := &Transaction{Proposal: *sampleProposal(), Results: sampleRWSet()}
	data := [][]byte{tx.Marshal()}
	built := NewBlock(1, nil, data)
	decoded, decodeErr := UnmarshalBlock(built.DeliveryCopy().Marshal())
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	for name, b := range map[string]*Block{
		"literal":        {Header: built.Header, Data: data},
		"NewBlock":       built,
		"UnmarshalBlock": decoded,
	} {
		first, err := b.Transactions()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		second, err := b.Transactions()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if first[0] == second[0] {
			t.Errorf("%s: two calls returned the same *Transaction", name)
		}
		if first[0].ID() != second[0].ID() {
			t.Errorf("%s: two calls decoded different IDs", name)
		}
	}
}
