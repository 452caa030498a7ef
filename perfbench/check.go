package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"fabricsim/internal/fabnet"
	"fabricsim/internal/types"
)

// convergeTimeout bounds the wait for every peer to reach the same
// height after the load drains.
const convergeTimeout = 20 * time.Second

// checkRun is the correctness gate of one load run. Every peer's chain
// must verify, all peers must agree on the tip and the state hash, no
// TxID may commit as valid twice, the ledger's valid transactions must
// be exactly the ones the driver saw commit, and for the KV workloads
// the state must hold the value of each key's last committed write.
func checkRun(net *fabnet.Network, w workload, txs []txRecord) error {
	if err := awaitConvergence(net); err != nil {
		return err
	}
	ref := net.Peers[0].Ledger()
	refState, err := ref.StateHash()
	if err != nil {
		return fmt.Errorf("state hash of %s: %w", net.Peers[0].ID(), err)
	}
	for _, p := range net.Peers {
		l := p.Ledger()
		if err := l.VerifyChain(); err != nil {
			return fmt.Errorf("peer %s chain: %w", p.ID(), err)
		}
		if !bytes.Equal(l.LastHash(), ref.LastHash()) {
			return fmt.Errorf("peer %s tip differs from %s", p.ID(), net.Peers[0].ID())
		}
		sh, err := l.StateHash()
		if err != nil {
			return fmt.Errorf("state hash of %s: %w", p.ID(), err)
		}
		if !bytes.Equal(sh, refState) {
			return fmt.Errorf("peer %s state hash differs from %s", p.ID(), net.Peers[0].ID())
		}
	}

	// Index the valid transactions of the chain by TxID.
	type pos struct{ block, tx uint64 }
	valid := make(map[types.TxID]pos)
	for n := ref.Base(); n < ref.Height(); n++ {
		b, err := ref.GetBlock(n)
		if err != nil {
			return fmt.Errorf("block %d: %w", n, err)
		}
		decoded, err := b.Transactions()
		if err != nil {
			return err
		}
		for i, tx := range decoded {
			if !b.Metadata.ValidationFlags[i].Valid() {
				continue
			}
			if _, dup := valid[tx.ID()]; dup {
				return fmt.Errorf("tx %s committed twice", tx.ID())
			}
			valid[tx.ID()] = pos{n, uint64(i)}
		}
	}

	committed := 0
	last := make(map[string]pos) // key -> ledger position of its last write
	lastValue := make(map[string][]byte)
	for _, r := range txs {
		if r.outcome != outcomeCommitted {
			continue
		}
		committed++
		p, ok := valid[r.txID]
		if !ok {
			return fmt.Errorf("tx %s reported committed but is not valid on the ledger", r.txID)
		}
		if p.block != r.block {
			return fmt.Errorf("tx %s reported in block %d, ledger has it in %d", r.txID, r.block, p.block)
		}
		if r.key == "" {
			continue
		}
		if q, seen := last[r.key]; !seen || p.block > q.block || (p.block == q.block && p.tx > q.tx) {
			last[r.key], lastValue[r.key] = p, r.value
		}
	}
	if committed != len(valid) {
		return fmt.Errorf("ledger holds %d valid txs, driver saw %d commit", len(valid), committed)
	}
	state := ref.State()
	for key, want := range lastValue {
		got, ok, err := state.Get(w.chaincode(), key)
		if err != nil {
			return fmt.Errorf("read %s: %w", key, err)
		}
		if !ok || !bytes.Equal(got.Value, want) {
			return fmt.Errorf("key %s holds %q, last committed write was %q", key, got.Value, want)
		}
	}
	return nil
}

// awaitConvergence waits until every peer has committed the same number
// of blocks.
func awaitConvergence(net *fabnet.Network) error {
	deadline := time.Now().Add(convergeTimeout)
	for {
		h0 := net.Peers[0].Ledger().Height()
		same := true
		for _, p := range net.Peers[1:] {
			if p.Ledger().Height() != h0 {
				same = false
				break
			}
		}
		if same {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("peers did not converge to one height")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
