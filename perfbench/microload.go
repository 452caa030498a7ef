package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"fabricsim/internal/fabnet"
	"fabricsim/internal/ledger"
	"fabricsim/internal/rwdep"
	"fabricsim/internal/simcpu"
	"fabricsim/internal/statedb"
	"fabricsim/internal/transport"
	"fabricsim/internal/types"
)

// Host microloads time one layer's public functions on seeded,
// generated inputs, apart from any network run. Each reports the median
// of several batches, so one descheduled batch does not move it.

// cost is one microload's per-operation cost.
type cost struct {
	ns     float64 // median wall ns per op over the batches
	cpuNs  float64 // process CPU ns per op over all batches
	allocs float64 // heap objects per op
	bytes  float64 // heap bytes per op
}

const microBatches = 7

// measure runs op n times in each of microBatches batches, after one
// unmeasured warm-up batch.
func measure(n int, op func(i int) error) (cost, error) {
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			return cost{}, err
		}
	}
	runtime.GC()
	var perOp []time.Duration
	before := readHost()
	for b := 0; b < microBatches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := op((b+1)*n + i); err != nil {
				return cost{}, err
			}
		}
		perOp = append(perOp, time.Since(t0)/time.Duration(n))
	}
	d := readHost().sub(before)
	ops := float64(n * microBatches)
	return cost{
		ns:     float64(quantileDur(perOp, 0.5)),
		cpuNs:  float64(d.cpu) / ops,
		allocs: float64(d.allocs) / ops,
		bytes:  float64(d.bytes) / ops,
	}, nil
}

// microloads fills m with every microload metric.
func microloads(m map[string]float64, w workload, seed int64) error {
	steps := []func(map[string]float64, workload, int64) error{
		microTransport, microNewLink, microSimcpu, microPropose,
		microTypes, microLedger, microStatedb, microRwdep,
	}
	for _, step := range steps {
		if err := step(m, w, seed); err != nil {
			return err
		}
	}
	return nil
}

// microTransport times a MemEndpoint.Call round trip on a zero-latency
// link with an echo handler.
func microTransport(m map[string]float64, _ workload, _ int64) error {
	net := transport.NewNetwork(transport.Config{TimeScale: 1})
	defer net.Close()
	a, err := net.Register("a")
	if err != nil {
		return err
	}
	b, err := net.Register("b")
	if err != nil {
		return err
	}
	b.Handle("echo", func(_ context.Context, _ string, p any) (any, int, error) { return p, 64, nil })
	ctx := context.Background()
	c, err := measure(2000, func(int) error {
		_, err := a.Call(ctx, "b", "echo", "ping", 64)
		return err
	})
	if err != nil {
		return fmt.Errorf("transport call: %w", err)
	}
	m["transport.call_ns"] = c.ns
	m["transport.call_allocs"] = c.allocs
	return nil
}

// microNewLink measures the bytes the first send on a new directed link
// allocates beyond a send on an existing link.
func microNewLink(m map[string]float64, _ workload, _ int64) error {
	const links = 16
	net := transport.NewNetwork(transport.Config{TimeScale: 1})
	defer net.Close()
	src, err := net.Register("src")
	if err != nil {
		return err
	}
	for i := 0; i < links; i++ {
		dst, err := net.Register("dst" + strconv.Itoa(i))
		if err != nil {
			return err
		}
		dst.Handle("noop", func(context.Context, string, any) (any, int, error) { return nil, 0, nil })
	}
	sendAll := func() (uint64, error) {
		before := readHost()
		for i := 0; i < links; i++ {
			if err := src.Send("dst"+strconv.Itoa(i), "noop", nil, 64); err != nil {
				return 0, err
			}
		}
		return readHost().sub(before).bytes, nil
	}
	first, err := sendAll()
	if err != nil {
		return err
	}
	again, err := sendAll()
	if err != nil {
		return err
	}
	m["transport.new_link_bytes"] = (float64(first) - float64(again)) / links
	return nil
}

// microSimcpu times Execute of a reservation long enough to take the
// sleeping path, on an idle single core. The wall time is mostly the
// sleep, so the metric is the process CPU it costs.
func microSimcpu(m map[string]float64, _ workload, _ int64) error {
	cpu := simcpu.New(1, 1)
	defer cpu.Stop()
	ctx := context.Background()
	c, err := measure(300, func(int) error { return cpu.Execute(ctx, 20*time.Microsecond) })
	if err != nil {
		return fmt.Errorf("simcpu: %w", err)
	}
	m["simcpu.execute_ns"] = c.cpuNs
	m["simcpu.execute_allocs"] = c.allocs
	return nil
}

// microPropose times the gateway's Propose stage host work: a Solo
// network with the workload's endorsement policy whose modeled client
// CPU is zero, so the call never sleeps.
func microPropose(m map[string]float64, w workload, seed int64) error {
	cfg := w.config()
	cfg.Orderer, cfg.NumOrderers, cfg.Gossip.Enabled = fabnet.Solo, 1, false
	cfg.NumClients = 1
	cfg.Model.ClientPerTxCPU, cfg.Model.ClientPerEndorsementCPU = 0, 0
	net, err := fabnet.Build(cfg)
	if err != nil {
		return err
	}
	defer net.Stop()
	ctx := context.Background()
	if err := net.Start(ctx); err != nil {
		return err
	}
	gw := net.Clients[0].Gateway()
	gen := newGenerator(w.gen, seed, 0)
	calls := make([]call, 200*(microBatches+1))
	for i := range calls {
		calls[i] = gen.next()
	}
	c, err := measure(200, func(i int) error {
		_, err := gw.Propose(ctx, "", w.chaincode(), calls[i].fn, calls[i].args)
		return err
	})
	if err != nil {
		return fmt.Errorf("propose: %w", err)
	}
	m["gateway.propose_host_us"] = c.ns / 1e3
	return nil
}

// synthTx builds a transaction envelope shaped like the workloads':
// 64-hex TxID, client creator, one endorsement, the given read-write
// set.
func synthTx(rng *rand.Rand, ns string, rw types.RWSet) *types.Transaction {
	nonce := make([]byte, 24)
	rng.Read(nonce)
	creator := []byte("Org1.client0")
	sig := func() []byte { s := make([]byte, 32); rng.Read(s); return s }
	var args [][]byte
	for _, w := range rw.Writes {
		args = append(args, []byte(w.Key), w.Value)
	}
	return &types.Transaction{
		Proposal: types.Proposal{
			TxID: types.ComputeTxID(nonce, creator), ChannelID: "perf", ChaincodeID: ns,
			Fn: "write", Args: args, Creator: creator, Nonce: nonce, Timestamp: rng.Int63(),
		},
		Results:      rw,
		Endorsements: []types.Endorsement{{EndorserID: "Org1.peer0", EndorserOrg: "Org1", Signature: sig()}},
		ClientSig:    sig(),
		SubmitTime:   rng.Int63(),
	}
}

// blockTxs is the transactions per block of the block microloads, the
// workloads' BatchSize.
const blockTxs = 100

// writeTxs returns n blind-write transactions over keyOf(i).
func writeTxs(rng *rand.Rand, n int, keyOf func(i int) string) []*types.Transaction {
	txs := make([]*types.Transaction, n)
	for i := range txs {
		v := []byte(strconv.FormatUint(rng.Uint64(), 36))
		txs[i] = synthTx(rng, fabnet.ChaincodeBench, types.RWSet{Writes: []types.KVWrite{{Key: keyOf(i), Value: v}}})
	}
	return txs
}

// bankTxs returns n SmallBank-shaped read-modify-write transactions over
// the SmallBank account pool.
func bankTxs(rng *rand.Rand, n int) []*types.Transaction {
	txs := make([]*types.Transaction, n)
	for i := range txs {
		a := "c:a" + strconv.Itoa(rng.Intn(smallBankAccounts))
		b := "c:a" + strconv.Itoa(rng.Intn(smallBankAccounts))
		v := types.Version{BlockNum: uint64(rng.Intn(50)), TxNum: uint64(rng.Intn(blockTxs))}
		rw := types.RWSet{
			Reads:  []types.KVRead{{Key: a, Version: v, Exists: true}, {Key: b, Version: v, Exists: true}},
			Writes: []types.KVWrite{{Key: a, Value: []byte("9995")}, {Key: b, Value: []byte("10005")}},
		}
		txs[i] = synthTx(rng, fabnet.ChaincodeSmallBank, rw)
	}
	return txs
}

func marshalAll(txs []*types.Transaction) [][]byte {
	data := make([][]byte, len(txs))
	for i, tx := range txs {
		data[i] = tx.Marshal()
	}
	return data
}

// microTypes times decoding a whole block and peeking one envelope's
// rwset.
func microTypes(m map[string]float64, _ workload, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	blk := types.NewBlock(7, make([]byte, 32), marshalAll(writeTxs(rng, blockTxs, func(i int) string { return "k" + strconv.Itoa(i) })))
	raw := blk.Marshal()
	c, err := measure(20, func(int) error {
		b, err := types.UnmarshalBlock(raw)
		if err != nil {
			return err
		}
		_, err = b.Transactions()
		return err
	})
	if err != nil {
		return fmt.Errorf("block decode: %w", err)
	}
	m["types.block_decode_ns_per_tx"] = c.ns / blockTxs
	m["types.block_decode_allocs_per_tx"] = c.allocs / blockTxs
	envs := marshalAll(bankTxs(rng, blockTxs))
	c, err = measure(2000, func(i int) error {
		_, err := types.PeekEnvelopeInfo(envs[i%len(envs)])
		return err
	})
	if err != nil {
		return fmt.Errorf("peek envelope: %w", err)
	}
	m["types.peek_envelope_ns"] = c.ns
	return nil
}

// ledgerBlocks returns count validated blocks of blind writes chained
// onto l's tip.
func ledgerBlocks(l *ledger.Ledger, rng *rand.Rand, count int, keyOf func(i int) string) ([]*types.Block, [][]*types.Transaction) {
	blocks := make([]*types.Block, count)
	txsOf := make([][]*types.Transaction, count)
	prev, num := l.LastHash(), l.Height()
	for i := range blocks {
		base := i * blockTxs
		txs := writeTxs(rng, blockTxs, func(j int) string { return keyOf(base + j) })
		b := types.NewBlock(num+uint64(i), prev, marshalAll(txs))
		for j := range b.Metadata.ValidationFlags {
			b.Metadata.ValidationFlags[j] = types.ValidationValid
		}
		blocks[i], txsOf[i], prev = b, txs, b.Header.Hash()
	}
	return blocks, txsOf
}

// microLedger times Ledger.Commit of 100-tx blocks, once on fresh keys
// and once on 16 hot keys whose history is already past the cap.
func microLedger(m map[string]float64, _ workload, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	const blocks = 8 // per batch
	run := func(keyOf func(i int) string, warmBlocks int) (cost, error) {
		l := ledger.New()
		defer l.Close()
		warm, warmTxs := ledgerBlocks(l, rng, warmBlocks, keyOf)
		for i, b := range warm {
			if err := l.Commit(b, warmTxs[i]); err != nil {
				return cost{}, err
			}
		}
		bs, txs := ledgerBlocks(l, rng, blocks*(microBatches+1), keyOf)
		c, err := measure(blocks, func(i int) error { return l.Commit(bs[i], txs[i]) })
		c.ns /= blockTxs
		c.allocs /= blockTxs
		c.bytes /= blockTxs
		return c, err
	}
	fresh, err := run(func(i int) string { return "f" + strconv.Itoa(i) }, 0)
	if err != nil {
		return fmt.Errorf("ledger fresh: %w", err)
	}
	m["ledger.commit_fresh_ns_per_tx"] = fresh.ns
	m["ledger.commit_fresh_allocs_per_tx"] = fresh.allocs
	// Warm with twice the cap per key on average, so that every hot key
	// is past the history cap before timing starts.
	warm := 2 * ledger.DefaultHistoryCap * hotKeys / blockTxs
	hot, err := run(func(int) string { return "h" + strconv.Itoa(rng.Intn(hotKeys)) }, warm)
	if err != nil {
		return fmt.Errorf("ledger hot: %w", err)
	}
	m["ledger.commit_hot_ns_per_tx"] = hot.ns
	m["ledger.commit_hot_bytes_per_tx"] = hot.bytes
	return nil
}

// microStatedb times ApplyUpdates of 100-write batches of fresh keys.
func microStatedb(m map[string]float64, _ workload, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	const perBatch = 100
	db := statedb.New()
	defer db.Close()
	batches := make([]*statedb.UpdateBatch, 20*(microBatches+1))
	for i := range batches {
		b := statedb.NewUpdateBatch()
		for j := 0; j < perBatch; j++ {
			v := types.Version{BlockNum: uint64(i + 1), TxNum: uint64(j)}
			b.Put(fabnet.ChaincodeBench, "s"+strconv.Itoa(i*perBatch+j), []byte(strconv.FormatUint(rng.Uint64(), 36)), v)
		}
		batches[i] = b
	}
	c, err := measure(20, func(i int) error {
		return db.ApplyUpdates(batches[i], types.Version{BlockNum: uint64(i + 1), TxNum: perBatch})
	})
	if err != nil {
		return fmt.Errorf("statedb: %w", err)
	}
	m["statedb.apply_ns_per_write"] = c.ns / perBatch
	return nil
}

// microRwdep times conflict-aware scheduling of a SmallBank block and
// the dependency chains of the scheduled order.
func microRwdep(m map[string]float64, _ workload, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	rws := rwdep.FromTransactions(bankTxs(rng, blockTxs))
	c, err := measure(50, func(int) error { rwdep.Schedule(rws, nil); return nil })
	if err != nil {
		return err
	}
	m["rwdep.schedule_ns_per_tx"] = c.ns / blockTxs
	order, _ := rwdep.Schedule(rws, nil)
	scheduled := make([]rwdep.RW, len(order))
	for i, idx := range order {
		scheduled[i] = rws[idx]
	}
	c, err = measure(50, func(int) error { rwdep.Chains(scheduled, nil); return nil })
	if err != nil {
		return err
	}
	m["rwdep.chains_ns_per_tx"] = c.ns / blockTxs
	return nil
}
