package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/fabnet"
	"fabricsim/internal/policy"
)

// timeScale is the wall seconds one model second takes. At 0.1 the
// simulator's own host work leaks into model-time results (the commit
// sweep reads 5-13% below its 0.4 figure); at this scale the host stays
// a small fraction of one core on every workload, so model-time
// results repeat from run to run.
const timeScale = 0.5

// Committer shape shared by every workload: four state-apply workers
// and two blocks in flight per channel.
const (
	committerPool  = 4
	committerDepth = 2
)

// genKind selects the transaction generator of a workload.
type genKind int

const (
	genFresh     genKind = iota // blind write of one fresh key per tx
	genHotKeys                  // blind write over hotKeys keys
	genSmallBank                // SmallBank read-modify-write mix
)

const (
	// hotKeys is the hot-key working set: every key is rewritten far
	// more often than the ledger's 256-entry per-key history cap.
	hotKeys = 16
	// smallBankAccounts is the uniform SmallBank account pool.
	smallBankAccounts = 1000
	// openLoopWindow bounds one client's in-flight open-loop
	// transactions; an arrival finding it full is skipped and counted
	// as failed. It is far above the ~40 a client holds at 150 tps.
	openLoopWindow = 256
)

// workload is one traffic mix: a network topology plus a load shape
// and a transaction generator.
type workload struct {
	name string
	why  string

	orderer  fabnet.OrdererType
	osns     int // ordering nodes (Raft) or 1
	brokers  int // Kafka brokers (Kafka only)
	orgs     int // endorsing organizations
	replicas int // endorsing replicas per organization
	and      bool
	gossip   bool
	reorder  bool

	clients int
	// window > 0 makes a closed loop of window transactions per client;
	// window == 0 is an open loop at rate model tx/s.
	window int
	rate   float64
	// attempts is the gateway-level retry budget for conflict aborts.
	attempts int
	gen      genKind
}

// workloads lists the traffic mixes in the order BENCHMARK.json names
// them.
var workloads = []workload{
	{
		name:    "raft-or-fresh",
		why:     "paper system workload bound by validation: Raft, OR, one fresh key per tx; raft, committer, ledger append, decode and deliver do the host work",
		orderer: fabnet.Raft, osns: 3, orgs: 4, replicas: 1,
		clients: 8, window: 16, attempts: 1, gen: genFresh,
	},
	{
		name:    "and-gossip-kafka",
		why:     "paper finding 1 at a fixed 150 tps open loop: AND over 4 orgs x 2 replicas, Kafka, gossip; endorser, transport, VSCC and gossip lead",
		orderer: fabnet.Kafka, osns: 1, brokers: 3, orgs: 4, replicas: 2, and: true, gossip: true,
		clients: 4, rate: 150, attempts: 1, gen: genFresh,
	},
	{
		name:    "smallbank-reorder",
		why:     "read-modify-write SmallBank over 1000 accounts with reorder and 3 attempts: the only load where MVCC, rwdep scheduling, chains and retry work",
		orderer: fabnet.Solo, osns: 1, orgs: 4, replicas: 1, reorder: true,
		clients: 16, window: 16, attempts: 3, gen: genSmallBank,
	},
	{
		name:    "hotkey-overwrite",
		why:     "blind writes over 16 keys with reorder: same layers as raft-or-fresh but every write passes the ledger's per-key history cap; no aborts",
		orderer: fabnet.Solo, osns: 1, orgs: 4, replicas: 1, reorder: true,
		clients: 16, window: 16, attempts: 1, gen: genHotKeys,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config builds the workload's network configuration.
func (w workload) config() fabnet.Config {
	pol := policy.OrOverPeers(w.orgs)
	if w.and {
		pol = policy.AndOverPeers(w.orgs)
	}
	return fabnet.Config{
		Orderer:           w.orderer,
		NumOrderers:       w.osns,
		NumKafkaBrokers:   w.brokers,
		NumEndorsingPeers: w.orgs,
		EndorsersPerOrg:   w.replicas,
		NumClients:        w.clients,
		Policy:            pol,
		Reorder:           w.reorder,
		Model:             costmodel.Default(timeScale),
		CommitterPool:     committerPool,
		CommitDepth:       committerDepth,
		Gossip:            fabnet.GossipConfig{Enabled: w.gossip},
	}
}

// chaincode returns the installed chaincode the workload invokes.
func (w workload) chaincode() string {
	if w.gen == genSmallBank {
		return fabnet.ChaincodeSmallBank
	}
	return fabnet.ChaincodeBench
}

// call is one generated transaction: the chaincode function and its
// arguments. For the KV generators key and value are kept so the
// correctness gate can check the committed state.
type call struct {
	fn    string
	args  [][]byte
	key   string
	value []byte
}

// generator produces one stream of calls from a seeded source. Each
// closed-loop worker (or the single open-loop generator) owns one, so a
// seed always yields the same inputs per stream.
type generator struct {
	kind genKind
	rng  *rand.Rand
	// tag makes fresh keys distinct across streams and seeds.
	tag string
	seq int
}

func newGenerator(kind genKind, seed int64, stream int) *generator {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
	return &generator{kind: kind, rng: rng, tag: fmt.Sprintf("%x-%d", rng.Uint32(), stream)}
}

func (g *generator) next() call {
	switch g.kind {
	case genSmallBank:
		return g.nextSmallBank()
	case genHotKeys:
		return g.write("h" + strconv.Itoa(g.rng.Intn(hotKeys)))
	default:
		g.seq++
		return g.write("k" + g.tag + "-" + strconv.Itoa(g.seq))
	}
}

// write is a blind write of a random 8-byte value, distinct per call
// with overwhelming probability, so the final state identifies the
// last committed writer of every key.
func (g *generator) write(key string) call {
	v := []byte(strconv.FormatUint(g.rng.Uint64()|1<<63, 36))
	return call{fn: "write", args: [][]byte{[]byte(key), v}, key: key, value: v}
}

// nextSmallBank draws from the SmallBank mix: 15% deposit, 15%
// transact, 25% send-payment, 15% write-check, 15% amalgamate, 15%
// balance query, accounts uniform over smallBankAccounts. Amalgamate
// empties its source account, which would make later payments from it
// fail for lack of funds. So amalgamate sources come from the upper
// half of the pool and payment sources from the lower half: both halves
// still share the same conflicts through the destinations, and no
// operation is refused by the chaincode.
func (g *generator) nextSmallBank() call {
	half := smallBankAccounts / 2
	acct := func(lo, n int) []byte { return []byte("a" + strconv.Itoa(lo+g.rng.Intn(n))) }
	anyAcct := func() []byte { return acct(0, smallBankAccounts) }
	switch r := g.rng.Intn(100); {
	case r < 15:
		return call{fn: "deposit", args: [][]byte{anyAcct(), []byte("10")}}
	case r < 30:
		return call{fn: "transact", args: [][]byte{anyAcct(), []byte("10")}}
	case r < 55:
		return call{fn: "sendpayment", args: [][]byte{acct(0, half), anyAcct(), []byte("5")}}
	case r < 70:
		return call{fn: "writecheck", args: [][]byte{anyAcct(), []byte("5")}}
	case r < 85:
		return call{fn: "amalgamate", args: [][]byte{acct(half, half), acct(0, half)}}
	default:
		return call{fn: "query", args: [][]byte{anyAcct()}}
	}
}
