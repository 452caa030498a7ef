package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"fabricsim/internal/fabnet"
	"fabricsim/internal/gateway"
	"fabricsim/internal/types"
)

// outcome is the final, client-visible result of one logical
// transaction.
type outcome int

const (
	outcomeCommitted outcome = iota
	// outcomeConflict: every attempt lost an MVCC conflict or was
	// early-aborted by the conflict-aware orderer. That is the correct
	// result of a contended read-modify-write, not a malfunction.
	outcomeConflict
	// outcomeFailed: a timeout, a refusal, a transport error or an
	// open-loop arrival skipped on a full window.
	outcomeFailed
)

// txRecord is the driver's record of one logical transaction (all its
// attempts).
type txRecord struct {
	// due is when the transaction was due: its arrival time in the open
	// loop, or when the worker's previous transaction resolved in the
	// closed loop. Latency is measured from here.
	due time.Time
	// issued is when the first Propose call started.
	issued   time.Time
	end      time.Time
	attempts int
	outcome  outcome
	err      error
	// txID and block identify the committing attempt.
	txID  types.TxID
	block uint64
	key   string
	value []byte
}

// stageSample is the wall time one attempt spent in the gateway stage
// calls after Propose, whose host cost a microload measures instead:
// its wall time is mostly the modeled client CPU.
type stageSample struct {
	endorse, submit, commitWait time.Duration
}

// runLog collects one load run's records. Closed-loop workers each own
// a log; the open loop shares one behind mu.
type runLog struct {
	mu     sync.Mutex
	txs    []txRecord
	stages []stageSample
}

func (l *runLog) add(r txRecord, stages []stageSample) {
	l.mu.Lock()
	l.txs = append(l.txs, r)
	l.stages = append(l.stages, stages...)
	l.mu.Unlock()
}

// loadResult is what one load run observed, before reduction.
type loadResult struct {
	start, end time.Time // load window: arrivals stop at end
	drained    time.Time // every transaction resolved
	txs        []txRecord
	stages     []stageSample
	timerLag   []time.Duration
	peakGor    int
	cpuSamples []cpuSample
	// refKernel is the median time of the host speed reference kernel.
	refKernel time.Duration
	// Cumulative process counters over start..drained.
	host hostSample
	// egressBytes is what the ordering service pushed or served to
	// peers over the whole run; blocks is the chain height.
	egressBytes uint64
	blocks      uint64
}

// driver runs the seeded load of one workload against a started
// network through the gateway's stage API.
type driver struct {
	w    workload
	net  *fabnet.Network
	seed int64
	cc   string
}

// run drives load for dur of wall time and waits for every transaction
// to resolve. Host counters cover exactly that interval.
func (d *driver) run(dur time.Duration) loadResult {
	probe := startProbe()
	before := readHost()
	res := loadResult{start: time.Now()}
	res.end = res.start.Add(dur)
	var logs []*runLog
	if d.w.window > 0 {
		logs = d.closedLoop(res.end)
	} else {
		logs = []*runLog{d.openLoop(res.start, res.end)}
	}
	res.drained = time.Now()
	res.host = readHost().sub(before)
	probe.stop()
	res.timerLag, res.peakGor, res.cpuSamples = probe.lags, probe.peak, probe.cpu
	res.refKernel = quantileDur(probe.ref, 0.5)
	for _, l := range logs {
		res.txs = append(res.txs, l.txs...)
		res.stages = append(res.stages, l.stages...)
	}
	return res
}

// closedLoop runs window workers per client; each issues its next
// transaction as soon as the previous one resolves, until end.
func (d *driver) closedLoop(end time.Time) []*runLog {
	var wg sync.WaitGroup
	var logs []*runLog
	for ci, cl := range d.net.Clients {
		gw := cl.Gateway()
		for k := 0; k < d.w.window; k++ {
			stream := ci*d.w.window + k
			l := &runLog{}
			logs = append(logs, l)
			wg.Add(1)
			go func() {
				defer wg.Done()
				gen := newGenerator(d.w.gen, d.seed, stream)
				jitter := rand.New(rand.NewSource(d.seed ^ int64(stream+1)<<20))
				due := time.Now()
				for due.Before(end) {
					r, st := d.execute(gw, gen.next(), due, jitter)
					l.txs = append(l.txs, r)
					l.stages = append(l.stages, st...)
					due = r.end
				}
			}()
		}
	}
	wg.Wait()
	return logs
}

// openLoop issues arrivals at the workload's rate, evenly spaced in
// model time and spread round-robin over the clients, without waiting
// for earlier ones. An arrival that finds its client's window full is
// skipped and recorded as failed.
func (d *driver) openLoop(start, end time.Time) *runLog {
	l := &runLog{}
	gen := newGenerator(d.w.gen, d.seed, 0)
	jitter := &lockedRand{r: rand.New(rand.NewSource(d.seed ^ 1<<40))}
	gap := time.Duration(float64(time.Second) * timeScale / d.w.rate)
	clients := d.net.Clients
	slots := make([]chan struct{}, len(clients))
	for i := range slots {
		slots[i] = make(chan struct{}, openLoopWindow)
	}
	var wg sync.WaitGroup
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * gap)
		if !due.Before(end) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		c := gen.next()
		ci := i % len(clients)
		select {
		case slots[ci] <- struct{}{}:
		default:
			now := time.Now()
			l.add(txRecord{due: due, issued: now, end: now, outcome: outcomeFailed, err: gateway.ErrWindowFull}, nil)
			continue
		}
		gw := clients[ci].Gateway()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots[ci] }()
			r, st := d.execute(gw, c, due, jitter)
			l.add(r, st)
		}()
	}
	wg.Wait()
	return l
}

// floatSource is the part of *rand.Rand the retry backoff uses.
type floatSource interface{ Float64() float64 }

// lockedRand shares one jitter source among open-loop goroutines.
type lockedRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

func (l *lockedRand) Float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Float64()
}

// Conflict-retry backoff in model time: 20ms doubling per retry, ±20%
// jitter, the gateway's own retry defaults for the contention sweeps.
const (
	retryBackoff = 20 * time.Millisecond
	retryJitter  = 0.2
)

// execute runs one logical transaction through Propose → Endorse →
// Submit → Commit.Status, retrying conflict aborts up to the workload's
// attempt budget with a fresh proposal each time.
func (d *driver) execute(gw *gateway.Gateway, c call, due time.Time, jitter floatSource) (txRecord, []stageSample) {
	ctx := context.Background()
	r := txRecord{due: due, issued: time.Now(), key: c.key, value: c.value}
	var stages []stageSample
	for attempt := 1; ; attempt++ {
		r.attempts = attempt
		st, sample, err := d.attempt(ctx, gw, c)
		stages = append(stages, sample)
		switch {
		case err == nil:
			r.outcome, r.txID, r.block = outcomeCommitted, st.TxID, st.BlockNum
		case !gateway.Retryable(err):
			r.outcome, r.err = outcomeFailed, err
		case attempt >= d.w.attempts:
			r.outcome, r.err = outcomeConflict, err
		default:
			backoff := float64(retryBackoff<<(attempt-1)) * (1 + retryJitter*(2*jitter.Float64()-1))
			time.Sleep(time.Duration(backoff * timeScale))
			continue
		}
		r.end = time.Now()
		return r, stages
	}
}

// attempt is one pass through the four gateway stages, timed around
// the calls.
func (d *driver) attempt(ctx context.Context, gw *gateway.Gateway, c call) (*gateway.Status, stageSample, error) {
	var s stageSample
	prop, err := gw.Propose(ctx, "", d.cc, c.fn, c.args)
	t1 := time.Now()
	if err != nil {
		return nil, s, err
	}
	txn, err := prop.Endorse(ctx)
	t2 := time.Now()
	s.endorse = t2.Sub(t1)
	if err != nil {
		return nil, s, err
	}
	cmt, err := txn.Submit(ctx)
	t3 := time.Now()
	s.submit = t3.Sub(t2)
	if err != nil {
		return nil, s, err
	}
	st, err := cmt.Status(ctx)
	s.commitWait = time.Since(t3)
	return st, s, err
}

// probe measures host timer distortion: a goroutine sleeps 1ms in a
// loop and records how far each wake overshoots, the same lateness
// simcpu reservations and transport link pumps suffer. It also samples
// the goroutine count and the process CPU clock, and times the host
// speed reference kernel.
type probe struct {
	stopCh chan struct{}
	done   chan struct{}
	lags   []time.Duration
	cpu    []cpuSample
	ref    []time.Duration
	peak   int
}

// cpuSample is the process CPU clock read at one instant.
type cpuSample struct {
	at  time.Time
	cpu time.Duration
}

const (
	probeSleep = time.Millisecond
	// Every probeEvery-th wake samples goroutines and CPU (~10 Hz).
	probeEvery = 100
)

func startProbe() *probe {
	p := &probe{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		for i := 0; ; i++ {
			select {
			case <-p.stopCh:
				return
			default:
			}
			t := time.Now()
			time.Sleep(probeSleep)
			p.lags = append(p.lags, time.Since(t)-probeSleep)
			if i%probeEvery == 0 {
				if n := runtime.NumGoroutine(); n > p.peak {
					p.peak = n
				}
				p.cpu = append(p.cpu, cpuSample{at: time.Now(), cpu: readHost().cpu})
				p.ref = append(p.ref, timeRefKernel())
			}
		}
	}()
	return p
}

// stop ends the probe.
func (p *probe) stop() {
	close(p.stopCh)
	<-p.done
}
