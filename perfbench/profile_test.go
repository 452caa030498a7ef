package main

import (
	"testing"
	"time"
)

const sampleTraces = `File: perfbench
Build ID: 550361b85a643867ff1173776dac06c963128b6e
Type: cpu
Time: 2026-10-17 13:07:54 UTC
Duration: 6.59s, Total samples = 770ms (11.69%)
-----------+-------------------------------------------------------
      10ms   runtime.memclrNoHeapPointers
             runtime.mallocgc
             internal/runtime/maps.newGroups (inline)
             fabricsim/internal/chaincode.(*Simulator).PutState
             fabricsim/internal/peer.(*Peer).handleEndorse
-----------+-------------------------------------------------------
      30ms   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
     1.02s   fabricsim/internal/orderer/blockcutter.(*Cutter).Ordered
             fabricsim/internal/orderer.(*Orderer).handleBroadcast
-----------+-------------------------------------------------------
`

func TestParseTracesCreditsInnermostInternalFrame(t *testing.T) {
	got, err := parseTraces([]byte(sampleTraces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"chaincode": 10 * time.Millisecond,
		"runtime":   30 * time.Millisecond,
		"orderer":   1020 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for pkg, d := range want {
		if got[pkg] != d {
			t.Errorf("%s: got %v, want %v", pkg, got[pkg], d)
		}
	}
}

func TestParseTracesRejectsEmptyProfile(t *testing.T) {
	if _, err := parseTraces([]byte("File: perfbench\nType: cpu\n")); err == nil {
		t.Fatal("want an error for a profile without samples")
	}
}
