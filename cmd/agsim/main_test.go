package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

func TestRunShortSimulation(t *testing.T) {
	err := run([]string{
		"-protocol", "gossip",
		"-nodes", "15",
		"-range", "70",
		"-duration", "60s",
		"-seed", "2",
		"-verbose",
		"-trace", "5",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunAllProtocols(t *testing.T) {
	// Canonical stack names, bare and composed, and an alias spelling.
	for _, p := range []string{"maodv", "flood", "flood+gossip", "odmrp-gossip"} {
		if err := run([]string{"-protocol", p, "-nodes", "12", "-duration", "60s"}); err != nil {
			t.Fatalf("protocol %s: %v", p, err)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run([]string{"-protocol", "carrier-pigeon"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if err := run([]string{"-nodes", "1", "-duration", "60s"}); err == nil {
		t.Fatal("single-node config accepted")
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	// The implementation-selection flags are gone — even the old default
	// values fail flag parsing, which main turns into a non-zero exit.
	for _, removed := range [][]string{
		{"-scheduler", "serial"}, {"-queue", "quad"}, {"-index", "grid"}, {"-rxmodel", "batch"},
	} {
		if err := run(removed); err == nil {
			t.Fatalf("removed %s flag accepted", removed[0])
		}
	}
	// Non-finite speeds used to run to completion with 0% delivery.
	for _, speed := range []string{"NaN", "+Inf"} {
		if err := run([]string{"-speed", speed, "-duration", "30s"}); err == nil {
			t.Fatalf("-speed %s accepted", speed)
		}
	}
	if err := run([]string{"-metrics-window", "-1s", "-duration", "60s"}); err == nil {
		t.Fatal("negative metrics window accepted")
	}
	// A negative speed used to run and report "-1.0 m/s max", an
	// out-of-range probability to run silently as 1, and a negative pause
	// as a world with no pauses.
	for _, bad := range [][]string{{"-speed", "-1"}, {"-panon", "7"}, {"-panon", "NaN"}, {"-pause", "-5s"}} {
		if err := run(append(bad, "-duration", "30s")); err == nil {
			t.Fatalf("%s %s accepted", bad[0], bad[1])
		}
	}
	// A non-positive gossip period used to re-arm the round at the same
	// simulated instant forever, and a nanosecond metrics window to slice
	// the run 3 × 10¹⁰ times; run them off the test goroutine so a
	// regression fails instead of hanging the suite.
	for _, hang := range [][]string{
		{"-gossip-interval", "0"}, {"-gossip-interval", "-1s"}, {"-metrics-window", "1ns"},
	} {
		done := make(chan error, 1)
		go func() { done <- run(append(hang, "-duration", "30s")) }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("%s %s accepted", hang[0], hang[1])
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s %s never returned", hang[0], hang[1])
		}
	}
}

// TestRunShortDurationSendsData pins the one shortening rule: a 30 s
// run keeps a 6 s–24 s data window instead of the negative one the
// fixed 40 s cool-down used to compute (and run silently with).
func TestRunShortDurationSendsData(t *testing.T) {
	out := captureStdout(t, func() {
		if err := run([]string{"-nodes", "12", "-duration", "30s"}); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	var sent int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "workload") {
			fmt.Sscanf(line, "workload %d packets", &sent)
		}
	}
	if sent == 0 {
		t.Fatalf("30 s run sent no packets:\n%s", out)
	}
}

// captureStdout returns what fn prints to os.Stdout.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	fn()
	w.Close()
	return <-read
}
