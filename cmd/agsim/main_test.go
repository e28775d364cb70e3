package main

import "testing"

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
	// Canonical registry names, the composed sixth stack the legacy enum
	// could not express, and a legacy alias spelling.
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
}
