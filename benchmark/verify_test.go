package main

import (
	"errors"
	"testing"
)

// A reply that differs from the expected product in one element, in length,
// or that arrives with an error is a counted failure, never a panic.
func TestVerifierCountsWrongAnswers(t *testing.T) {
	s, _ := specByName("fleet_small_seq")
	in := makeInputs(s, 7)
	got := in.want[0]

	var tl tally
	if !tl.record(got, nil, in.want[0]) {
		t.Fatal("the exact product was rejected")
	}

	corrupted := append([]uint64(nil), in.want[0]...)
	corrupted[len(corrupted)-1] ^= 1
	if tl.record(got, nil, corrupted) {
		t.Error("a corrupted expected vector went unnoticed")
	}
	if tl.record(got[:len(got)-1], nil, in.want[0]) {
		t.Error("a short reply went unnoticed")
	}
	if tl.record(nil, errors.New("boom"), in.want[0]) {
		t.Error("an error counted as a verified answer")
	}
	if tl.attempted != 4 || tl.failed != 3 {
		t.Errorf("tally = %d attempted, %d failed; want 4 and 3", tl.attempted, tl.failed)
	}
}

// The same seed gives the same inputs; another seed gives others.
func TestInputsFollowSeed(t *testing.T) {
	s, _ := specByName("fleet_small_seq")
	a, b, c := makeInputs(s, 1), makeInputs(s, 1), makeInputs(s, 2)
	for i := range a.want {
		if !equalVec(a.want[i], b.want[i]) {
			t.Fatalf("seed 1 drew different inputs twice (vector %d)", i)
		}
	}
	if equalVec(a.want[0], c.want[0]) {
		t.Error("seeds 1 and 2 drew the same inputs")
	}
}
