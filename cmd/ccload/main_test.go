package main

import "testing"

// TestScenarioMatrix runs every named scenario at the size CI used to run
// them: each fails unless its cache regime produces its counter signature.
func TestScenarioMatrix(t *testing.T) {
	if err := runScenarios("all", 2000, 8, 1); err != nil {
		t.Fatal(err)
	}
}

// TestResizeRecovers grows a four-node cluster to eight mid-replay and
// drains it back: no client-visible error, blocks rebalanced, the full
// epoch sequence, and the base nodes' hit rate after the drain within five
// points of theirs before the grow. runResize returns nil only after that
// verdict.
func TestResizeRecovers(t *testing.T) {
	if err := runResize(8000, 8, 1); err != nil {
		t.Fatal(err)
	}
}
