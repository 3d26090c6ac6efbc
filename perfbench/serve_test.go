package main

import (
	"testing"

	"repro/internal/loadgen"
)

// TestMixBlock: serve-mixed's op block follows htload's default mix.
func TestMixBlock(t *testing.T) {
	if got, want := blockFromMix(loadgen.DefaultMix, blockSize), [numKinds]int{6, 4, 3, 4, 3}; got != want {
		t.Errorf("default mix block %v, want %v", got, want)
	}
	even := loadgen.Mix{CampaignCached: 1, CampaignUncached: 1, Sim: 1, ArtifactGet: 1, SSE: 1}
	if got, want := blockFromMix(even, 7), [numKinds]int{2, 2, 1, 1, 1}; got != want {
		t.Errorf("even mix over 7 ops %v, want %v", got, want)
	}
}
