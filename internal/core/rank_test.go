package core

import "testing"

// TestRankOrder: confirmed defects first, unknowns by ascending Gs,
// generator refutations above pruner refutations.
func TestRankOrder(t *testing.T) {
	rep := &Report{
		Defects: []*DefectReport{
			{Signature: "pruned", Class: FalseByPruner},
			{Signature: "unknown-big", Class: Unknown,
				Cycles: []*CycleReport{{GsSize: 90}}},
			{Signature: "genfp", Class: FalseByGenerator},
			{Signature: "confirmed", Class: Confirmed,
				Cycles: []*CycleReport{{GsSize: 10, Class: Confirmed}}},
			{Signature: "unknown-small", Class: Unknown,
				Cycles: []*CycleReport{{GsSize: 5}}},
		},
	}
	got := rep.Rank()
	want := []string{"confirmed", "unknown-small", "unknown-big", "genfp", "pruned"}
	for i, d := range got {
		if d.Signature != want[i] {
			t.Fatalf("rank[%d] = %s, want %s", i, d.Signature, want[i])
		}
	}
	// The original order is untouched.
	if rep.Defects[0].Signature != "pruned" {
		t.Fatal("Rank mutated the report")
	}
}

// TestRankTiesDeterministic: equal-class, equal-size defects order by
// signature.
func TestRankTiesDeterministic(t *testing.T) {
	rep := &Report{
		Defects: []*DefectReport{
			{Signature: "b", Class: Unknown, Cycles: []*CycleReport{{GsSize: 7}}},
			{Signature: "a", Class: Unknown, Cycles: []*CycleReport{{GsSize: 7}}},
		},
	}
	got := rep.Rank()
	if got[0].Signature != "a" || got[1].Signature != "b" {
		t.Fatalf("tie order = %s,%s", got[0].Signature, got[1].Signature)
	}
}

// TestRankOnRealPipeline: Figure 2's ranking puts the confirmed defects
// above the generator-refuted θ4.
func TestRankOnRealPipeline(t *testing.T) {
	seed := findDetectionSeed(t, figure2Factory)
	rep := Analyze(figure2Factory, Config{DetectSeeds: []int64{seed}})
	ranked := rep.Rank()
	if len(ranked) != 3 {
		t.Fatalf("defects = %d", len(ranked))
	}
	if ranked[0].Class != Confirmed || ranked[1].Class != Confirmed {
		t.Fatalf("top ranks not confirmed: %v %v", ranked[0].Class, ranked[1].Class)
	}
	if ranked[2].Class != FalseByGenerator {
		t.Fatalf("bottom rank = %v, want false(generator)", ranked[2].Class)
	}
}
