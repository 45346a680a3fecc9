package experiments

import (
	"math"
	"testing"

	"dsi/internal/datagen"
)

func powerPlanFor(p datagen.Profile, storageNodes float64) powerPlan {
	return powerPlan{
		Model:             p.Name,
		Trainers:          16,
		TrainerNode:       zionEX,
		WorkersPerTrainer: p.WorkersPerTrainer,
		WorkerNode:        cv1,
		StorageNodes:      storageNodes,
		StorageNodeWatts:  500,
	}
}

func TestBreakdownTotals(t *testing.T) {
	b := powerBreakdown{StorageWatts: 100, PreprocWatts: 200, TrainerWatts: 300}
	if b.total() != 600 {
		t.Fatalf("total = %v", b.total())
	}
	if got := b.dsiShare(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("dsiShare = %v", got)
	}
	var zero powerBreakdown
	if zero.dsiShare() != 0 {
		t.Fatal("zero breakdown share")
	}
}

func TestPlanEvaluate(t *testing.T) {
	b, err := powerPlanFor(datagen.RM1, 40).evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if b.StorageWatts != 40*500 {
		t.Fatalf("storage = %v", b.StorageWatts)
	}
	wantPre := 16 * datagen.RM1.WorkersPerTrainer * cv1.PowerWatts
	if math.Abs(b.PreprocWatts-wantPre) > 1e-6 {
		t.Fatalf("preproc = %v, want %v", b.PreprocWatts, wantPre)
	}
	if b.TrainerWatts != 16*zionEX.PowerWatts {
		t.Fatalf("trainer = %v", b.TrainerWatts)
	}
}

func TestPlanRejectsNoTrainers(t *testing.T) {
	p := powerPlanFor(datagen.RM1, 1)
	p.Trainers = 0
	if _, err := p.evaluate(); err == nil {
		t.Fatal("zero trainers accepted")
	}
}

func TestFigure1DSICanExceedHalf(t *testing.T) {
	// Figure 1: storage + preprocessing can consume more power than the
	// trainers; RM3's worker-heavy profile (55 workers per trainer) is
	// the clearest case, while RM2 (9.4 workers) stays below 50%.
	heavy, err := powerPlanFor(datagen.RM3, 60).evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if heavy.dsiShare() <= 0.5 {
		t.Fatalf("RM3 DSI share = %.2f, want > 0.5", heavy.dsiShare())
	}
	light, err := powerPlanFor(datagen.RM2, 20).evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if light.dsiShare() >= 0.5 {
		t.Fatalf("RM2 DSI share = %.2f, want < 0.5", light.dsiShare())
	}
	if heavy.dsiShare() <= light.dsiShare() {
		t.Fatal("diversity across models lost")
	}
}
