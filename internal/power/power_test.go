package power

import (
	"math"
	"testing"

	"dsi/internal/datagen"
	"dsi/internal/hw"
)

func planFor(p datagen.Profile, storageNodes float64) Plan {
	return Plan{
		Model:             p.Name,
		Trainers:          16,
		TrainerNode:       hw.ZionEX,
		WorkersPerTrainer: p.WorkersPerTrainer,
		WorkerNode:        hw.CV1,
		StorageNodes:      storageNodes,
		StorageNodeWatts:  500,
	}
}

func TestBreakdownTotals(t *testing.T) {
	b := Breakdown{StorageWatts: 100, PreprocWatts: 200, TrainerWatts: 300}
	if b.Total() != 600 {
		t.Fatalf("Total = %v", b.Total())
	}
	if got := b.DSIShare(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("DSIShare = %v", got)
	}
	var zero Breakdown
	if zero.DSIShare() != 0 {
		t.Fatal("zero breakdown share")
	}
}

func TestPlanEvaluate(t *testing.T) {
	b, err := planFor(datagen.RM1, 40).Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if b.StorageWatts != 40*500 {
		t.Fatalf("storage = %v", b.StorageWatts)
	}
	wantPre := 16 * datagen.RM1.WorkersPerTrainer * hw.CV1.PowerWatts
	if math.Abs(b.PreprocWatts-wantPre) > 1e-6 {
		t.Fatalf("preproc = %v, want %v", b.PreprocWatts, wantPre)
	}
	if b.TrainerWatts != 16*hw.ZionEX.PowerWatts {
		t.Fatalf("trainer = %v", b.TrainerWatts)
	}
}

func TestPlanRejectsNoTrainers(t *testing.T) {
	p := planFor(datagen.RM1, 1)
	p.Trainers = 0
	if _, err := p.Evaluate(); err == nil {
		t.Fatal("zero trainers accepted")
	}
}

func TestFigure1DSICanExceedHalf(t *testing.T) {
	// Figure 1: storage + preprocessing can consume more power than the
	// trainers; RM3's worker-heavy profile (55 workers per trainer) is
	// the clearest case, while RM2 (9.4 workers) stays below 50%.
	heavy, err := planFor(datagen.RM3, 60).Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if heavy.DSIShare() <= 0.5 {
		t.Fatalf("RM3 DSI share = %.2f, want > 0.5", heavy.DSIShare())
	}
	light, err := planFor(datagen.RM2, 20).Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if light.DSIShare() >= 0.5 {
		t.Fatalf("RM2 DSI share = %.2f, want < 0.5", light.DSIShare())
	}
	if heavy.DSIShare() <= light.DSIShare() {
		t.Fatal("diversity across models lost")
	}
}
