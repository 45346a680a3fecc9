package experiments

import (
	"sort"
	"testing"

	"dsi/internal/schema"
)

func TestGenerateIterationCounts(t *testing.T) {
	p := defaultIteration("rm1")
	jobs := generateIteration(p, 1)
	counts := map[jobType]int{}
	for _, j := range jobs {
		counts[j.Type]++
	}
	if counts[exploratoryJob] != p.ExploratoryJobs || counts[comboJob] != p.ComboJobs || counts[releaseCandidateJob] != p.ReleaseCandidates {
		t.Fatalf("counts = %v", counts)
	}
}

func TestComboDurationsSkewed(t *testing.T) {
	// Figure 4: combo durations are heavily skewed — the longest runs
	// several times the median, with some beyond 10 days.
	jobs := generateIteration(defaultIteration("rm1"), 2)
	var durs []float64
	for _, j := range jobs {
		if j.Type == comboJob {
			durs = append(durs, j.DurationDays)
		}
	}
	sort.Float64s(durs)
	median := durs[len(durs)/2]
	longest := durs[len(durs)-1]
	if longest < 3*median {
		t.Fatalf("longest %.1f not >3x median %.1f", longest, median)
	}
	if longest < 10 {
		t.Fatalf("longest combo %.1f days; paper sees >10", longest)
	}
}

func TestComboJobsOftenKilled(t *testing.T) {
	// §4.1: many combo jobs fail or are killed for lackluster accuracy.
	jobs := generateIteration(defaultIteration("rm1"), 3)
	var killed, total int
	for _, j := range jobs {
		if j.Type != comboJob {
			continue
		}
		total++
		if j.Status != jobCompleted {
			killed++
		}
	}
	if killed*3 < total { // at least a third not completed
		t.Fatalf("only %d/%d combo jobs not completed", killed, total)
	}
}

func TestExploratoryJobsUseLittleData(t *testing.T) {
	jobs := generateIteration(defaultIteration("rm1"), 4)
	for _, j := range jobs {
		if j.Type == exploratoryJob && j.DataFraction >= 0.05 {
			t.Fatalf("exploratory job reads %.2f of the table, want <5%%", j.DataFraction)
		}
		if j.Type == comboJob && j.DataFraction < 0.5 {
			t.Fatalf("combo job reads %.2f, want the majority", j.DataFraction)
		}
	}
}

func TestTemporalSkew(t *testing.T) {
	// Engineers launch combo jobs asynchronously across the window.
	jobs := generateIteration(defaultIteration("rm1"), 5)
	var submits []float64
	for _, j := range jobs {
		if j.Type == comboJob {
			submits = append(submits, j.SubmitDay)
		}
	}
	sort.Float64s(submits)
	if submits[len(submits)-1]-submits[0] < 3 {
		t.Fatal("combo submissions not spread across the window")
	}
}

func TestDailyComputeIntegration(t *testing.T) {
	jobs := []releaseJob{
		{SubmitDay: 0.5, DurationDays: 1, Compute: 2}, // days 0 and 1, half each
	}
	daily := dailyCompute(jobs, 3)
	if daily[0] != 1 || daily[1] != 1 || daily[2] != 0 {
		t.Fatalf("daily = %v", daily)
	}
}

func TestDailyComputeConservesWork(t *testing.T) {
	jobs := generateIteration(defaultIteration("rm1"), 6)
	horizon := 80
	daily := dailyCompute(jobs, horizon)
	var got, want float64
	for _, v := range daily {
		got += v
	}
	for _, j := range jobs {
		want += j.Compute * j.DurationDays
	}
	if diff := got - want; diff < -0.01*want || diff > 0.01*want {
		t.Fatalf("integrated %.2f vs expected %.2f", got, want)
	}
}

func TestSimulateYearHasPeaks(t *testing.T) {
	// Figure 5: distinct peaks when combo windows of many models align.
	models := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	daily := simulateYear(yearParams{Models: models, IterationGapDays: 45, Days: 365}, 7)
	if len(daily) != 365 {
		t.Fatalf("len = %d", len(daily))
	}
	var sum, peak float64
	for _, v := range daily {
		sum += v
		if v > peak {
			peak = v
		}
	}
	mean := sum / float64(len(daily))
	if peak < 1.5*mean {
		t.Fatalf("peak %.1f not distinct vs mean %.1f", peak, mean)
	}
}

func TestSimulateChurnTable2Shape(t *testing.T) {
	// Table 2: count features created in a 6-month window and their
	// status 6 months later. Beta dominates, active and deprecated are
	// each ~10-15%, experimental is smallest.
	reg := simulateChurn(defaultChurn(), 8)
	counts := reg.CountByState(0, 179)
	total := counts[schema.Beta] + counts[schema.Experimental] + counts[schema.Active] + counts[schema.Deprecated]
	if total < 12000 || total > 17000 {
		t.Fatalf("total created in window = %d, want ≈14614", total)
	}
	frac := func(s schema.LifecycleState) float64 { return float64(counts[s]) / float64(total) }
	if frac(schema.Beta) < 0.55 || frac(schema.Beta) > 0.8 {
		t.Fatalf("beta share = %.2f, want ≈0.69", frac(schema.Beta))
	}
	if frac(schema.Experimental) > 0.15 {
		t.Fatalf("experimental share = %.2f, want ≈0.06", frac(schema.Experimental))
	}
	if frac(schema.Active) < 0.05 || frac(schema.Active) > 0.25 {
		t.Fatalf("active share = %.2f, want ≈0.11", frac(schema.Active))
	}
	if frac(schema.Deprecated) < 0.05 || frac(schema.Deprecated) > 0.25 {
		t.Fatalf("deprecated share = %.2f, want ≈0.13", frac(schema.Deprecated))
	}
}

func TestSimulateChurnDeterministic(t *testing.T) {
	a := simulateChurn(defaultChurn(), 9)
	b := simulateChurn(defaultChurn(), 9)
	ca, cb := a.CountByState(0, 179), b.CountByState(0, 179)
	for s, v := range ca {
		if cb[s] != v {
			t.Fatalf("state %v differs: %d vs %d", s, v, cb[s])
		}
	}
}

func TestJobTypeAndStatusStrings(t *testing.T) {
	if exploratoryJob.String() != "exploratory" || comboJob.String() != "combo" || releaseCandidateJob.String() != "release-candidate" {
		t.Fatal("jobType strings")
	}
	if jobCompleted.String() != "completed" || jobKilled.String() != "killed" || jobFailed.String() != "failed" {
		t.Fatal("jobStatus strings")
	}
}
