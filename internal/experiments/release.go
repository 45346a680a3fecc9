package experiments

import (
	"math"
	"math/rand"

	"dsi/internal/schema"
)

// The collaborative model-release process of §4: hundreds of engineers
// iterate on each production model through exploratory jobs, periodic
// combo windows that amalgamate ideas into tens-to-hundreds of
// concurrent large jobs, and a few release-candidate jobs — producing
// the skewed job durations of Figure 4, the fleet-wide utilization
// peaks of Figure 5, and the feature churn of Table 2.

// jobType is the release-process phase a training job belongs to.
type jobType int

const (
	// exploratoryJob tests individual ideas on top of the production
	// model; small, numerous, <5% of the table.
	exploratoryJob jobType = iota
	// comboJob combines promising ideas in permutations; large,
	// launched in bursts within a short window.
	comboJob
	// releaseCandidateJob trains the best combos on fresh data.
	releaseCandidateJob
)

// String implements fmt.Stringer.
func (t jobType) String() string {
	switch t {
	case exploratoryJob:
		return "exploratory"
	case comboJob:
		return "combo"
	case releaseCandidateJob:
		return "release-candidate"
	default:
		return "unknown"
	}
}

// jobStatus is a job's terminal state. Many combo jobs are killed early
// because their accuracy is lackluster (§4.1).
type jobStatus int

const (
	// jobCompleted: the job trained to its target.
	jobCompleted jobStatus = iota
	// jobKilled: the job was cancelled by engineers for lackluster accuracy.
	jobKilled
	// jobFailed: the job hit infrastructure errors.
	jobFailed
)

// String implements fmt.Stringer.
func (s jobStatus) String() string {
	switch s {
	case jobCompleted:
		return "completed"
	case jobKilled:
		return "killed"
	case jobFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// releaseJob is one training job within a release iteration.
type releaseJob struct {
	Model  string
	Type   jobType
	Status jobStatus
	// SubmitDay is the (fractional) day within the iteration the job
	// was launched; engineers launch asynchronously to maximize ideas
	// explored, creating temporal skew (§4.1).
	SubmitDay float64
	// DurationDays is how long the job ran.
	DurationDays float64
	// Compute is the job's relative compute demand (trainer-node-days
	// per day while running).
	Compute float64
	// DataFraction is the share of the table's samples the job reads.
	DataFraction float64
}

// endDay reports when the job left the fleet.
func (j releaseJob) endDay() float64 { return j.SubmitDay + j.DurationDays }

// iterationParams tunes a release iteration generator.
type iterationParams struct {
	Model string
	// ExploratoryJobs is the number of small per-engineer jobs.
	ExploratoryJobs int
	// ComboJobs is the number of combo jobs in the window (the paper's
	// Figure 4 iteration has 82).
	ComboJobs int
	// ReleaseCandidates is the number of RC jobs.
	ReleaseCandidates int
	// ComboWindowDays is the submission window for combo jobs.
	ComboWindowDays float64
	// ComboCompute is the relative compute of one combo job; exploratory
	// jobs use ~5% of this, RCs ~150%.
	ComboCompute float64
}

// defaultIteration mirrors the Figure 4 iteration.
func defaultIteration(model string) iterationParams {
	return iterationParams{
		Model:             model,
		ExploratoryJobs:   400,
		ComboJobs:         82,
		ReleaseCandidates: 4,
		ComboWindowDays:   7,
		ComboCompute:      1.0,
	}
}

// generateIteration produces the jobs of one release iteration. Combo
// durations are lognormally skewed (many short killed jobs, a tail past
// ten days) and submissions are spread across the window.
func generateIteration(p iterationParams, seed int64) []releaseJob {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]releaseJob, 0, p.ExploratoryJobs+p.ComboJobs+p.ReleaseCandidates)

	for i := 0; i < p.ExploratoryJobs; i++ {
		jobs = append(jobs, releaseJob{
			Model:        p.Model,
			Type:         exploratoryJob,
			Status:       pickStatus(rng, 0.75, 0.20),
			SubmitDay:    rng.Float64() * 21,
			DurationDays: 0.2 + rng.ExpFloat64()*0.8,
			Compute:      p.ComboCompute * 0.05,
			DataFraction: 0.01 + rng.Float64()*0.04, // <5% of the table
		})
	}
	for i := 0; i < p.ComboJobs; i++ {
		// Lognormal: median ~2.5 days, tail beyond 10 days.
		dur := math.Exp(rng.NormFloat64()*0.9 + 0.9)
		if dur > 16 {
			dur = 16
		}
		jobs = append(jobs, releaseJob{
			Model:        p.Model,
			Type:         comboJob,
			Status:       pickStatus(rng, 0.45, 0.40),
			SubmitDay:    rng.Float64() * p.ComboWindowDays,
			DurationDays: dur,
			Compute:      p.ComboCompute,
			DataFraction: 0.7 + rng.Float64()*0.3, // majority of the table
		})
	}
	for i := 0; i < p.ReleaseCandidates; i++ {
		jobs = append(jobs, releaseJob{
			Model:        p.Model,
			Type:         releaseCandidateJob,
			Status:       jobCompleted,
			SubmitDay:    p.ComboWindowDays + 3 + rng.Float64()*2,
			DurationDays: 6 + rng.Float64()*6,
			Compute:      p.ComboCompute * 1.5,
			DataFraction: 0.85 + rng.Float64()*0.15,
		})
	}
	return jobs
}

// pickStatus draws a terminal status with the given completed and killed
// probabilities (remainder fails).
func pickStatus(rng *rand.Rand, pCompleted, pKilled float64) jobStatus {
	r := rng.Float64()
	switch {
	case r < pCompleted:
		return jobCompleted
	case r < pCompleted+pKilled:
		return jobKilled
	default:
		return jobFailed
	}
}

// dailyCompute integrates the jobs' compute into a per-day utilization
// series of the given length, starting at day 0.
func dailyCompute(jobs []releaseJob, days int) []float64 {
	out := make([]float64, days)
	for _, j := range jobs {
		start, end := j.SubmitDay, j.endDay()
		for d := int(start); d < days && float64(d) < end; d++ {
			// Overlap of [d, d+1) with [start, end).
			lo := math.Max(float64(d), start)
			hi := math.Min(float64(d+1), end)
			if hi > lo {
				out[d] += j.Compute * (hi - lo)
			}
		}
	}
	return out
}

// yearParams configures the fleet-year simulation behind Figure 5.
type yearParams struct {
	Models []string
	// IterationGapDays is the time between release iterations of one
	// model.
	IterationGapDays float64
	// Days is the simulation horizon.
	Days int
}

// simulateYear runs staggered release iterations for every model and
// returns the fleet's daily total compute. Combo windows of different
// models occasionally align, producing the distinct utilization peaks of
// Figure 5.
func simulateYear(p yearParams, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	total := make([]float64, p.Days)
	for mi, model := range p.Models {
		phase := rng.Float64() * p.IterationGapDays
		for start := phase; start < float64(p.Days); start += p.IterationGapDays {
			iter := generateIteration(defaultIteration(model), seed+int64(mi*1000)+int64(start))
			daily := dailyCompute(shiftJobs(iter, start), p.Days)
			for d := range total {
				total[d] += daily[d]
			}
		}
	}
	return total
}

func shiftJobs(jobs []releaseJob, offset float64) []releaseJob {
	out := make([]releaseJob, len(jobs))
	for i, j := range jobs {
		j.SubmitDay += offset
		out[i] = j
	}
	return out
}

// churnParams configures the Table 2 feature-lifecycle simulation.
type churnParams struct {
	// ProposalsPerDay is the rate of new beta features.
	ProposalsPerDay int
	// Days is the horizon.
	Days int
	// PExperimental is the chance a beta feature is promoted during a
	// release iteration; PActive and PDeprecated follow analogously.
	PExperimental float64
	PActive       float64
	PDeprecated   float64
	// IterationGapDays is the promotion cadence.
	IterationGapDays int
}

// defaultChurn approximates RM1's Table 2 proportions: of 14614 features
// created in 6 months, 6 months later 69% remain beta, 6% experimental,
// 11% active, 13% deprecated.
func defaultChurn() churnParams {
	return churnParams{
		ProposalsPerDay:  81, // ≈14.6k per 180 days
		Days:             360,
		PExperimental:    0.04,
		PActive:          0.30,
		PDeprecated:      0.16,
		IterationGapDays: 30,
	}
}

// simulateChurn runs the feature lifecycle and returns the registry. On
// each iteration boundary, beta features may be promoted to
// experimental; experimental features that belonged to the winning RC
// become active; active features may be deprecated after review.
func simulateChurn(p churnParams, seed int64) *schema.Registry {
	rng := rand.New(rand.NewSource(seed))
	reg := schema.NewRegistry()
	var betas, experimentals, actives []schema.FeatureID

	for day := 0; day < p.Days; day++ {
		for i := 0; i < p.ProposalsPerDay; i++ {
			kind := schema.Dense
			if rng.Float64() < 0.15 {
				kind = schema.Sparse
			}
			betas = append(betas, reg.Propose(kind, "f", day))
		}
		if (day+1)%p.IterationGapDays != 0 {
			continue
		}
		// Promotion pass at each release iteration.
		var stillBeta []schema.FeatureID
		for _, id := range betas {
			if rng.Float64() < p.PExperimental {
				// Transition cannot fail here: beta -> experimental is
				// forward.
				_ = reg.Transition(id, schema.Experimental)
				experimentals = append(experimentals, id)
			} else {
				stillBeta = append(stillBeta, id)
			}
		}
		betas = stillBeta
		var stillExp []schema.FeatureID
		for _, id := range experimentals {
			if rng.Float64() < p.PActive {
				_ = reg.Transition(id, schema.Active)
				actives = append(actives, id)
			} else {
				stillExp = append(stillExp, id)
			}
		}
		experimentals = stillExp
		var stillActive []schema.FeatureID
		for _, id := range actives {
			if rng.Float64() < p.PDeprecated {
				_ = reg.Transition(id, schema.Deprecated)
			} else {
				stillActive = append(stillActive, id)
			}
		}
		actives = stillActive
	}
	return reg
}
