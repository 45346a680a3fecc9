package experiments

import "fmt"

// The Figure 1 / §7.5 power accounting: for each recommendation model,
// the provisioned power of storage nodes, preprocessing (DPP worker)
// nodes, and GPU trainer nodes, and the share of the total that DSI
// (storage + preprocessing) consumes.

// powerBreakdown is the per-model provisioned power split.
type powerBreakdown struct {
	Model        string
	StorageWatts float64
	PreprocWatts float64
	TrainerWatts float64
}

// total sums all components.
func (b powerBreakdown) total() float64 { return b.StorageWatts + b.PreprocWatts + b.TrainerWatts }

// dsiShare reports the fraction of total power spent on data storage and
// ingestion (Figure 1's message: this can exceed 50%).
func (b powerBreakdown) dsiShare() float64 {
	t := b.total()
	if t == 0 {
		return 0
	}
	return (b.StorageWatts + b.PreprocWatts) / t
}

// powerPlan describes one model's provisioning inputs.
type powerPlan struct {
	Model string
	// Trainers is the number of 8-GPU trainer nodes.
	Trainers int
	// TrainerNode is the trainer hardware.
	TrainerNode trainerSpec
	// WorkersPerTrainer is DPP workers per trainer node (Table 9).
	WorkersPerTrainer float64
	// WorkerNode is the preprocessing hardware.
	WorkerNode nodeSpec
	// StorageNodes is the provisioned storage node count (often IOPS-
	// driven, §7.1).
	StorageNodes float64
	// StorageNodeWatts is power per storage node (chassis + disks).
	StorageNodeWatts float64
}

// evaluate computes the power breakdown for the plan.
func (p powerPlan) evaluate() (powerBreakdown, error) {
	if p.Trainers <= 0 {
		return powerBreakdown{}, fmt.Errorf("power: plan needs trainers")
	}
	return powerBreakdown{
		Model:        p.Model,
		StorageWatts: p.StorageNodes * p.StorageNodeWatts,
		PreprocWatts: float64(p.Trainers) * p.WorkersPerTrainer * p.WorkerNode.PowerWatts,
		TrainerWatts: float64(p.Trainers) * p.TrainerNode.PowerWatts,
	}, nil
}
