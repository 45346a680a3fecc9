// Package power implements the Figure 1 / §7.5 power accounting: for
// each recommendation model, the provisioned power of storage nodes,
// preprocessing (DPP worker) nodes, and GPU trainer nodes, and the share
// of the total that DSI (storage + preprocessing) consumes.
package power

import (
	"fmt"

	"dsi/internal/hw"
)

// Breakdown is the per-model provisioned power split.
type Breakdown struct {
	Model        string
	StorageWatts float64
	PreprocWatts float64
	TrainerWatts float64
}

// Total sums all components.
func (b Breakdown) Total() float64 { return b.StorageWatts + b.PreprocWatts + b.TrainerWatts }

// DSIShare reports the fraction of total power spent on data storage and
// ingestion (Figure 1's message: this can exceed 50%).
func (b Breakdown) DSIShare() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return (b.StorageWatts + b.PreprocWatts) / t
}

// Plan describes one model's provisioning inputs.
type Plan struct {
	Model string
	// Trainers is the number of 8-GPU trainer nodes.
	Trainers int
	// TrainerNode is the trainer hardware.
	TrainerNode hw.TrainerSpec
	// WorkersPerTrainer is DPP workers per trainer node (Table 9).
	WorkersPerTrainer float64
	// WorkerNode is the preprocessing hardware.
	WorkerNode hw.NodeSpec
	// StorageNodes is the provisioned storage node count (often IOPS-
	// driven, §7.1).
	StorageNodes float64
	// StorageNodeWatts is power per storage node (chassis + disks).
	StorageNodeWatts float64
}

// Evaluate computes the power breakdown for the plan.
func (p Plan) Evaluate() (Breakdown, error) {
	if p.Trainers <= 0 {
		return Breakdown{}, fmt.Errorf("power: plan needs trainers")
	}
	return Breakdown{
		Model:        p.Model,
		StorageWatts: p.StorageNodes * p.StorageNodeWatts,
		PreprocWatts: float64(p.Trainers) * p.WorkersPerTrainer * p.WorkerNode.PowerWatts,
		TrainerWatts: float64(p.Trainers) * p.TrainerNode.PowerWatts,
	}, nil
}
