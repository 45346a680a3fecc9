// Package ware gives preprocessing artifacts content-addressed
// identities and a bounded, tenant-fair cache keyed by them.
//
// DSI's economics rest on preprocessing being recomputed per training
// job even when jobs overlap heavily in data: different models train
// over the same tables, and one model's refresh re-reads yesterday's
// partitions. A WareID names the *content* of a preprocessing artifact
// — a decoded stripe under a projection, or that stripe after a
// specific transform plan — so any pipeline on a node can reuse another
// pipeline's work when the identities collide, across session and
// tenant boundaries.
package ware

import (
	"fmt"
	"hash/fnv"

	"dsi/internal/schema"
)

// Pack names for the artifact kinds the fleet cache stores.
const (
	// PackStripe addresses a decoded stripe batch: raw columns for a
	// projection, post-extract, pre-transform.
	PackStripe = "stripe"
	// PackXform addresses a transformed batch: PackStripe content after
	// a specific compiled plan ran over it (pre-materialization, so one
	// entry serves sessions with different tensor output lists).
	PackXform = "xform"
)

// WareID is a content-addressed artifact name: a pack type plus a hex
// digest of everything that determines the artifact's bytes. Two
// pipelines that would compute identical batches derive identical
// WareIDs, regardless of table name, session, or tenant.
type WareID struct {
	Pack string
	Hash string
}

// String renders the canonical "pack:hash" form.
func (w WareID) String() string { return w.Pack + ":" + w.Hash }

// StripeID names the batch decoded from one stripe under a projection.
// contentHash is the stripe's DWRF content digest (Reader.
// StripeContentHash), a pure function of the stored bytes — so two
// tables holding identical stripes dedup against each other. Files
// written before the digest existed report zero; those fall back to
// path+index identity, which still dedups re-reads of the same stripe.
// The projection is part of the identity because it selects which
// streams get decoded: proj.IDs() is sorted, keeping the digest stable
// across equivalent projections.
func StripeID(contentHash uint64, path string, stripe int, proj *schema.Projection) WareID {
	h := fnv.New64a()
	if contentHash != 0 {
		fmt.Fprintf(h, "c%016x|", contentHash)
	} else {
		fmt.Fprintf(h, "p%s#%d|", path, stripe)
	}
	if proj == nil {
		h.Write([]byte("*"))
	} else {
		for _, id := range proj.IDs() {
			fmt.Fprintf(h, "%d,", id)
		}
	}
	return WareID{Pack: PackStripe, Hash: fmt.Sprintf("%016x", h.Sum64())}
}

// XformID names the batch produced by running a transform plan over a
// stripe ware. planFingerprint is transforms.Plan.Fingerprint (or
// Graph.Fingerprint for interpreted sessions): it digests the full op
// configuration, so sessions only collide when they would genuinely
// compute the same derived columns.
func XformID(stripe WareID, planFingerprint string) WareID {
	h := fnv.New64a()
	h.Write([]byte(stripe.Hash))
	h.Write([]byte{'|'})
	h.Write([]byte(planFingerprint))
	return WareID{Pack: PackXform, Hash: fmt.Sprintf("%016x", h.Sum64())}
}
