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
	"strconv"

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

// WareID is a content-addressed artifact name: a pack type plus a
// digest of everything that determines the artifact's bytes. Two
// pipelines that would compute identical batches derive identical
// WareIDs, regardless of table name, session, or tenant. The digest is a
// number, so naming a ware allocates nothing; "pack:hash", with the hash
// as 16 hex digits, is only its rendering.
type WareID struct {
	Pack string
	Hash uint64
}

// String renders the canonical "pack:hash" form.
func (w WareID) String() string {
	var buf [16]byte
	return w.Pack + ":" + string(appendHex16(buf[:0], w.Hash))
}

// StripeID names the batch decoded from one stripe under a projection.
// contentHash is the stripe's DWRF content digest (Reader.
// StripeContentHash), a pure function of the stored bytes — so two
// tables holding identical stripes dedup against each other. Files
// written before the digest existed report zero; those fall back to
// path+index identity, which still dedups re-reads of the same stripe.
// The projection is part of the identity because it selects which
// streams get decoded: proj.IDs() is sorted, keeping the digest stable
// across equivalent projections.
//
// The digest is FNV-1a over "c<16 hex digits>|" (or "p<path>#<stripe>|")
// and then "<id>," per projected feature, or "*" for no projection;
// every piece is formatted into a stack buffer and the projection keeps
// its sorted ID list, so a probe allocates nothing.
func StripeID(contentHash uint64, path string, stripe int, proj *schema.Projection) WareID {
	var buf [24]byte
	h := fnvOffset
	if contentHash != 0 {
		b := appendHex16(append(buf[:0], 'c'), contentHash)
		h = fnvAdd(h, append(b, '|'))
	} else {
		h = fnvAdd(h, append(buf[:0], 'p'))
		h = fnvAdd(h, path)
		b := strconv.AppendInt(append(buf[:0], '#'), int64(stripe), 10)
		h = fnvAdd(h, append(b, '|'))
	}
	if proj == nil {
		h = fnvAdd(h, "*")
	} else {
		for _, id := range proj.IDs() {
			b := strconv.AppendInt(buf[:0], int64(id), 10)
			h = fnvAdd(h, append(b, ','))
		}
	}
	return WareID{Pack: PackStripe, Hash: h}
}

// XformID names the batch produced by running a transform plan over a
// stripe ware. planFingerprint is transforms.Plan.Fingerprint: it
// digests the full op configuration, so sessions only collide when they
// would genuinely compute the same derived columns. The digest folds the stripe ware's
// rendered hash, its 16 hex digits, so it names the same bytes it did
// when a WareID held its hash as a string.
func XformID(stripe WareID, planFingerprint string) WareID {
	var buf [16]byte
	h := fnvAdd(fnvOffset, appendHex16(buf[:0], stripe.Hash))
	h = fnvAdd(h, "|")
	h = fnvAdd(h, planFingerprint)
	return WareID{Pack: PackXform, Hash: h}
}

// 64-bit FNV-1a, as hash/fnv's New64a computes it.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime         = 1099511628211
)

// fnvAdd folds p into the FNV-1a state h.
func fnvAdd[T string | []byte](h uint64, p T) uint64 {
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= fnvPrime
	}
	return h
}

// appendHex16 appends v as 16 lower-case hex digits, zero-padded.
func appendHex16(b []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[v>>uint(shift)&0xf])
	}
	return b
}
