package dwrf

import (
	"encoding/binary"
	"errors"
	"math/bits"

	"dsi/internal/freelist"
)

// This file is the read path's DEFLATE decoder (RFC 1951). A stream's
// stored bytes arrive as one slice and inflate, in one call, straight
// into the payload buffer sized by StreamMeta.RawLength: no reader
// interface, no window, no output staging. It accepts exactly the
// streams compress/flate accepts — complete Huffman codes, plus the
// single code of length 1 zlib compatibility requires; FuzzInflate holds
// the two decoders to that.
//
// Huffman codes decode through two-level tables of uint32 entries:
//
//	bits  0..5   code length in bits (the whole code, for a second-level
//	             entry), so b >>= e&63 is one instruction
//	bits  6..7   flags: eLiteral, eLink
//	bits  8..11  extra bits after the code, or for an eLink entry the index
//	             width of its second-level table
//	bits 12..14  flags: eEnd, eInvalid, ePrevious (code-length codes only)
//	bits 16..31  literal byte, length or distance base, or second-level
//	             offset; for a code-length code, the length (bits 16..23)
//	             and how many times it repeats before the extra bits
//	             (bits 24..31)
//
// The tables live in a recycled inflater, so decoding a stream allocates
// nothing.

const (
	eLiteral  = 1 << 6  // the value is a literal byte
	eLink     = 1 << 7  // the value is a second-level table offset
	eEnd      = 1 << 12 // end of block
	eInvalid  = 1 << 13 // no code maps here, or the symbol is reserved
	ePrevious = 1 << 14 // repeat the previous code length (code 16)
)

const (
	litRootBits  = 10
	distRootBits = 8
	clenRootBits = 7 // code-length codes are at most 7 bits: one level

	maxCodeBits = 15
	maxLitSyms  = 286 // HLIT limit; the fixed code also has 286 and 287, reserved
	maxDistSyms = 30  // HDIST limit; the fixed code also has 30 and 31, reserved

	// A table holds its root level plus one second-level table of
	// 2^(maxCodeBits-rootBits) entries per distinct root prefix of a long
	// code, and there are no more such prefixes than symbols.
	litTableSize  = 1<<litRootBits + 288<<(maxCodeBits-litRootBits)
	distTableSize = 1<<distRootBits + 32<<(maxCodeBits-distRootBits)
)

// maxInflateRatio bounds how many bytes one input byte can inflate to: a
// 258-byte match costs at least two bits (a 1-bit length code and a
// 1-bit distance code). A RawLength beyond it cannot be honest.
const maxInflateRatio = 258 * 4

var (
	errInflateCorrupt   = errors.New("invalid deflate data")
	errInflateTruncated = errors.New("deflate stream ends before its final block")
	errInflateOverflow  = errors.New("deflate stream inflates past the end of its buffer")
)

// litSyms, distSyms and clenSyms are each alphabet's symbol entries
// without the code length, which buildTable adds.
var litSyms, distSyms, clenSyms = symbolEntries()

// fixed decodes the fixed codes of RFC 1951 §3.2.6.
var fixed = fixedTables()

func symbolEntries() (lit [288]uint32, dist [32]uint32, clen [19]uint32) {
	for s := 0; s < 256; s++ {
		lit[s] = uint32(s)<<16 | eLiteral
	}
	lit[256] = eEnd
	base := 3
	for s := 257; s < 285; s++ {
		extra := 0
		if s >= 265 {
			extra = (s - 261) / 4
		}
		lit[s] = uint32(base)<<16 | uint32(extra)<<8
		base += 1 << extra
	}
	lit[285] = 258 << 16
	lit[286], lit[287] = eInvalid, eInvalid
	base = 1
	for s := 0; s < maxDistSyms; s++ {
		extra := 0
		if s >= 2 {
			extra = s/2 - 1
		}
		dist[s] = uint32(base)<<16 | uint32(extra)<<8
		base += 1 << extra
	}
	dist[30], dist[31] = eInvalid, eInvalid
	for s := 0; s < 16; s++ {
		clen[s] = 1<<24 | uint32(s)<<16
	}
	clen[16] = 3<<24 | 2<<8 | ePrevious
	clen[17] = 3<<24 | 3<<8
	clen[18] = 11<<24 | 7<<8
	return lit, dist, clen
}

// huffTables is a compressed block's pair of decode tables. They are
// arrays, so a root lookup masked to the root width needs no bounds check,
// and one pointer reaches both.
type huffTables struct {
	lit  [litTableSize]uint32
	dist [distTableSize]uint32
}

func fixedTables() (t huffTables) {
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	var sorted [288]uint16
	buildTable(t.lit[:], litRootBits, lens[:], litSyms[:], sorted[:])
	for s := range 32 {
		lens[s] = 5
	}
	buildTable(t.dist[:], distRootBits, lens[:32], distSyms[:], sorted[:])
	return t
}

// inflater is one decode's table state; inflaters recycles it.
type inflater struct {
	huffTables
	clen [1 << clenRootBits]uint32
	// lens holds a dynamic block's code lengths, plus room for the word
	// stores that fill a run to overshoot by up to seven bytes.
	lens   [maxLitSyms + maxDistSyms + 7]uint8
	sorted [maxLitSyms]uint16
}

var inflaters freelist.List[*inflater]

// codeOrder is the order code-length code lengths are stored in.
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// buildTable fills t with the decode table of the canonical Huffman code
// in which symbol s has code length lens[s] (0: absent), taking symbol
// entries from syms; sorted is scratch of at least len(lens). It reports
// false for a code compress/flate rejects: one that is over-subscribed,
// or incomplete other than empty or a single code of length 1. Where such
// a code leaves bit patterns unassigned the table holds eInvalid, so
// decoding through them fails as flate's does.
func buildTable(t []uint32, rootBits uint, lens []uint8, syms []uint32, sorted []uint16) bool {
	// Two tallies, merged after: absent symbols come in long runs, which
	// would otherwise serialize on one counter.
	var count, odd [maxCodeBits + 1]int
	i := 0
	for ; i+1 < len(lens); i += 2 {
		count[lens[i]&maxCodeBits]++
		odd[lens[i+1]&maxCodeBits]++
	}
	if i < len(lens) {
		count[lens[i]&maxCodeBits]++
	}
	for n := range count {
		count[n] += odd[n]
	}
	left, maxLen := 1, 0
	for n := 1; n <= maxCodeBits; n++ {
		left = left<<1 - count[n]
		if count[n] > 0 {
			maxLen = n
		}
	}
	if left < 0 || left > 0 && maxLen > 1 {
		return false
	}

	// Counting sort by code length, absent symbols first: canonical codes
	// go to symbols in (length, symbol) order. No branch on absence, which
	// is about as common as presence and would mispredict.
	var offs [maxCodeBits + 1]int
	for n := 0; n < maxCodeBits; n++ {
		offs[n+1] = offs[n] + count[n]
	}
	for s, n := range lens {
		sorted[offs[n&maxCodeBits]] = uint16(s)
		offs[n&maxCodeBits]++
	}

	// Root level: codes of up to rootBits bits. A code of n bits fills
	// every entry whose low n bits are its bit-reversed pattern, so the
	// table is built at width n and doubled on to the next width.
	t[0], t[1] = eInvalid, eInvalid
	size, code := 2, 0
	i = count[0]
	for n := 1; n <= int(rootBits); n++ {
		if n > 1 {
			copy(t[size:2*size], t[:size])
			size *= 2
		}
		for k := count[n]; k > 0; k-- {
			t[reverseBits(code, n)] = syms[sorted[i]] | uint32(n)
			code++
			i++
		}
		code <<= 1
	}

	// Longer codes: one second-level table per root prefix, each
	// 2^(maxLen-rootBits) entries wide, in code order after the root.
	if maxLen > int(rootBits) {
		sub := maxLen - int(rootBits)
		next, base, prefix := 1<<rootBits, 0, -1
		for n := int(rootBits) + 1; n <= maxLen; n++ {
			for k := count[n]; k > 0; k-- {
				rev := reverseBits(code, n)
				if p := rev & (1<<rootBits - 1); p != prefix {
					prefix, base = p, next
					t[p] = uint32(next)<<16 | uint32(sub)<<8 | eLink
					next += 1 << sub
				}
				e := syms[sorted[i]] | uint32(n)
				for j := rev >> rootBits; j < 1<<sub; j += 1 << (n - int(rootBits)) {
					t[base+j] = e
				}
				code++
				i++
			}
			code <<= 1
		}
	}
	return true
}

// reverseBits returns the low n bits of code in reverse order: Huffman
// codes are packed most significant bit first into a stream read least
// significant bit first.
func reverseBits(code, n int) int {
	return int(bits.Reverse16(uint16(code)) >> (16 - n))
}

// The decoder's input state lives in locals so it stays in registers: b
// holds nb valid bits, least significant first, and pos is the next byte
// of src to load, so pos*8-nb bits have been consumed. pos may run past
// len(src): the bytes there read as zeros, and a stream that consumes any
// of their bits is truncated.

// refill tops the bit buffer up to at least 56 bits, enough for the
// longest length/distance pair (15+5+15+13 bits). With eight bytes left it
// is branch-free: load them all, advance pos by the whole bytes that fit.
// Nearer the end it loads byte by byte, and it reports false once a bit
// past the end has been consumed.
func refill(src []byte, pos int, b uint64, nb uint) (int, uint64, uint, bool) {
	if pos+8 <= len(src) {
		b |= binary.LittleEndian.Uint64(src[pos:]) << (nb & 63)
		return pos + int(63-nb)>>3, b, nb | 56, true
	}
	if overran(src, pos, nb) {
		return pos, b, nb, false
	}
	for ; nb < 56; nb += 8 {
		if pos < len(src) {
			b |= uint64(src[pos]) << nb
		}
		pos++
	}
	return pos, b, nb, true
}

// overran reports whether the bits consumed so far run past src.
func overran(src []byte, pos int, nb uint) bool {
	return pos > len(src) && (pos-len(src))*8 > int(nb)
}

// inflate decodes the raw DEFLATE stream src into dst and returns the
// number of bytes it wrote. A stream that would write past len(dst) fails
// with errInflateOverflow; one that ends early is not an error here —
// callers that know the length compare n with it. Bytes after the final
// block are ignored, as compress/flate ignores them.
func inflate(dst, src []byte) (int, error) {
	f, ok := inflaters.Get()
	if !ok {
		f = new(inflater)
	}
	n, err := f.decode(dst, src)
	inflaters.Put(f)
	return n, err
}

func (f *inflater) decode(dst, src []byte) (int, error) {
	var (
		b   uint64
		nb  uint
		pos int
		op  int
		ok  bool
		err error
	)
	for {
		if pos, b, nb, ok = refill(src, pos, b, nb); !ok {
			return op, errInflateTruncated
		}
		final := b&1 != 0
		typ := b >> 1 & 3
		b >>= 3
		nb -= 3
		switch typ {
		case 0:
			// Stored: skip to a byte boundary, after which the buffer holds
			// whole bytes only — the nb/8 before pos.
			start := pos - int(nb>>3)
			if start+4 > len(src) {
				return op, errInflateTruncated
			}
			n := int(binary.LittleEndian.Uint16(src[start:]))
			if uint16(n) != ^binary.LittleEndian.Uint16(src[start+2:]) {
				return op, errInflateCorrupt
			}
			start += 4
			if n > len(src)-start {
				return op, errInflateTruncated
			}
			if n > len(dst)-op {
				return op, errInflateOverflow
			}
			op += copy(dst[op:], src[start:start+n])
			pos, b, nb = start+n, 0, 0
		case 1:
			op, pos, b, nb, err = huffmanBlock(dst, src, op, pos, b, nb, &fixed)
		case 2:
			if pos, b, nb, err = f.readCodes(src, pos, b, nb); err == nil {
				op, pos, b, nb, err = huffmanBlock(dst, src, op, pos, b, nb, &f.huffTables)
			}
		default:
			err = errInflateCorrupt
		}
		if err != nil {
			return op, err
		}
		if final {
			if overran(src, pos, nb) {
				return op, errInflateTruncated
			}
			return op, nil
		}
	}
}

// readCodes reads a dynamic block's header — the code-length code, then
// the literal/length and distance code lengths through it — and builds
// f.lit and f.dist.
func (f *inflater) readCodes(src []byte, pos int, b uint64, nb uint) (int, uint64, uint, error) {
	var ok bool
	if pos, b, nb, ok = refill(src, pos, b, nb); !ok {
		return pos, b, nb, errInflateTruncated
	}
	nlit := int(b&31) + 257
	ndist := int(b>>5&31) + 1
	nclen := int(b>>10&15) + 4
	b >>= 14
	nb -= 14
	if nlit > maxLitSyms || ndist > maxDistSyms {
		return pos, b, nb, errInflateCorrupt
	}
	var clens [19]uint8
	for _, s := range codeOrder[:nclen] {
		if nb < 3 {
			if pos, b, nb, ok = refill(src, pos, b, nb); !ok {
				return pos, b, nb, errInflateTruncated
			}
		}
		clens[s] = uint8(b & 7)
		b >>= 3
		nb -= 3
	}
	if !buildTable(f.clen[:], clenRootBits, clens[:], clenSyms[:], f.sorted[:]) {
		return pos, b, nb, errInflateCorrupt
	}

	// Every code-length code is a length repeated one or more times; the
	// repeats are written a word at a time into lens's slack.
	n := nlit + ndist
	lens := f.lens[:]
	for i := 0; i < n; {
		if nb < 14 {
			if pos, b, nb, ok = refill(src, pos, b, nb); !ok {
				return pos, b, nb, errInflateTruncated
			}
		}
		e := f.clen[b&(1<<clenRootBits-1)]
		if e&eInvalid != 0 {
			return pos, b, nb, errInflateCorrupt
		}
		b >>= e & 15
		nb -= uint(e & 15)
		v := uint8(e >> 16)
		if e&ePrevious != 0 {
			if i == 0 {
				return pos, b, nb, errInflateCorrupt
			}
			v = lens[i-1]
		}
		xb := e >> 8 & 15
		rep := int(e>>24) + int(b&(1<<xb-1))
		b >>= xb
		nb -= uint(xb)
		if rep > n-i {
			return pos, b, nb, errInflateCorrupt
		}
		w := uint64(v) * 0x0101010101010101
		for j := i; j < i+rep; j += 8 {
			binary.LittleEndian.PutUint64(lens[j:], w)
		}
		i += rep
	}
	if !buildTable(f.lit[:], litRootBits, lens[:nlit], litSyms[:], f.sorted[:]) ||
		!buildTable(f.dist[:], distRootBits, lens[nlit:n], distSyms[:], f.sorted[:]) {
		return pos, b, nb, errInflateCorrupt
	}
	return pos, b, nb, nil
}

// huffmanBlock decodes one compressed block's symbols through t up to its
// end-of-block code: one length/distance pair, or up to three literals,
// per refill.
func huffmanBlock(dst, src []byte, op, pos int, b uint64, nb uint, t *huffTables) (int, int, uint64, uint, error) {
	// Capacity plays no part here; dropping it frees two registers.
	dst, src = dst[:len(dst):len(dst)], src[:len(src):len(src)]
	for {
		// refill, inlined: a call here would cost the loop its registers.
		if pos+8 <= len(src) {
			b |= binary.LittleEndian.Uint64(src[pos:]) << (nb & 63)
			pos += int(63-nb) >> 3
			nb |= 56
		} else {
			if overran(src, pos, nb) {
				return op, pos, b, nb, errInflateTruncated
			}
			for ; nb < 56; nb += 8 {
				if pos < len(src) {
					b |= uint64(src[pos]) << (nb & 63)
				}
				pos++
			}
		}
		e := t.lit[b&(1<<litRootBits-1)]
		if e&eLink != 0 {
			e = t.lit[e>>16+uint32(b>>litRootBits)&(1<<(e>>8&15)-1)]
		}
		b >>= e & 63
		nb -= uint(e & 15)
		if e&eLiteral != 0 {
			if uint(op) >= uint(len(dst)) {
				return op, pos, b, nb, errInflateOverflow
			}
			dst[op] = byte(e >> 16)
			op++
			// At least 41 bits are left, enough for two more literals.
			if e = t.lit[b&(1<<litRootBits-1)]; e&eLiteral == 0 {
				continue
			}
			b >>= e & 63
			nb -= uint(e & 15)
			if uint(op) >= uint(len(dst)) {
				return op, pos, b, nb, errInflateOverflow
			}
			dst[op] = byte(e >> 16)
			op++
			if e = t.lit[b&(1<<litRootBits-1)]; e&eLiteral == 0 {
				continue
			}
			b >>= e & 63
			nb -= uint(e & 15)
			if uint(op) >= uint(len(dst)) {
				return op, pos, b, nb, errInflateOverflow
			}
			dst[op] = byte(e >> 16)
			op++
			continue
		}
		if e&(eEnd|eInvalid) != 0 {
			if e&eInvalid != 0 {
				return op, pos, b, nb, errInflateCorrupt
			}
			return op, pos, b, nb, nil
		}
		xb := e >> 8 & 15
		length := int(e>>16) + int(b&(1<<xb-1))
		b >>= xb
		nb -= uint(xb)

		e = t.dist[b&(1<<distRootBits-1)]
		if e&eLink != 0 {
			e = t.dist[e>>16+uint32(b>>distRootBits)&(1<<(e>>8&15)-1)]
		}
		if e&eInvalid != 0 {
			return op, pos, b, nb, errInflateCorrupt
		}
		b >>= e & 63
		nb -= uint(e & 15)
		xb = e >> 8 & 15
		dist := int(e>>16) + int(b&(1<<xb-1))
		b >>= xb
		nb -= uint(xb)

		if dist > op {
			return op, pos, b, nb, errInflateCorrupt
		}
		if length > len(dst)-op {
			return op, pos, b, nb, errInflateOverflow
		}
		from, end := op-dist, op+length
		switch {
		case dist >= 8 && end+8 <= len(dst):
			// Most matches are a few bytes long: copy whole words. Each
			// word reads only bytes already written, and a last word that
			// runs past end writes where later output goes.
			for ; op < end; op, from = op+8, from+8 {
				binary.LittleEndian.PutUint64(dst[op:], binary.LittleEndian.Uint64(dst[from:]))
			}
			op = end
		case dist >= length:
			op += copy(dst[op:end], dst[from:])
		default:
			// Overlapping: the source is periodic with period dist, so each
			// copy can take everything written since from.
			for op < end {
				op += copy(dst[op:end], dst[from:op])
			}
		}
	}
}
