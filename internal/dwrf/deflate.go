// The encoder in this file is a port of the BestSpeed path of Go's
// compress/flate (deflate.go, deflatefast.go, huffman_bit_writer.go,
// huffman_code.go and token.go), distributed under this license:
//
// Copyright 2009 The Go Authors.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//   - Redistributions of source code must retain the above copyright
//     notice, this list of conditions and the following disclaimer.
//   - Redistributions in binary form must reproduce the above
//     copyright notice, this list of conditions and the following disclaimer
//     in the documentation and/or other materials provided with the
//     distribution.
//   - Neither the name of Google LLC nor the names of its
//     contributors may be used to endorse or promote products derived from
//     this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package dwrf

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// This file is the write path's DEFLATE encoder. deflater.deflate appends
// to a []byte, in one call, exactly the bytes that
// flate.NewWriter(w, flate.BestSpeed), one Write(src) and Close() write:
// FuzzDeflate holds the two to that, and every stored stream's bytes —
// hence every StripeMeta.ContentHash — depend on it.
//
// The stream is cut into 65535-byte blocks. Each full block, and a last
// block of at least 128 bytes, is LZ77-encoded by Snappy's algorithm
// (encodeFast), which may match into the previous block; its tokens
// become one dynamic-Huffman block, or a Huffman-only block when matching
// removed less than a sixteenth of the input; either becomes a stored
// block instead when Huffman coding would not save a sixteenth. A last
// block under 128 bytes is Huffman-only by the same rule, and one of at
// most 16 bytes is stored. An empty final stored block ends the stream.
//
// The port keeps compress/flate's bitCounts verbatim. Everything else that
// is faster here cannot change a byte: symbols are sorted by packed
// freq<<9|sym keys (the same total order flate's sort.Sort uses);
// canonical codes are assigned by walking symbols in order (RFC 1951
// §3.2.2 defines them so; flate sorts each length's symbols instead);
// symbols are counted as encodeFast emits them, and a match token carries
// its distance code; blocks are encoded in place in the caller's payload,
// so there is no window to copy into and no previous block to keep; and
// the match table, the token list (grown to the largest block seen) and
// the Huffman state belong to the encoder, so encoding a stream allocates
// nothing once they exist.

const (
	maxStoreBlockSize = 65535   // a stored block's limit, and the block size
	maxMatchOffset    = 1 << 15 // the largest match distance
	maxMatchLength    = 258     // the largest match length
	baseMatchLength   = 3       // the smallest match length DEFLATE codes
	baseMatchOffset   = 1       // the smallest match distance

	tableBits  = 14 // encodeFast's hash table has 1<<tableBits entries
	tableSize  = 1 << tableBits
	tableMask  = tableSize - 1
	tableShift = 32 - tableBits

	// bufferReset bounds cur, so that positions two blocks past it still
	// fit an int32.
	bufferReset = math.MaxInt32 - maxStoreBlockSize*2

	// inputMargin keeps encodeFast's 8-byte loads inside a block.
	inputMargin = 16 - 1

	endBlockMarker   = 256
	lengthCodesStart = 257
	badCode          = 255 // ends the code-length symbols in codegen
)

// token is one LZ77 symbol: a literal byte (below matchType), or a match,
// matchType | (length-3)<<lengthShift | distance code<<offCodeShift |
// (distance-1). The distance code rides along so that it is computed
// once, where the match is found.
type token uint32

const (
	lengthShift  = 22
	offCodeShift = 16
	offsetMask   = 1<<15 - 1
	matchType    = 1 << 30
)

func (t token) length() uint32     { return uint32((t - matchType) >> lengthShift) }
func (t token) offsetCode() uint32 { return uint32(t) >> offCodeShift & 31 }
func (t token) offset() uint32     { return uint32(t) & offsetMask }

// The match codes, taken from the decoder's symbol entries (inflate.go) so
// both directions read one definition: length code c (symbol 257+c)
// covers lengths 3+lengthBase[c] on with lengthExtra[c] extra bits, and
// distance code c covers distances 1+offsetBase[c] on with offsetExtra[c];
// lengthCodes and offsetCodes invert them for length-3 and the first 256
// distances-1.
var (
	lengthBase, lengthExtra  [29]uint32
	offsetBase, offsetExtra  [maxDistSyms]uint32
	lengthCodes, offsetCodes [256]uint8
)

func init() {
	for c := range lengthBase {
		e := litSyms[lengthCodesStart+c]
		lengthBase[c], lengthExtra[c] = e>>16-baseMatchLength, e>>8&15
	}
	for c := range offsetBase {
		e := distSyms[c]
		offsetBase[c], offsetExtra[c] = e>>16-baseMatchOffset, e>>8&15
	}
	// Length 258 has its own code, 28, though code 27's extra bits reach it.
	for c := len(lengthBase) - 1; c >= 0; c-- {
		for x := lengthBase[c]; x < 256 && lengthCodes[x] == 0; x++ {
			lengthCodes[x] = uint8(c)
		}
	}
	for c := 15; c >= 0; c-- {
		for x := offsetBase[c]; x < 256 && offsetCodes[x] == 0; x++ {
			offsetCodes[x] = uint8(c)
		}
	}
}

// offsetCode returns the distance code of distance off+1.
func offsetCode(off uint32) uint32 {
	if off < uint32(len(offsetCodes)) {
		return uint32(offsetCodes[off])
	}
	if off>>7 < uint32(len(offsetCodes)) {
		return uint32(offsetCodes[off>>7]) + 14
	}
	return uint32(offsetCodes[off>>14]) + 28
}

// tableEntry is one hash slot: the four bytes at a position, and the
// position plus the cur of its block.
type tableEntry struct {
	val    uint32
	offset int32
}

// deflater is one encoder's state; a stripeEncoder owns one for its life.
// The zero value is ready to use.
type deflater struct {
	// table maps the hash of four bytes to where they were last seen.
	// cur is added to every position stored, and moves past all of them
	// at each new stream (see deflate), so entries from earlier streams
	// fail the distance check and the table is never cleared.
	table  [tableSize]tableEntry
	cur    int32
	tokens []token

	// out is the stream being written: whole bytes, then nbits pending
	// bits in bits, least significant first. Between writes nbits < 32.
	out   []byte
	bits  uint64
	nbits uint

	litFreq        [maxLitSyms]int32
	offFreq        [maxDistSyms]int32
	clenFreq       [len(codeOrder)]int32
	codegen        [maxLitSyms + maxDistSyms + 1]uint8
	lit, off, clen huffEncoder
}

// deflate appends to dst the bytes a BestSpeed flate.Writer writes for
// src followed by Close, and returns the extended slice.
func (d *deflater) deflate(dst, src []byte) []byte {
	d.out, d.bits, d.nbits = dst, 0, 0
	// A new stream must not match into the last one. Moving cur one match
	// distance past every stored position does that for all entries at
	// once, as flate's Reset does.
	d.cur += maxMatchOffset + 1
	if d.cur >= bufferReset {
		clear(d.table[:])
		d.cur = maxMatchOffset + 1
	}
	for start := 0; start < len(src); start += maxStoreBlockSize {
		block := src[start:min(start+maxStoreBlockSize, len(src))]
		switch n := len(block); {
		case n <= 16:
			d.writeStored(block, false)
		case n < 128:
			d.writeBlockHuff(block)
		default:
			d.tokens = d.encodeFast(d.tokens[:0], src, start)
			// If matching removed less than a sixteenth, Huffman-code the
			// bytes alone.
			if len(d.tokens) > n-n>>4 {
				d.writeBlockHuff(block)
			} else {
				d.writeBlockDynamic(block)
			}
		}
	}
	d.writeStoredHeader(0, true)
	d.flush()
	return d.out
}

func load32(b []byte, i int32) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

func load64(b []byte, i int32) uint64 {
	return binary.LittleEndian.Uint64(b[i:])
}

func hash(u uint32) uint32 {
	return (u * 0x1e35a7bd) >> tableShift
}

// encodeFast appends the tokens of the block of src that begins at start
// to dst, and counts their symbols in d.litFreq and d.offFreq. A match
// may reach back into the previous block, which is the 65535 bytes of
// src before start.
func (d *deflater) encodeFast(dst []token, src []byte, start int) []token {
	if d.cur >= bufferReset {
		d.shiftOffsets(start > 0)
	}
	clear(d.litFreq[:])
	clear(d.offFreq[:])
	blk := src[start:min(start+maxStoreBlockSize, len(src))]

	// sLimit is when to stop looking for offset/length copies. The
	// inputMargin lets us use a fast path for emitLiteral in the main
	// loop, while we are looking for copies.
	sLimit := int32(len(blk) - inputMargin)

	// nextEmit is where in blk the next emitLiteral should start from.
	nextEmit := int32(0)
	s := int32(0)
	cv := load32(blk, s)
	nextHash := hash(cv)

	for {
		// Heuristic match skipping, from the C++ Snappy implementation:
		// if 32 bytes are scanned with no matches found, start looking
		// only at every other byte; if 32 more bytes are scanned, every
		// third byte, and so on. When a match is found, go back to
		// looking at every byte.
		skip := int32(32)

		nextS := s
		var candidate tableEntry
		for {
			s = nextS
			bytesBetweenHashLookups := skip >> 5
			nextS = s + bytesBetweenHashLookups
			skip += bytesBetweenHashLookups
			if nextS > sLimit {
				goto emitRemainder
			}
			candidate = d.table[nextHash&tableMask]
			now := load32(blk, nextS)
			d.table[nextHash&tableMask] = tableEntry{offset: s + d.cur, val: cv}
			nextHash = hash(now)

			offset := s - (candidate.offset - d.cur)
			if offset > maxMatchOffset || cv != candidate.val {
				// Out of range or not matched.
				cv = now
				continue
			}
			break
		}

		// A 4-byte match has been found. blk[nextEmit:s] before it is
		// unmatched: emit it as literals.
		dst = d.emitLiteral(dst, blk[nextEmit:s])

		// Emit the match, then see if another match starts right after
		// it. Repeat until the input after the last match does not match.
		for {
			// Invariant: we have a 4-byte match at s, and no need to
			// emit any literal bytes prior to s. t is where the match
			// continues, negative when that is in the previous block.
			s += 4
			t := candidate.offset - d.cur + 4
			s1 := min(int(s)+maxMatchLength-4, len(blk))
			l := int32(matchLen(src, start+int(t), start+int(s), start+s1))

			xl, xo := uint32(l+4-baseMatchLength), uint32(s-t-baseMatchOffset)
			oc := offsetCode(xo)
			d.litFreq[lengthCodesStart+int(lengthCodes[xl])]++
			d.offFreq[oc]++
			dst = append(dst, token(matchType|xl<<lengthShift|oc<<offCodeShift|xo))
			s += l
			nextEmit = s
			if s >= sLimit {
				goto emitRemainder
			}

			// Before starting at s, update the hash table at s-1 and at
			// s, from one 8-byte load; if another match does not start
			// at s, hash s+1 from it too.
			x := load64(blk, s-1)
			prevHash := hash(uint32(x))
			d.table[prevHash&tableMask] = tableEntry{offset: d.cur + s - 1, val: uint32(x)}
			x >>= 8
			currHash := hash(uint32(x))
			candidate = d.table[currHash&tableMask]
			d.table[currHash&tableMask] = tableEntry{offset: d.cur + s, val: uint32(x)}

			offset := s - (candidate.offset - d.cur)
			if offset > maxMatchOffset || uint32(x) != candidate.val {
				cv = uint32(x >> 8)
				nextHash = hash(cv)
				s++
				break
			}
		}
	}

emitRemainder:
	if int(nextEmit) < len(blk) {
		dst = d.emitLiteral(dst, blk[nextEmit:])
	}
	d.cur += int32(len(blk))
	return dst
}

func (d *deflater) emitLiteral(dst []token, lit []byte) []token {
	for _, v := range lit {
		d.litFreq[v]++
		dst = append(dst, token(v))
	}
	return dst
}

// matchLen returns how many bytes of src from s on, stopping at limit,
// equal those from t on. t < s, so the bytes at t are always in src: a
// match into the previous block runs on into the current one exactly as
// the input does.
func matchLen(src []byte, t, s, limit int) int {
	n := 0
	for ; s+n+8 <= limit; n += 8 {
		if x := binary.LittleEndian.Uint64(src[t+n:]) ^ binary.LittleEndian.Uint64(src[s+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for ; s+n < limit && src[t+n] == src[s+n]; n++ {
	}
	return n
}

// shiftOffsets moves cur back to maxMatchOffset+1 before positions would
// overflow. Without history the table is cleared; with it, every entry
// keeps its distance to cur, or, if already out of reach, stays so.
func (d *deflater) shiftOffsets(history bool) {
	if !history {
		clear(d.table[:])
		d.cur = maxMatchOffset + 1
		return
	}
	for i := range d.table {
		v := d.table[i].offset - d.cur + maxMatchOffset + 1
		if v < 0 {
			v = 0
		}
		d.table[i].offset = v
	}
	d.cur = maxMatchOffset + 1
}

// --- Huffman blocks ----------------------------------------------------

// writeBits appends the low nb (at most 32) bits of b.
func (d *deflater) writeBits(b uint64, nb uint) {
	d.bits |= b << d.nbits
	d.nbits += nb
	if d.nbits >= 32 {
		d.out = binary.LittleEndian.AppendUint32(d.out, uint32(d.bits))
		d.bits >>= 32
		d.nbits -= 32
	}
}

func (d *deflater) writeCode(c hcode) {
	d.writeBits(uint64(c.code), uint(c.len))
}

// flush writes the pending bits, padded with zeros to a byte boundary.
func (d *deflater) flush() {
	for ; d.nbits > 0; d.nbits -= min(d.nbits, 8) {
		d.out = append(d.out, byte(d.bits))
		d.bits >>= 8
	}
	d.bits = 0
}

func (d *deflater) writeStoredHeader(length int, isEOF bool) {
	var flag uint64
	if isEOF {
		flag = 1
	}
	d.writeBits(flag, 3)
	d.flush()
	d.writeBits(uint64(length), 16)
	d.writeBits(uint64(^uint16(length)), 16)
}

// writeStored writes input as a stored block. Its header ends on a byte
// boundary with all 32 length bits written out, so input follows as is.
func (d *deflater) writeStored(input []byte, isEOF bool) {
	d.writeStoredHeader(len(input), isEOF)
	d.out = append(d.out, input...)
}

// storedBits is the size of input as a stored block, header included.
func storedBits(input []byte) int { return (len(input) + 5) * 8 }

// writeBlockDynamic writes d.tokens, which encode input and whose
// symbols encodeFast counted, as a dynamic-Huffman block, or input as a
// stored block if the Huffman block would not save a sixteenth of it.
func (d *deflater) writeBlockDynamic(input []byte) {
	d.litFreq[endBlockMarker] = 1
	numLiterals, numOffsets := d.buildCodes()

	d.generateCodegen(numLiterals, numOffsets, d.lit.codes[:], d.off.codes[:])
	d.clen.generate(d.clenFreq[:], 7)
	size, numCodegens := d.dynamicSize(d.lit.bitLength() + d.off.bitLength())

	if storedBits(input) < size+size>>4 {
		d.writeStored(input, false)
		return
	}
	d.writeDynamicHeader(numLiterals, numOffsets, numCodegens, false)
	d.writeTokens(d.tokens)
	d.writeCode(d.lit.codes[endBlockMarker])
}

// buildCodes builds the literal/length and distance codes from the block's
// symbol counts, and returns how many of each code's symbols the block
// header must list.
func (d *deflater) buildCodes() (numLiterals, numOffsets int) {
	numLiterals = len(d.litFreq)
	for d.litFreq[numLiterals-1] == 0 {
		numLiterals--
	}
	numOffsets = len(d.offFreq)
	for numOffsets > 0 && d.offFreq[numOffsets-1] == 0 {
		numOffsets--
	}
	if numOffsets == 0 {
		// No match: count one distance anyway, so the distance code can
		// be written.
		d.offFreq[0] = 1
		numOffsets = 1
	}
	d.lit.generate(d.litFreq[:], 15)
	d.off.generate(d.offFreq[:], 15)
	return numLiterals, numOffsets
}

// writeTokens writes tokens through the block's literal/length and
// distance codes.
func (d *deflater) writeTokens(tokens []token) {
	lits, offs := &d.lit.codes, &d.off.codes
	b, nb, out := d.bits, d.nbits, d.out
	for _, t := range tokens {
		if t < matchType {
			c := lits[t]
			b |= uint64(c.code) << nb
			nb += uint(c.len)
		} else {
			// A length code and its extra bits are at most 20 bits, a
			// distance code and its extra bits at most 28: each fits
			// beside the fewer than 32 pending.
			xl := t.length()
			lc := lengthCodes[xl]
			c := lits[lengthCodesStart+int(lc)]
			b |= (uint64(c.code) | uint64(xl-lengthBase[lc])<<c.len) << nb
			nb += uint(c.len) + uint(lengthExtra[lc])
			if nb >= 32 {
				out = binary.LittleEndian.AppendUint32(out, uint32(b))
				b >>= 32
				nb -= 32
			}
			xo, oc := t.offset(), t.offsetCode()
			c = offs[oc]
			b |= (uint64(c.code) | uint64(xo-offsetBase[oc])<<c.len) << nb
			nb += uint(c.len) + uint(offsetExtra[oc])
		}
		if nb >= 32 {
			out = binary.LittleEndian.AppendUint32(out, uint32(b))
			b >>= 32
			nb -= 32
		}
	}
	d.bits, d.nbits, d.out = b, nb, out
}

// huffOffset is the distance code of a Huffman-only block: one code, of
// length 1, for a distance that never occurs.
var huffOffset = [1]hcode{{code: 0, len: 1}}

// writeBlockHuff writes input as a block of Huffman-coded literals, or as
// a stored block if that would not save a sixteenth of it.
func (d *deflater) writeBlockHuff(input []byte) {
	clear(d.litFreq[:])
	for _, c := range input {
		d.litFreq[c]++
	}
	d.litFreq[endBlockMarker] = 1
	const numLiterals = endBlockMarker + 1
	const numOffsets = 1

	d.lit.generate(d.litFreq[:], 15)
	d.generateCodegen(numLiterals, numOffsets, d.lit.codes[:], huffOffset[:])
	d.clen.generate(d.clenFreq[:], 7)
	// The distance code's one symbol is counted once.
	size, numCodegens := d.dynamicSize(d.lit.bitLength() + 1)

	if storedBits(input) < size+size>>4 {
		d.writeStored(input, false)
		return
	}
	d.writeDynamicHeader(numLiterals, numOffsets, numCodegens, false)
	lits := &d.lit.codes
	b, nb, out := d.bits, d.nbits, d.out
	for _, c := range input {
		code := lits[c]
		b |= uint64(code.code) << nb
		nb += uint(code.len)
		if nb >= 32 {
			out = binary.LittleEndian.AppendUint32(out, uint32(b))
			b >>= 32
			nb -= 32
		}
	}
	d.bits, d.nbits, d.out = b, nb, out
	d.writeCode(lits[endBlockMarker])
}

// generateCodegen run-length encodes the code lengths of the first
// numLiterals literal/length codes and numOffsets distance codes into
// d.codegen as RFC 1951 §3.2.7 code-length symbols (16, 17 and 18 each
// followed by its repeat count), ending with badCode, and counts the
// symbols in d.clenFreq.
func (d *deflater) generateCodegen(numLiterals, numOffsets int, litCodes, offCodes []hcode) {
	clear(d.clenFreq[:])
	// codegen holds the lengths first and is overwritten by the result,
	// which is never longer than the input read so far.
	codegen := d.codegen[:]
	for i := range numLiterals {
		codegen[i] = uint8(litCodes[i].len)
	}
	for i := range numOffsets {
		codegen[numLiterals+i] = uint8(offCodes[i].len)
	}
	codegen[numLiterals+numOffsets] = badCode

	size := codegen[0]
	count := 1
	outIndex := 0
	for inIndex := 1; size != badCode; inIndex++ {
		// INVARIANT: We have seen "count" copies of size that have not yet
		// had output generated for them.
		nextSize := codegen[inIndex]
		if nextSize == size {
			count++
			continue
		}
		// We need to generate codegen indicating "count" of size.
		if size != 0 {
			codegen[outIndex] = size
			outIndex++
			d.clenFreq[size]++
			count--
			for count >= 3 {
				n := min(6, count)
				codegen[outIndex] = 16
				outIndex++
				codegen[outIndex] = uint8(n - 3)
				outIndex++
				d.clenFreq[16]++
				count -= n
			}
		} else {
			for count >= 11 {
				n := min(138, count)
				codegen[outIndex] = 18
				outIndex++
				codegen[outIndex] = uint8(n - 11)
				outIndex++
				d.clenFreq[18]++
				count -= n
			}
			if count >= 3 {
				// count >= 3 && count <= 10
				codegen[outIndex] = 17
				outIndex++
				codegen[outIndex] = uint8(count - 3)
				outIndex++
				d.clenFreq[17]++
				count = 0
			}
		}
		count--
		for ; count >= 0; count-- {
			codegen[outIndex] = size
			outIndex++
			d.clenFreq[size]++
		}
		// Set up invariant for next time through the loop.
		size = nextSize
		count = 1
	}
	// Marker indicating the end of the codegen.
	codegen[outIndex] = badCode
}

// dynamicSize returns the size in bits of a dynamic block whose symbols
// take dataBits, and how many code-length code lengths its header lists.
func (d *deflater) dynamicSize(dataBits int) (size, numCodegens int) {
	numCodegens = len(d.clenFreq)
	for numCodegens > 4 && d.clenFreq[codeOrder[numCodegens-1]] == 0 {
		numCodegens--
	}
	header := 3 + 5 + 5 + 4 + (3 * numCodegens) +
		d.clen.bitLength() +
		int(d.clenFreq[16])*2 +
		int(d.clenFreq[17])*3 +
		int(d.clenFreq[18])*7
	return header + dataBits, numCodegens
}

// writeDynamicHeader writes a dynamic block's header from d.codegen.
func (d *deflater) writeDynamicHeader(numLiterals, numOffsets, numCodegens int, isEOF bool) {
	firstBits := uint64(4)
	if isEOF {
		firstBits = 5
	}
	d.writeBits(firstBits, 3)
	d.writeBits(uint64(numLiterals-257), 5)
	d.writeBits(uint64(numOffsets-1), 5)
	d.writeBits(uint64(numCodegens-4), 4)

	for _, s := range codeOrder[:numCodegens] {
		d.writeBits(uint64(d.clen.codes[s].len), 3)
	}

	for i := 0; d.codegen[i] != badCode; i++ {
		codeWord := d.codegen[i]
		d.writeCode(d.clen.codes[codeWord])
		switch codeWord {
		case 16:
			i++
			d.writeBits(uint64(d.codegen[i]), 2)
		case 17:
			i++
			d.writeBits(uint64(d.codegen[i]), 3)
		case 18:
			i++
			d.writeBits(uint64(d.codegen[i]), 7)
		}
	}
}

// --- Huffman codes -----------------------------------------------------

// hcode is a Huffman code, bit-reversed for writing least significant
// bit first, and its length.
type hcode struct {
	code, len uint16
}

// huffEncoder builds a length-limited canonical Huffman code from symbol
// frequencies. One type serves all three of a block's codes, so each is
// sized for the largest alphabet.
type huffEncoder struct {
	codes    [maxLitSyms]hcode
	bitCount [17]int32
	keys     [maxLitSyms]uint32          // freq<<9 | symbol, one per present symbol
	present  int                         // how many keys the last generate filled
	list     [maxLitSyms + 1]literalNode // symbols by increasing frequency, and a sentinel
}

type literalNode struct {
	literal uint16
	freq    int32
}

// A levelInfo describes the state of the constructed tree for a given depth.
type levelInfo struct {
	// Our level.  for better printing
	level int32

	// The frequency of the last node at this level
	lastFreq int32

	// The frequency of the next character to add to this level
	nextCharFreq int32

	// The frequency of the next pair (from level below) to add to this level.
	// Only valid if the "needed" value of the next lower level is 0.
	nextPairFreq int32

	// The number of chains remaining to generate for this level before moving
	// up to the next level
	needed int32
}

func maxNode() literalNode { return literalNode{math.MaxUint16, math.MaxInt32} }

// bitLength is the size in bits of the symbols whose frequencies the last
// generate was given, coded with the code it built.
func (h *huffEncoder) bitLength() int {
	var total int
	for _, k := range h.keys[:h.present] {
		total += int(k>>9) * int(h.codes[k&511].len)
	}
	return total
}

const maxBitsLimit = 16

// bitCounts computes the number of literals assigned to each bit size in the Huffman encoding.
// It is only called when list.length >= 3.
// The cases of 0, 1, and 2 literals are handled by special case code.
//
// list is an array of the literals with non-zero frequencies
// and their associated frequencies. The array is in order of increasing
// frequency and has as its last element a special element with frequency
// MaxInt32.
//
// maxBits is the maximum number of bits that should be used to encode any literal.
// It must be less than 16.
//
// bitCounts returns an integer slice in which slice[i] indicates the number of literals
// that should be encoded in i bits.
func (h *huffEncoder) bitCounts(list []literalNode, maxBits int32) []int32 {
	if maxBits >= maxBitsLimit {
		panic("flate: maxBits too large")
	}
	n := int32(len(list))
	list = list[0 : n+1]
	list[n] = maxNode()

	// The tree can't have greater depth than n - 1, no matter what. This
	// saves a little bit of work in some small cases
	if maxBits > n-1 {
		maxBits = n - 1
	}

	// Create information about each of the levels.
	// A bogus "Level 0" whose sole purpose is so that
	// level1.prev.needed==0.  This makes level1.nextPairFreq
	// be a legitimate value that never gets chosen.
	var levels [maxBitsLimit]levelInfo
	// leafCounts[i] counts the number of literals at the left
	// of ancestors of the rightmost node at level i.
	// leafCounts[i][j] is the number of literals at the left
	// of the level j ancestor.
	var leafCounts [maxBitsLimit][maxBitsLimit]int32

	for level := int32(1); level <= maxBits; level++ {
		// For every level, the first two items are the first two characters.
		// We initialize the levels as if we had already figured this out.
		levels[level] = levelInfo{
			level:        level,
			lastFreq:     list[1].freq,
			nextCharFreq: list[2].freq,
			nextPairFreq: list[0].freq + list[1].freq,
		}
		leafCounts[level][level] = 2
		if level == 1 {
			levels[level].nextPairFreq = math.MaxInt32
		}
	}

	// We need a total of 2*n - 2 items at top level and have already generated 2.
	levels[maxBits].needed = 2*n - 4

	level := maxBits
	for {
		l := &levels[level]
		if l.nextPairFreq == math.MaxInt32 && l.nextCharFreq == math.MaxInt32 {
			// We've run out of both leaves and pairs.
			// End all calculations for this level.
			// To make sure we never come back to this level or any lower level,
			// set nextPairFreq impossibly large.
			l.needed = 0
			levels[level+1].nextPairFreq = math.MaxInt32
			level++
			continue
		}

		prevFreq := l.lastFreq
		if l.nextCharFreq < l.nextPairFreq {
			// The next item on this row is a leaf node.
			n := leafCounts[level][level] + 1
			l.lastFreq = l.nextCharFreq
			// Lower leafCounts are the same of the previous node.
			leafCounts[level][level] = n
			l.nextCharFreq = list[n].freq
		} else {
			// The next item on this row is a pair from the previous row.
			// nextPairFreq isn't valid until we generate two
			// more values in the level below
			l.lastFreq = l.nextPairFreq
			// Take leaf counts from the lower level, except counts[level] remains the same.
			copy(leafCounts[level][:level], leafCounts[level-1][:level])
			levels[l.level-1].needed = 2
		}

		if l.needed--; l.needed == 0 {
			// We've done everything we need to do for this level.
			// Continue calculating one level up. Fill in nextPairFreq
			// of that level with the sum of the two nodes we've just calculated on
			// this level.
			if l.level == maxBits {
				// All done!
				break
			}
			levels[l.level+1].nextPairFreq = prevFreq + l.lastFreq
			level++
		} else {
			// If we stole from below, move down temporarily to replenish it.
			for levels[level-1].needed > 0 {
				level--
			}
		}
	}

	// Somethings is wrong if at the end, the top level is null or hasn't used
	// all of the leaves.
	if leafCounts[maxBits][maxBits] != n {
		panic("leafCounts[maxBits][maxBits] != n")
	}

	bitCount := h.bitCount[:maxBits+1]
	bits := 1
	counts := &leafCounts[maxBits]
	for level := maxBits; level > 0; level-- {
		// chain.leafCount gives the number of literals requiring at least "bits"
		// bits to encode.
		bitCount[bits] = counts[level] - counts[level-1]
		bits++
	}
	return bitCount
}

// generate sets h.codes to the minimum code of at most maxBits bits for
// the symbol frequencies freq (freq[i] is symbol i's); absent symbols get
// length 0.
func (h *huffEncoder) generate(freq []int32, maxBits int32) {
	n := 0
	for i, f := range freq {
		if f != 0 {
			// A block has at most 65536 symbols, so freq<<9 fits.
			h.keys[n] = uint32(f)<<9 | uint32(i)
			n++
		} else {
			h.codes[i].len = 0
		}
	}
	h.present = n
	keys := h.keys[:n]
	if n <= 2 {
		// With two or fewer symbols, each gets length 1, in symbol order.
		for i, k := range keys {
			h.codes[k&511] = hcode{code: uint16(i), len: 1}
		}
		return
	}
	// Increasing frequency, ties by symbol: compress/flate's byFreq order.
	// (bitLength sums over keys in any order.)
	slices.Sort(keys)
	list := h.list[:len(keys)]
	for i, k := range keys {
		list[i] = literalNode{literal: uint16(k & 511), freq: int32(k >> 9)}
	}
	bitCount := h.bitCounts(list, maxBits)

	// The bitCount[n] most frequent symbols not yet given a length get n
	// bits; next[n] is the first code of length n.
	var next [maxBitsLimit]uint16
	code := uint16(0)
	for n, count := range bitCount {
		code <<= 1
		next[n] = code
		code += uint16(count)
		for _, node := range list[len(list)-int(count):] {
			h.codes[node.literal].len = uint16(n)
		}
		list = list[:len(list)-int(count)]
	}
	// Each length's codes go to its symbols in symbol order (RFC 1951
	// §3.2.2).
	for i, f := range freq {
		if f != 0 {
			c := &h.codes[i]
			c.code = uint16(reverseBits(int(next[c.len]), int(c.len)))
			next[c.len]++
		}
	}
}
