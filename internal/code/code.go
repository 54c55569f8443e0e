// Package code implements the concatenated 3-bit repetition code of the
// paper (§2.1).
//
// A bit at level 0 is a physical bit. A bit at level L is three bits at
// level L−1, all carrying the same value in a noiseless codeword: the
// codeword for logical 0 at level L is 3^L zeros, and for logical 1 it is
// 3^L ones. Decoding is recursive majority: split the block into thirds,
// decode each at level L−1, and take the majority of the three results.
// Recursive majority corrects any error pattern in which, at every level of
// the recursion, at most one of the three sub-blocks decodes incorrectly —
// in particular any single physical bit error.
package code

import (
	"fmt"

	"revft/internal/bitvec"
	"revft/internal/gate"
)

// BlockSize returns 3^level, the number of physical bits in a level-L
// logical bit. It panics for negative levels or levels so deep the size
// overflows int.
func BlockSize(level int) int {
	if level < 0 {
		panic("code: negative level")
	}
	n := 1
	for i := 0; i < level; i++ {
		if n > 1<<40 {
			panic(fmt.Sprintf("code: level %d block size overflows", level))
		}
		n *= 3
	}
	return n
}

// Encode returns the level-L codeword for v: a vector of 3^L bits all equal
// to v.
func Encode(v bool, level int) *bitvec.Vector {
	n := BlockSize(level)
	st := bitvec.New(n)
	if v {
		for i := 0; i < n; i++ {
			st.Set(i, true)
		}
	}
	return st
}

// EncodeInto writes the level-L codeword for v onto wires
// [wires[0], wires[1], ...] of st; wires must have length 3^level.
func EncodeInto(st *bitvec.Vector, wires []int, v bool, level int) {
	if len(wires) != BlockSize(level) {
		panic(fmt.Sprintf("code: EncodeInto got %d wires for level %d", len(wires), level))
	}
	for _, w := range wires {
		st.Set(w, v)
	}
}

// Decode recursively majority-decodes the level-L block found on the given
// wires of st. wires must have length 3^level.
func Decode(st *bitvec.Vector, wires []int, level int) bool {
	if len(wires) != BlockSize(level) {
		panic(fmt.Sprintf("code: Decode got %d wires for level %d", len(wires), level))
	}
	return decodeWires(st, wires)
}

func decodeWires(st *bitvec.Vector, wires []int) bool {
	if len(wires) == 1 {
		return st.Get(wires[0])
	}
	third := len(wires) / 3
	return gate.Majority(
		decodeWires(st, wires[:third]),
		decodeWires(st, wires[third:2*third]),
		decodeWires(st, wires[2*third:]),
	)
}

// DecodeBits majority-decodes a standalone slice of 3^L bit values.
func DecodeBits(bits []bool) bool {
	if Level(len(bits)) < 0 {
		panic(fmt.Sprintf("code: DecodeBits got %d bits, not a power of three", len(bits)))
	}
	return decodeBits(bits)
}

func decodeBits(bits []bool) bool {
	if len(bits) == 1 {
		return bits[0]
	}
	third := len(bits) / 3
	return gate.Majority(
		decodeBits(bits[:third]),
		decodeBits(bits[third:2*third]),
		decodeBits(bits[2*third:]),
	)
}

// Level returns the concatenation level of a block of n bits, or -1 if n is
// not a power of three.
func Level(n int) int {
	if n < 1 {
		return -1
	}
	l := 0
	for n%3 == 0 {
		n /= 3
		l++
	}
	if n != 1 {
		return -1
	}
	return l
}
