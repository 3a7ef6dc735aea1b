package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/library"
	"dfmresyn/internal/netlist"
	"dfmresyn/internal/verilog"
)

// Public 4-bit cipher S-boxes (PRESENT, DES S1 row 0, SKINNY-64): the same
// substitution layers the repository's synthetic scale tier is built from.
var sboxes = [3][16]uint8{
	{0xC, 5, 6, 0xB, 9, 0, 0xA, 0xD, 3, 0xE, 0xF, 8, 4, 7, 1, 2},
	{14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7},
	{0xC, 6, 9, 0, 1, 0xA, 2, 0xB, 3, 8, 5, 0xD, 4, 0xE, 7, 0xF},
}

// cipherVerilog generates a circuit of independent cipher-round blocks with
// the shape of the synthetic scale tier — key xor, four S-boxes, a wire
// permutation, XOR spreading, an 8-bit adder, and one consensus-redundant
// and one duplicate-merge cone per block — and returns it as structural
// Verilog, the form in which the workloads hand it to the program.
//
// The seed moves the wiring, never the gate count: it rotates which S-box
// each nibble gets (any three consecutive blocks use each box equally
// often), picks each block's permutation stride, and picks the taps of the
// redundant cones. So with a block count divisible by three every seed
// gives a circuit of the same size and kind, which keeps run cost steady
// across seeds.
func cipherVerilog(name string, lib *library.Library, seed int64, blocks int) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	b := bench.NewB(name, lib, seed)
	strides := [4]int{5, 7, 11, 13} // coprime to 16: true permutations
	rot := rng.Intn(len(sboxes))
	for k := 0; k < blocks; k++ {
		st := b.PIs(fmt.Sprintf("b%d_s", k), 16)
		key := b.PIs(fmt.Sprintf("b%d_k", k), 16)
		x := make([]*netlist.Net, 16)
		for i := range st {
			x[i] = b.Xor(st[i], key[i])
		}
		var sb []*netlist.Net
		for n := 0; n < 4; n++ {
			sb = append(sb, b.SBox4(sboxes[(rot+k+n)%len(sboxes)], x[4*n:4*n+4])...)
		}
		stride := strides[rng.Intn(len(strides))]
		perm := make([]*netlist.Net, 16)
		for i := range sb {
			perm[i] = sb[(i*stride)%16]
		}
		mix := make([]*netlist.Net, 16)
		for i := range perm {
			mix[i] = b.Xor(perm[i], b.Xor(perm[(i+4)%16], perm[(i+8)%16]))
		}
		sum, co := b.Adder(mix[:8], mix[8:], nil)
		b.PO(sum...)
		b.PO(mix[8:]...)
		b.PO(co)
		tap := rng.Intn(16)
		b.PO(b.InjectConsensus(key[tap], st[(tap+3)%16], st[(tap+9)%16]))
		b.PO(b.DupMerge(st[(tap+1)%16], key[(tap+5)%16]))
	}
	var buf bytes.Buffer
	if err := verilog.WriteModule(&buf, b.C); err != nil {
		return nil, fmt.Errorf("write %s: %w", name, err)
	}
	return buf.Bytes(), nil
}
