// Package lintcase is a veclint test fixture: illegal widths, lane
// mismatches between producers and consumers, mixed-width operands and
// mask/op disagreements.
package lintcase

import (
	"simdhtbench/internal/engine"
	"simdhtbench/internal/vec"
)

func badWidths(e *engine.Engine) {
	v := vec.Zero(192) // want `invalid register width 192 passed to Zero`
	_ = v
	_ = vec.Set1(256, 24, 1) // want `invalid lane width 24 passed to Set1`
	e.Movemask(1024)         // want `invalid register width 1024 passed to Movemask`
}

func laneMismatch() {
	a := vec.Set1(256, 32, 1)
	b := vec.Set1(256, 32, 2)
	m := vec.CmpEq(16, a, b) // want `lane-width mismatch: register of 32-bit lanes passed to 16-bit CmpEq`
	_ = m
}

// setLaneMismatch writes a 16-bit lane into a register of 32-bit lanes in
// place; the in-place form is checked like WithLane.
func setLaneMismatch() uint64 {
	v := vec.Set1(256, 32, 1)
	v.SetLane(16, 0, 7) // want `lane-width mismatch: register of 32-bit lanes passed to 16-bit SetLane`
	v.SetLane(32, 1, 9)
	return v.Lane(32, 1)
}

func mixedWidths() {
	a := vec.Set1(256, 32, 1)
	b := vec.Set1(512, 32, 2)
	_ = vec.And(a, b) // want `mixed register widths 256 and 512 passed to And`
}

func maskMismatch() {
	a16 := vec.Set1(256, 16, 1)
	b16 := vec.Set1(256, 16, 2)
	a32 := vec.Set1(256, 32, 3)
	m := vec.CmpEq(32, a32, a32)
	_ = vec.Blend(16, m, a16, b16) // want `lane-width mismatch: mask built over 32-bit lanes passed to 16-bit Blend`
}

// cleanKernel is a well-formed 512-bit probe; nothing is reported.
func cleanKernel(e *engine.Engine) uint64 {
	k := e.Set1(512, 32, 7)
	t := e.Set1(512, 32, 9)
	m := e.CmpEq(32, k, t)
	r := e.Blend(32, m, k, t)
	e.Movemask(512)
	return r.Lane(32, 0)
}

// unknownWidths stay silent: veclint never guesses at dynamic values.
func unknownWidths(width int, a, b vec.Vec) vec.Mask {
	_ = vec.Zero(width)
	return vec.CmpEq(32, a, b)
}
