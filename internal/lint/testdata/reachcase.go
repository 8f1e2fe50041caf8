// Package main is a reachlint test fixture, loaded under the synthetic
// import path simdhtbench/cmd/reachcase. Its main and init are the roots;
// each "want" comment states the diagnostic the harness expects on that
// line.
package main

import (
	"fmt"
	"sort"
)

// generator mirrors a pluggable workload generator whose Name nobody calls:
// every implementation of Name is reported, while Next, called through the
// interface, reaches both implementations.
type generator interface {
	Next() int
	Name() string
}

type uniform struct{ n int }

func (u *uniform) Next() int { u.n++; return u.n }

func (u *uniform) Name() string { return "uniform" } // want `main\.\(\*uniform\)\.Name is reached by no main`

type skewed struct{ n int }

func (s *skewed) Next() int { s.n += 2; return s.n }

func (s *skewed) Name() string { return "skewed" } // want `main\.\(\*skewed\)\.Name is reached by no main`

// celsius satisfies fmt.Stringer, and failure satisfies error: fmt calls
// String and Error, out of the module's sight.
type celsius float64

func (c celsius) String() string { return fmt.Sprintf("%.1fC", float64(c)) }

type failure struct{ msg string }

func (f *failure) Error() string { return f.msg }

// byLen satisfies sort.Interface, so sort calls Len, Less and Swap.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// less is used only as a value: apply calls it through a func parameter.
func less(a, b int) bool { return a < b }

func apply(f func(a, b int) bool) bool { return f(1, 2) }

// registered runs only through a package-level initializer.
var registry = map[string]func() int{"answer": registered}

func registered() int { return 42 }

// first is called through an explicit instantiation.
func first[T any](xs []T) T { return xs[0] }

// setup runs from init.
func setup() {}

func init() { setup() }

// testOnly is called by no program: only a test could reach it.
func testOnly() int { return 1 } // want `main\.testOnly is reached by no main`

// reference is a sanctioned entry point; the directive covers its callees.
//
//lint:ignore reachlint reference path a test compares against
func reference(x int) int { return double(x) }

func double(x int) int { return 2 * x }

func main() {
	for _, g := range []generator{&uniform{}, &skewed{}} {
		_ = g.Next()
	}
	words := byLen{"ccc", "a", "bb"}
	sort.Sort(words)
	fmt.Println(celsius(21.5), error(&failure{"x"}), words, apply(less), registry["answer"](), first[int]([]int{7}))
}
