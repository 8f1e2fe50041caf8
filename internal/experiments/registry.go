package experiments

import (
	"slices"

	"simdhtbench/internal/core"
	"simdhtbench/internal/report"
	"simdhtbench/internal/workload"
)

// Printer receives what an artifact prints; cmd/internal/cli.Harness is one.
type Printer interface {
	Emit(*report.Table)
	EmitGrid(*report.Grid)
	EmitText(string)
}

// Invocation is one CLI run: the options its artifacts run under and the
// results they share.
type Invocation struct {
	Options  Options    // simdhtbench's studies
	KVS      KVSOptions // kvsbench's studies but fleet and overload
	Fleet    FleetOptions
	Overload OverloadOptions

	fig5  *[]*core.Result // Fig. 5's sweep, see once
	fig11 *Fig11Result    // Fig. 11's sweep
}

// once returns *slot, computing it on first use, so an invocation computes
// a result at most once however many of its artifacts print it.
func once[T any](slot **T, compute func() (T, error)) (T, error) {
	if *slot == nil {
		v, err := compute()
		if err != nil {
			return v, err
		}
		*slot = &v
	}
	return **slot, nil
}

// Artifact is a table or figure a CLI prints by name. Print runs its study
// under an invocation and prints the rendering.
type Artifact struct {
	Name    string
	Aliases []string // the paper's case-study numbers
	InAll   bool     // the tool's `all` prints it
	Print   func(inv *Invocation, p Printer) error
}

// Registry lists one tool's artifacts in the order `all` prints them.
type Registry []Artifact

// Resolve returns the artifacts a command-line argument names: the one
// named or aliased arg, or for "all" every artifact `all` prints.
func (r Registry) Resolve(arg string) ([]Artifact, bool) {
	var arts []Artifact
	for _, a := range r {
		if arg == a.Name || slices.Contains(a.Aliases, arg) || arg == "all" && a.InAll {
			arts = append(arts, a)
		}
	}
	return arts, len(arts) > 0
}

// Names lists every artifact's name, then all: what Resolve accepts but aliases.
func (r Registry) Names() []string {
	var names []string
	for _, a := range r {
		names = append(names, a.Name)
	}
	return append(names, "all")
}

// MicroArtifacts is simdhtbench's registry: the paper's Section V tables,
// figures and listing, then the micro extension studies.
var MicroArtifacts = Registry{
	{Name: "table1", InAll: true, Print: func(_ *Invocation, p Printer) error { p.Emit(Table1()); return nil }},
	{Name: "fig2", InAll: true, Print: table(microOptions, Fig2)},
	{Name: "fig5", Aliases: []string{"cs1a"}, InAll: true, Print: func(inv *Invocation, p Printer) error {
		runs, err := once(&inv.fig5, func() ([]*core.Result, error) { return Fig5StudyResult(inv.Options) })
		if err == nil {
			p.Emit(Fig5Table(runs))
			p.EmitGrid(Fig5Grid(runs, workload.Uniform))
			p.EmitGrid(Fig5Grid(runs, workload.Skewed))
		}
		return err
	}},
	{Name: "fig6", Aliases: []string{"cs1b"}, InAll: true, Print: table(microOptions, Fig6)},
	{Name: "fig7a", Aliases: []string{"cs2"}, InAll: true, Print: table(microOptions, Fig7a)},
	{Name: "fig7b", Aliases: []string{"cs3"}, InAll: true, Print: table(microOptions, Fig7b)},
	{Name: "fig8", Aliases: []string{"cs4"}, InAll: true, Print: table(microOptions, Fig8)},
	{Name: "fig9", Aliases: []string{"cs5"}, InAll: true, Print: table(microOptions, Fig9)},
	{Name: "listing1", InAll: true, Print: func(_ *Invocation, p Printer) error {
		s, err := Listing1()
		if err == nil {
			p.EmitText("Listing 1: SIMD-aware design choices\n" + s)
		}
		return err
	}},
	{Name: "split", Print: table(microOptions, SplitBucket)},
	{Name: "mixed", Print: table(microOptions, MixedWorkload)},
	{Name: "amac", Print: table(microOptions, AMACStudy)},
	{Name: "arches", Print: table(microOptions, EmergingArchitectures)},
}

// KVSArtifacts is kvsbench's registry: Fig. 11a and 11b, then the extension studies.
var KVSArtifacts = Registry{
	{Name: "fig11a", InAll: true, Print: fig11(Fig11aTable)},
	{Name: "fig11b", InAll: true, Print: fig11(Fig11bTable)},
	{Name: "etc", Print: table(kvsOptions, ETCStudy)},
	{Name: "cluster", Print: table(kvsOptions, ClusterStudy)},
	{Name: "fleet", Print: func(inv *Invocation, p Printer) error {
		res, err := FleetStudyResult(inv.Fleet)
		if err == nil {
			p.Emit(FleetTable(inv.Fleet, res))
		}
		return err
	}},
	{Name: "overload", Print: func(inv *Invocation, p Printer) error {
		res, err := OverloadStudyResult(inv.Overload)
		if err == nil {
			p.Emit(OverloadTable(inv.Overload, res))
		}
		return err
	}},
	{Name: "fault-sweep", Print: table(kvsOptions, FaultSweep)},
}

func microOptions(inv *Invocation) Options { return inv.Options }

func kvsOptions(inv *Invocation) KVSOptions { return inv.KVS }

// table prints the table study renders under the options opts picks.
func table[O any](opts func(*Invocation) O, study func(O) (*report.Table, error)) func(*Invocation, Printer) error {
	return func(inv *Invocation, p Printer) error {
		t, err := study(opts(inv))
		if err == nil {
			p.Emit(t)
		}
		return err
	}
}

// fig11 prints one of the two tables Fig. 11's sweep renders.
func fig11(render func(Fig11Result) *report.Table) func(*Invocation, Printer) error {
	return func(inv *Invocation, p Printer) error {
		res, err := once(&inv.fig11, func() (Fig11Result, error) { return Fig11StudyResult(inv.KVS) })
		if err == nil {
			p.Emit(render(res))
		}
		return err
	}
}
