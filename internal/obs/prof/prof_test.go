package prof

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestChildGetOrCreate(t *testing.T) {
	p := newProfiler([]string{"scope"}, "cycles")
	a := p.Child(Root, "hash")
	b := p.Child(Root, "probe")
	if a == Root || b == Root {
		t.Fatalf("children must not alias the root: %d %d", a, b)
	}
	if got := p.Child(Root, "hash"); got != a {
		t.Fatalf("Child(hash) not idempotent: %d != %d", got, a)
	}
	c := p.Child(a, "hash") // same name under a different parent is distinct
	if c == a {
		t.Fatalf("nested hash frame aliased its parent")
	}
	if got := p.Child(a, "hash"); got != c {
		t.Fatalf("nested Child not idempotent: %d != %d", got, c)
	}
}

func TestTotalMirrorsExactOrder(t *testing.T) {
	p := newProfiler(nil, "cycles")
	h := p.Child(Root, "x")
	var want float64
	vals := []float64{0.1, 0.2, 1e-9, 3.75, 0.1}
	for _, v := range vals {
		want += v
		p.AddSelf(h, v)
		p.AddTotal(v)
	}
	if p.Total() != want {
		t.Fatalf("Total %v != mirrored sum %v", p.Total(), want)
	}
	if diff := math.Abs(p.TreeSum() - p.Total()); diff > 1e-9 {
		t.Fatalf("TreeSum %v deviates from Total %v by %v", p.TreeSum(), p.Total(), diff)
	}
}

func TestFoldedFormat(t *testing.T) {
	s := NewSet()
	p := s.Profiler("cycles", "fig7a (64,64)", "ver/512")
	hash := p.Child(Root, "hash")
	probe := p.Child(Root, "probe")
	mem := p.Child(probe, "mem:L1")
	lic := p.Child(Root, "license")
	p.AddSelf(hash, 1.5)
	p.AddSelf(probe, 2)
	p.AddSelf(mem, 0.25)
	p.AddEvents(lic, 3) // events-only: must not appear in folded output
	p.AddTotal(3.75)

	var sb strings.Builder
	if err := s.WriteFolded(&sb); err != nil {
		t.Fatal(err)
	}
	want := "fig7a (64,64);ver/512;hash 1.5\n" +
		"fig7a (64,64);ver/512;probe 2\n" +
		"fig7a (64,64);ver/512;probe;mem:L1 0.25\n"
	if sb.String() != want {
		t.Fatalf("folded output:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestFoldedSanitizesFrames(t *testing.T) {
	s := NewSet()
	p := s.Profiler("us", "bad;label")
	p.AddSelf(p.Child(Root, "net;hop"), 1)
	var sb strings.Builder
	if err := s.WriteFolded(&sb); err != nil {
		t.Fatal(err)
	}
	if got, want := sb.String(), "bad:label;net:hop 1\n"; got != want {
		t.Fatalf("sanitized folded = %q, want %q", got, want)
	}
}

func TestFoldedValueNeverExponent(t *testing.T) {
	s := NewSet()
	p := s.Profiler("cycles", "s")
	p.AddSelf(p.Child(Root, "x"), 1.25e8)
	var sb strings.Builder
	if err := s.WriteFolded(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.ContainsAny(sb.String(), "eE") {
		t.Fatalf("folded value in exponent form: %q", sb.String())
	}
	if got, want := sb.String(), "s;x 125000000\n"; got != want {
		t.Fatalf("folded = %q, want %q", got, want)
	}
}

// TestSetRenderOrderDeterministic registers scopes from concurrent goroutines
// in scheduler order and checks the rendering is still sorted — the property
// that makes the account tree byte-identical at any -parallel count.
func TestSetRenderOrderDeterministic(t *testing.T) {
	render := func(par bool) string {
		s := NewSet()
		scopes := []string{"c", "a", "b", "d"}
		if par {
			var wg sync.WaitGroup
			for _, sc := range scopes {
				wg.Add(1)
				go func(sc string) {
					defer wg.Done()
					p := s.Profiler("cycles", sc)
					p.AddSelf(p.Child(Root, "work"), 1)
					p.AddTotal(1)
				}(sc)
			}
			wg.Wait()
		} else {
			for _, sc := range scopes {
				p := s.Profiler("cycles", sc)
				p.AddSelf(p.Child(Root, "work"), 1)
				p.AddTotal(1)
			}
		}
		var sb strings.Builder
		if err := s.WriteFolded(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	seq := render(false)
	for i := 0; i < 8; i++ {
		if got := render(true); got != seq {
			t.Fatalf("concurrent registration changed rendering:\n%s\nwant:\n%s", got, seq)
		}
	}
	if !strings.HasPrefix(seq, "a;work 1\n") {
		t.Fatalf("scopes not sorted: %q", seq)
	}
}

// TestDigestStableAndSensitive pins what a run manifest's account digest
// hashes: the folded rendering is byte-stable and value-sensitive.
func TestDigestStableAndSensitive(t *testing.T) {
	folded := func(v float64) string {
		s := NewSet()
		p := s.Profiler("cycles", "s")
		p.AddSelf(p.Child(Root, "x"), v)
		var b strings.Builder
		if err := s.WriteFolded(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b, c := folded(1), folded(1), folded(2)
	if a != b {
		t.Fatalf("folded account not stable: %q vs %q", a, b)
	}
	if a == c {
		t.Fatalf("folded account insensitive to values: %q", a)
	}
}

func TestNilSetIsFree(t *testing.T) {
	var s *Set
	if p := s.Profiler("cycles", "x"); p != nil {
		t.Fatalf("nil Set returned a profiler")
	}
	if !s.Empty() {
		t.Fatalf("nil Set not Empty")
	}
	var sb strings.Builder
	if err := s.WriteFolded(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil Set folded output %q err %v", sb.String(), err)
	}
	if err := s.WriteTable(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil Set table output %q err %v", sb.String(), err)
	}
}

func TestWriteTableSharesAndTotal(t *testing.T) {
	s := NewSet()
	p := s.Profiler("cycles", "scope")
	probe := p.Child(Root, "probe")
	mem := p.Child(probe, "mem:DRAM")
	p.AddSelf(probe, 3)
	p.AddSelf(mem, 1)
	p.AddTotal(4)
	var sb strings.Builder
	if err := s.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "== scope [cycles] total=4") {
		t.Fatalf("missing header: %q", out)
	}
	// probe cumulative = 3 (self) + 1 (child) = 4 → 100.0% of total.
	if !strings.Contains(out, "100.0%") {
		t.Fatalf("missing cumulative share: %q", out)
	}
	if !strings.Contains(out, "mem:DRAM") {
		t.Fatalf("missing child row: %q", out)
	}
}

func TestEmpty(t *testing.T) {
	s := NewSet()
	if !s.Empty() {
		t.Fatalf("fresh set not empty")
	}
	p := s.Profiler("cycles", "s")
	if !s.Empty() {
		t.Fatalf("profiler with no charges flipped Empty")
	}
	p.AddEvents(p.Child(Root, "license"), 1)
	if s.Empty() {
		t.Fatalf("events-only charge not detected by Empty")
	}
}
