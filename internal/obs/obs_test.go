package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryRenderingSorted(t *testing.T) {
	r := NewRegistry()
	// Create series in deliberately unsorted order.
	r.Gauge("zz_last").Set(1.5)
	r.Counter("aa_first", Label{Key: "b", Value: "2"}, Label{Key: "a", Value: "1"}).Add(7)
	r.Counter("aa_first", Label{Key: "a", Value: "0"}).Inc()
	h := r.Histogram("mid_hist", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"counter aa_first{a=0} 1",
		"counter aa_first{a=1,b=2} 7",
		"histogram mid_hist le1=1 le10=1 le+Inf=1 count=3 sum=105.5",
		"gauge zz_last 1.5",
	}, "\n") + "\n"
	if buf.String() != want {
		t.Errorf("WriteText:\n got: %q\nwant: %q", buf.String(), want)
	}

	var csv bytes.Buffer
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	wantCSV := strings.Join([]string{
		"type,name,labels,field,value",
		"counter,aa_first,a=0,,1",
		"counter,aa_first,a=1;b=2,,7",
		"histogram,mid_hist,,le1,1",
		"histogram,mid_hist,,le10,1",
		"histogram,mid_hist,,le+Inf,1",
		"histogram,mid_hist,,count,3",
		"histogram,mid_hist,,sum,105.5",
		"gauge,zz_last,,,1.5",
	}, "\n") + "\n"
	if csv.String() != wantCSV {
		t.Errorf("WriteCSV:\n got: %q\nwant: %q", csv.String(), wantCSV)
	}
}

func TestRegistryGetOrCreateReuses(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c", Label{Key: "k", Value: "v"})
	b := r.Counter("c", Label{Key: "k", Value: "v"})
	if a != b {
		t.Fatal("same name+labels should return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("shared counter value = %d, want 1", b.Value())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("x")
}

func TestGaugeMax(t *testing.T) {
	var g Gauge
	g.Max(3)
	g.Max(1)
	if got := g.Value(); got != 3 {
		t.Fatalf("Max: got %v, want 3", got)
	}
	g.Max(5)
	if got := g.Value(); got != 5 {
		t.Fatalf("Max: got %v, want 5", got)
	}
}

func TestHistogramBucketBoundsInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{10})
	h.Observe(10) // exactly on the bound: counts in le10
	if got := h.buckets[0].Load(); got != 1 {
		t.Fatalf("boundary observation landed in bucket +Inf, want le10")
	}
}

func TestTracerDeterministicJSON(t *testing.T) {
	render := func(order []int) string {
		tr := NewTracer()
		// Track creation order varies; rendering must not care.
		for _, i := range order {
			switch i {
			case 0:
				tr.Span("b-track", "work", 10, 5, map[string]interface{}{"n": 1})
			case 1:
				tr.Instant("a-track", "tick", 3, nil)
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := render([]int{0, 1})
	b := render([]int{1, 0})
	if a != b {
		t.Errorf("trace JSON depends on track creation order:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{
		`"ph":"X"`, `"dur":5`, `"ph":"i"`, `"s":"t"`,
		`"name":"a-track"`, `"name":"b-track"`, `"process_name"`,
	} {
		if !strings.Contains(a, want) {
			t.Errorf("trace JSON missing %s:\n%s", want, a)
		}
	}
}

func TestNilCollectorIsOff(t *testing.T) {
	var c *Collector
	if c.Scope("k", "v") != nil {
		t.Fatal("Scope on nil collector should return nil")
	}
	if c.EngineProbe() != nil || c.CacheProbe() != nil || c.NetProbe() != nil ||
		c.ServerProbe() != nil || c.FaultProbe() != nil || c.ClientProbe() != nil {
		t.Fatal("probes from a nil collector must be nil interfaces")
	}
	// Span/Instant on nil must be no-ops, not panics.
	c.Span("x", 0, 1, nil)
	c.Instant("x", 0, nil)
}

func TestScopeLabelsAndTracks(t *testing.T) {
	c := NewCollector()
	s := c.Scope("config", "fig9 a").Scope("variant", "Vertical")
	s.Counter("ops").Inc()
	s.Span("measure", 0, 100, nil)

	var buf bytes.Buffer
	if err := c.Registry.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "counter ops{config=fig9 a,variant=Vertical} 1\n"; buf.String() != want {
		t.Errorf("scoped series: got %q, want %q", buf.String(), want)
	}
	var tb bytes.Buffer
	if err := c.Tracer.WriteJSON(&tb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.String(), `"name":"fig9 a/Vertical"`) {
		t.Errorf("scoped track missing from trace:\n%s", tb.String())
	}
}

func TestProbesRecord(t *testing.T) {
	c := NewCollector().Scope("config", "t")
	ep := c.EngineProbe()
	ep.GatherCharged(8, 3)
	ep.WidthLicensed(512, 10)

	cp := c.CacheProbe()
	cp.LevelAccess("L1D", true)
	cp.LevelAccess("L1D", false)
	cp.Eviction("L1D")

	np := c.NetProbe()
	np.MessageSent("client", "server", 100, 2, 0.1, 0.2)

	svp := c.ServerProbe()
	svp.Batch(0, 1.0, 1e-6, 2e-6, 1e-6, 16, 15)

	c.FaultProbe().CrashDropped(0.3)
	clp := c.ClientProbe()
	clp.TimeoutFired(1, 0.4)
	clp.RetryScheduled(1, 1e-6, 0.4)

	var buf bytes.Buffer
	if err := c.Registry.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"counter engine_gathers_total{config=t} 1",
		"gauge engine_license_width_bits{config=t} 512",
		"counter cache_accesses_total{config=t,level=L1D,result=hit} 1",
		"counter cache_accesses_total{config=t,level=L1D,result=miss} 1",
		"counter cache_evictions_total{config=t,level=L1D} 1",
		"counter net_messages_total{config=t} 1",
		"histogram server_batch_us{config=t} le1=0 le2=0 le5=1 ",
		"counter client_timeouts_total{config=t} 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\nfull output:\n%s", want, out)
		}
	}
	// The engine's op and cycle counts, the fault counts and the retry
	// count are the model's, published at end of run: no probe registers
	// them.
	for _, gone := range []string{"engine_op", "engine_mem_cycles", "engine_fixed_cycles", "fault_", "client_retries_total"} {
		if strings.Contains(out, gone) {
			t.Errorf("a probe registered a %s series:\n%s", gone, out)
		}
	}

	var tb bytes.Buffer
	if err := c.Tracer.WriteJSON(&tb); err != nil {
		t.Fatal(err)
	}
	tout := tb.String()
	for _, want := range []string{
		`"name":"t/worker-00"`, `"name":"mget"`, `"name":"pre"`,
		`"name":"lookup"`, `"name":"post"`, `"name":"send client-\u003eserver"`,
		`"name":"license"`, `"name":"crash-drop"`, `"name":"retry"`,
	} {
		if !strings.Contains(tout, want) {
			t.Errorf("trace output missing %q\nfull output:\n%s", want, tout)
		}
	}
}
