package obs

import (
	"strings"
	"testing"
)

func TestHeartbeatOffStates(t *testing.T) {
	if NewHeartbeat(0, &strings.Builder{}) != nil {
		t.Error("every=0 should return nil (off)")
	}
	if NewHeartbeat(-1, &strings.Builder{}) != nil {
		t.Error("negative every should return nil")
	}
	if NewHeartbeat(5, nil) != nil {
		t.Error("nil writer should return nil")
	}
	var h *Heartbeat
	h.Tick(1.0) // nil-safe
}

func TestHeartbeatPrintsEveryN(t *testing.T) {
	var b strings.Builder
	h := NewHeartbeat(3, &b)
	for i := 0; i < 7; i++ {
		h.Tick(float64(i))
	}
	if h.n != 7 {
		t.Fatalf("ticks = %d, want 7", h.n)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d heartbeat lines, want 2 (at ticks 3 and 6):\n%s", len(lines), b.String())
	}
	if !strings.Contains(lines[0], "ticks=3 virtual=2") {
		t.Errorf("first line = %q, want ticks=3 at virtual time 2", lines[0])
	}
	if !strings.Contains(lines[1], "ticks=6 virtual=5") {
		t.Errorf("second line = %q, want ticks=6 at virtual time 5", lines[1])
	}
}
