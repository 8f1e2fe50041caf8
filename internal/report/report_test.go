package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("T", "A", "Longer")
	tb.AddRow("x", 1)
	tb.AddRow("yyyy", 22)
	var buf bytes.Buffer
	tb.Fprint(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if lines[0] != "T" {
		t.Errorf("title line = %q", lines[0])
	}
	// Header, separator and two rows must all have equal width.
	w := len(lines[1])
	for _, l := range lines[2:] {
		if len(l) != w {
			t.Errorf("misaligned line %q (%d vs %d)", l, len(l), w)
		}
	}
	if !strings.Contains(lines[1], "A") || !strings.Contains(lines[1], "Longer") {
		t.Errorf("header = %q", lines[1])
	}
}

func TestTableRowsCount(t *testing.T) {
	tb := NewTable("", "A")
	if len(tb.rows) != 0 {
		t.Error("fresh table has rows")
	}
	tb.AddRow("x")
	if len(tb.rows) != 1 {
		t.Error("row not counted")
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.AddRow("plain", `has,comma`)
	tb.AddRow(`has"quote`, "x")
	var buf bytes.Buffer
	tb.CSV(&buf)
	out := buf.String()
	if !strings.Contains(out, `"has,comma"`) {
		t.Errorf("comma cell not quoted: %s", out)
	}
	if !strings.Contains(out, `"has""quote"`) {
		t.Errorf("quote cell not escaped: %s", out)
	}
	if !strings.HasPrefix(out, "A,B\n") {
		t.Errorf("missing header row: %s", out)
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := NewTable("", "V")
	tb.AddRow(0.0)
	tb.AddRow(3.14159)
	tb.AddRow(42.5)
	tb.AddRow(12345.6)
	var buf bytes.Buffer
	tb.CSV(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := []string{"V", "0", "3.142", "42.5", "12346"}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("line %d = %q, want %q", i, lines[i], w)
		}
	}
}

func TestBar(t *testing.T) {
	if Bar(0.5, 1.0, 10) != "#####" {
		t.Errorf("half bar = %q", Bar(0.5, 1.0, 10))
	}
	if Bar(2.0, 1.0, 10) != "##########" {
		t.Error("bar must clamp at width")
	}
	if Bar(0, 1, 10) != "" || Bar(1, 0, 10) != "" {
		t.Error("degenerate bars must be empty")
	}
}

func TestGridRendering(t *testing.T) {
	g := NewGrid("G", "m", "N=2", "N=3")
	g.Set("1", "N=2", "a")
	g.Set("1", "N=3", "b")
	g.Set("4", "N=2", "c")
	var buf bytes.Buffer
	g.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"G", "N=2", "N=3", "a", "b", "c", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("grid missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	w := len(lines[1])
	for _, l := range lines[1:] {
		if len(l) != w {
			t.Errorf("misaligned grid line %q", l)
		}
	}
}
