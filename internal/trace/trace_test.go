package trace

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("x", 1.5)
	tb.AddRow("longer-name", 22)
	out := tb.String()
	if !strings.Contains(out, "## demo") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	// Header and rows start aligned at the same column for field 2.
	if !strings.Contains(lines[3], "1.500") {
		t.Errorf("float formatting: %q", lines[3])
	}
	if len(tb.rows) != 2 {
		t.Error("row count")
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow(1)
	if strings.HasPrefix(tb.String(), "##") {
		t.Error("unexpected title")
	}
}
