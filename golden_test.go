// Absolute golden of the reproduction: Table I exactly as
// `dfmresyn -table1` prints it, pinned in testdata/table1.golden. The
// differential suites compare the system with itself (workers, resume,
// static screen on and off); this file pins what it reports. Regenerate
// after a deliberate change with
//
//	go test -run TestTableIGolden -update .
package dfmresyn

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfmresyn/internal/bench"
	"dfmresyn/internal/flow"
	"dfmresyn/internal/geom"
	"dfmresyn/internal/report"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// TestTableIGolden renders Table I through the same path as the CLI
// (default Env, auto floorplan, every Table I circuit) and compares it
// byte for byte with the committed golden. Table I has no timing column.
func TestTableIGolden(t *testing.T) {
	env := flow.NewEnv()
	var b strings.Builder
	b.WriteString("TABLE I. CLUSTERED UNDETECTABLE FAULTS\n")
	b.WriteString(report.TableIHeader() + "\n")
	for _, name := range bench.TableINames {
		d, err := env.Analyze(bench.MustBuild(name, env.Lib), geom.Rect{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b.WriteString(report.TableIRow(name, d.Metrics()) + "\n")
	}
	path := filepath.Join("testdata", "table1.golden")
	got := []byte(b.String())
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -run TestTableIGolden -update .): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Table I differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
