package stream

import (
	"fmt"
	"io"
)

// Write renders the summary as the CLIs print it: a counters line and a
// per-stage latency table.
func (s Summary) Write(w io.Writer) {
	fmt.Fprintf(w, "stream: %d events (%d late, %d duplicate) over %d sealed slots — %d verdicts, %d disguised\n",
		s.Events, s.Late, s.Duplicates, s.SlotsSealed, s.Verdicts, s.Disguised)
	fmt.Fprintf(w, "  latency      %12s %12s\n", "p50", "p99")
	fmt.Fprintf(w, "  ingest→seal  %12s %12s\n", s.IngestToSealP50, s.IngestToSealP99)
	fmt.Fprintf(w, "  seal→verdict %12s %12s\n", s.SealToVerdictP50, s.SealToVerdictP99)
	fmt.Fprintf(w, "  end-to-end   %12s %12s\n", s.DetectP50, s.DetectP99)
}
