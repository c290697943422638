package firmup_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"firmup"
	"firmup/internal/corpus"
	"firmup/internal/telemetry"
	"firmup/internal/uir"
)

// TestTraceEquivalence is the tracing soundness test: a request-scoped
// trace must be pure observation. The sealed one-shard corpus and a sharded
// mmap-backed corpus must answer byte-identically with and without a
// live trace attached, across option variants, and the traced runs must
// actually record spans (so the equivalence is not vacuous). The traced side
// runs under a registry too: one span feeds both, so every name in a
// tree must have a stage with at least one call.
func TestTraceEquivalence(t *testing.T) {
	s := buildSealed(t, corpus.DefaultScale())
	cve := corpus.CVEByID("CVE-2014-4877")
	qb := queryBytesFor(t, cve, uir.ArchMIPS32)

	dir := t.TempDir()
	if _, err := s.WriteShards(dir, 3); err != nil {
		t.Fatal(err)
	}
	sharded, err := firmup.OpenSealedCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	variants := []firmup.Options{{}, {MinScore: 3, MinRatio: 0.2}, {Exhaustive: true}}
	reg := telemetry.New()
	spanNames := func(tr *telemetry.Trace) map[string]int {
		names := make(map[string]int)
		for _, sp := range tr.Snapshot().Spans {
			names[sp.Name]++
		}
		stages := reg.Snapshot().Stages
		for name := range names {
			if stages[name].Calls < 1 {
				t.Errorf("span %q is in the tree but its stage has %d calls", name, stages[name].Calls)
			}
		}
		return names
	}

	// Sealed corpora: the one-shard corpus and the sharded store, over the
	// corpus-wide single and batched paths. The comparison is on the
	// JSON encoding, pinning byte-identical findings.
	for ci, sc := range []*firmup.SealedCorpus{s, sharded} {
		q, err := sc.AnalyzeQuery(qb, nil)
		if err != nil {
			t.Fatal(err)
		}
		for vi := range variants {
			base := variants[vi]
			wantAll, err := sc.SearchAll(q, cve.Procedure, &base)
			if err != nil {
				t.Fatal(err)
			}
			wantBatch, err := sc.SearchAllBatch([]firmup.BatchQuery{{Query: q, Procedure: cve.Procedure}}, &base)
			if err != nil {
				t.Fatal(err)
			}

			tr := telemetry.NewTrace(telemetry.NewTraceID())
			traced := variants[vi]
			root := telemetry.Root(reg, tr).Start("serve.request")
			traced.Span = root
			gotAll, err := sc.SearchAll(q, cve.Procedure, &traced)
			if err != nil {
				t.Fatal(err)
			}
			gotBatch, err := sc.SearchAllBatch([]firmup.BatchQuery{{Query: q, Procedure: cve.Procedure}}, &traced)
			if err != nil {
				t.Fatal(err)
			}
			root.End()

			wantBlob, err := json.Marshal(wantAll)
			if err != nil {
				t.Fatal(err)
			}
			gotBlob, err := json.Marshal(gotAll)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotBlob) != string(wantBlob) {
				t.Errorf("corpus %d variant %d: traced SearchAll not byte-identical to untraced", ci, vi)
			}
			if !reflect.DeepEqual(gotBatch, wantBatch) {
				t.Errorf("corpus %d variant %d: traced SearchAllBatch diverges from untraced", ci, vi)
			}

			names := spanNames(tr)
			if names["core.search"] == 0 && names["core.search_batch"] == 0 {
				t.Errorf("corpus %d variant %d: trace recorded no search spans: %v", ci, vi, names)
			}
			if names["core.search"]+names["core.search_batch"] != 2 {
				t.Errorf("corpus %d variant %d: two searches recorded %v, want one pass each", ci, vi, names)
			}
			tr.Finish()
			tr.Free()
		}
	}
}
