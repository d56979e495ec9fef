package eval_test

import (
	"fmt"
	"testing"

	"dscts/internal/bench"
	"dscts/internal/core"
	"dscts/internal/ctree"
	"dscts/internal/eval"
	"dscts/internal/tech"
)

// TestWhatIfTrialBitExact requires the incremental trial to equal the full
// pass bit for bit for every slot of refineryTree (unbuffered root: every
// trial falls back; buffered root: none does) and of the post-insertion
// C1..C5 trees (none falls back), at the base state and after each of
// three successive commits.
func TestWhatIfTrialBitExact(t *testing.T) {
	tc := tech.ASAP7()
	rootBuf := eval.RefineryTree()
	rootBuf.Nodes[0].BufferAtNode = true
	checkWithCommits(t, tc, "refinery", eval.RefineryTree(), 2)
	checkWithCommits(t, tc, "refinery-rootbuf", rootBuf, 0)
	for _, id := range []string{"C1", "C2", "C3", "C4", "C5"} {
		t.Run(id, func(t *testing.T) {
			if testing.Short() && id != "C4" && id != "C5" {
				t.Skip("large design skipped with -short")
			}
			checkWithCommits(t, tc, id, insertedTree(t, tc, id), 0)
		})
	}
}

// checkWithCommits runs eval.CheckTrials on tr at the base state and after committing
// the slots of the centroids a quarter, a half and three quarters of the
// way through preorder, pinning the base-state fallbacks.
func checkWithCommits(t *testing.T, tc *tech.Tech, name string, tr *ctree.Tree, wantFallbacks int) {
	t.Helper()
	w := eval.NewWhatIf(tr, tc)
	w.Rebase()
	trials, fallbacks := eval.CheckTrials(t, w, name+" base")
	if trials == 0 {
		t.Fatalf("%s: no slots to try", name)
	}
	if fallbacks != wantFallbacks {
		t.Fatalf("%s: %d of %d trials fell back, want %d", name, fallbacks, trials, wantFallbacks)
	}
	cents := tr.Centroids()
	for k := 1; k <= 3; k++ {
		slot := w.SlotOf(cents[k*len(cents)/4])
		if slot < 0 {
			continue
		}
		w.Commit(slot)
		eval.CheckTrials(t, w, fmt.Sprintf("%s after commit %d", name, k))
	}
}

// insertedTree synthesizes design id (seed 1) up to buffer and nTSV
// insertion, leaving out refinement.
func insertedTree(t *testing.T, tc *tech.Tech, id string) *ctree.Tree {
	t.Helper()
	d, err := bench.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	p, err := bench.Generate(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.Synthesize(p.Root, p.Sinks, tc, core.Options{SkipRefine: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return out.Tree
}
