package refine

import "dscts/internal/eval"

// UseFullPasses makes Refine judge every trial and refresh every ranking
// with the WhatIf full pass until the returned function restores the
// incremental trial.
func UseFullPasses() (restore func()) {
	t, s := trial, sinkDelays
	trial = func(w *eval.WhatIf, slot int32, sc *eval.WhatIfScratch) (float64, float64) {
		return w.Eval(slot, sc, nil)
	}
	sinkDelays = func(w *eval.WhatIf, dst []float64) {
		sc := w.NewScratch()
		w.Eval(-1, sc, dst)
		w.PutScratch(sc)
	}
	return func() { trial, sinkDelays = t, s }
}
