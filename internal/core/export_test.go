package core

import (
	"exactdep/internal/dtest"
	"exactdep/internal/memo"
)

// FillMemo inserts n synthetic entries into a's full table, stamped as
// loaded ones are, so a benchmark can price a call against a large warm
// table without solving n problems. Every key opens with -1, which no real
// key does (a real key opens with its variable count), so no candidate
// hits one.
func FillMemo(a *Analyzer, n int) {
	slab := make([]int64, 2*n)
	v := cached{res: verdict{Outcome: uint8(dtest.Independent), Exact: true, DecidedBy: uint8(ByTest)}}
	for i := 0; i < n; i++ {
		k := memo.Key(slab[2*i : 2*i+2 : 2*i+2])
		k[0], k[1] = -1, int64(i)
		a.full.Insert(k, v)
	}
}
