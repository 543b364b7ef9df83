package oracle

import (
	"slices"
	"testing"
)

// shrinkBudget caps how many candidate sequences one shrink runs.
const shrinkBudget = 300

// shrink returns a smaller sequence that still fails: it drops whole
// steps while the sequence keeps failing, then the rows of each step
// (all at once, then one at a time), and repeats until a pass changes
// nothing or the budget is spent.
func shrink(seq []step, fails func([]step) bool) []step {
	budget := shrinkBudget
	try := func(q []step) bool {
		if budget == 0 {
			return false
		}
		budget--
		return fails(q)
	}
	withRows := func(q []step, i int, keep func(j int) bool) []step {
		q = slices.Clone(q)
		s := q[i]
		s.rows, s.cut = nil, 0
		for j, f := range q[i].rows {
			if keep(j) {
				if j < q[i].cut {
					s.cut++
				}
				s.rows = append(s.rows, f)
			}
		}
		q[i] = s
		return q
	}
	for changed := true; changed; {
		changed = false
		for i := len(seq) - 1; i >= 0; i-- {
			if q := slices.Delete(slices.Clone(seq), i, i+1); try(q) {
				seq, changed = q, true
			}
		}
		for i := range seq {
			if len(seq[i].rows) == 0 {
				continue
			}
			if q := withRows(seq, i, func(int) bool { return false }); try(q) {
				seq, changed = q, true
				continue
			}
			for j := len(seq[i].rows) - 1; j >= 0; j-- {
				if q := withRows(seq, i, func(k int) bool { return k != j }); try(q) {
					seq, changed = q, true
				}
			}
		}
	}
	return seq
}

// TestShrinkFindsTwoStepMinimum: under a predicate that fails iff a
// kill step is later followed by a read, a generated sequence with such
// a pair shrinks to exactly that pair, with no rows left.
func TestShrinkFindsTwoStepMinimum(t *testing.T) {
	_, seq := generate(7)
	seq = append(seq[:4:4], append([]step{{kind: kill, rows: seq[0].rows, cut: 0}}, seq[4:]...)...)
	seq = append(seq, step{kind: snapshot})
	isRead := func(k kind) bool { return k == quick || k == snapshot }
	fails := func(q []step) bool {
		for i, s := range q {
			if s.kind == kill && slices.ContainsFunc(q[i+1:], func(r step) bool { return isRead(r.kind) }) {
				return true
			}
		}
		return false
	}
	if !fails(seq) {
		t.Fatal("the test sequence does not fail the predicate")
	}
	got := shrink(seq, fails)
	if len(got) != 2 || got[0].kind != kill || !isRead(got[1].kind) {
		t.Fatalf("shrunk to %d steps, want [kill, read]:\n%s", len(got), format(got))
	}
	if len(got[0].rows)+len(got[1].rows) != 0 {
		t.Fatalf("shrunk sequence keeps rows:\n%s", format(got))
	}
}
