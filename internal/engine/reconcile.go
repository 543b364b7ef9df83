package engine

// Reconciles returns how many shard merges have run. Only the basis
// readers (Basis, ReadWindow) and GlobalSketch merge; ingest, Certificate
// and the audit tick never do. GlobalSketch always merges, the basis
// readers only when a frame has arrived since the cached basis was cut.
func (e *Engine) Reconciles() int {
	e.globalMu.Lock()
	defer e.globalMu.Unlock()
	return e.reconciles
}
