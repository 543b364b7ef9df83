package engine

// Reconciles returns how many global-sketch rebuilds have run. Only
// readers rebuild it (Basis, GlobalSketch, Certificate, and through the
// last one the audit tick of a multi-shard engine); ingest never does.
func (e *Engine) Reconciles() int {
	e.globalMu.Lock()
	defer e.globalMu.Unlock()
	return e.reconciles
}
