package engine

// Reconciles returns how many shard merges have run. Only readers merge
// (Basis, GlobalSketch, Certificate, and through the last one the audit
// tick of a multi-shard engine); ingest never does. GlobalSketch always
// merges, the other readers only when a frame has arrived since the
// cached read was cut.
func (e *Engine) Reconciles() int {
	e.globalMu.Lock()
	defer e.globalMu.Unlock()
	return e.reconciles
}
