package engine

// Reconciles returns how many shard merges have run. Only the basis
// reader (ReadWindow) and GlobalSketch merge; ingest, Certificate and the
// audit tick never do. GlobalSketch always merges, ReadWindow only when a
// frame has arrived since the cached basis was cut, or when it asks for
// more rows than that cut holds.
func (e *Engine) Reconciles() int {
	e.globalMu.Lock()
	defer e.globalMu.Unlock()
	return e.reconciles
}
