package fabric

import "arams/internal/sketch"

// ReplayLogCap and ReplayLog open a Remote's replay log to the package's
// external tests.
const ReplayLogCap = replayLogCap

// ReplayLog returns how many rows the replay log holds and the state
// they would be replayed onto (nil before the first state fetch).
func (r *Remote) ReplayLog() (rows int, baseline *sketch.ARAMSState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.log), r.lastState
}
