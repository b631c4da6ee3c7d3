package mem

import "repro/internal/nvm"

// untimed is the model of a zero-latency device behind buffers that
// never fill: every completion equals its issue cycle, nothing is mapped
// and nothing is scheduled — it holds no devices at all. What is left of
// the controller is the persistence domain and its traffic counters,
// which is what a serving path needs: batches stay atomic and ordered,
// and a posted write, complete the cycle it issues, is durable at once.
type untimed struct{}

func (untimed) read(_ Location, _, _ int, t Cycle) Cycle { return t }
func (untimed) post(_ Location, t Cycle) (Cycle, Cycle)  { return t, t }
func (untimed) enqueue(_ []batchEntry, t Cycle) Cycle    { return t }
func (untimed) powerFail()                               {}
func (untimed) deviceStats() nvm.Stats                   { return nvm.Stats{} }
