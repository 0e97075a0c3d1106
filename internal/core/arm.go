package core

import (
	"sensjoin/internal/netsim"
	"sensjoin/internal/trace"
)

// arm switches on what one execution's options ask of the network:
// reliable transport, the loss model and the journal (Audited alone
// journals into the runner's own recorder). disarm switches exactly that
// off again. This file is the only code outside package netsim that sets
// loss or a radio tracer (scripts/check.sh greps for others).
func (r *Runner) arm(o *runOptions) {
	if o.reliable {
		r.Net.EnableReliable(o.reliableCfg)
	}
	if o.lossRate > 0 {
		r.Net.SetLossRate(o.lossRate, o.lossSeed)
	}
	if r.rec = o.rec; r.rec == nil && o.audit {
		if r.auditRec == nil {
			r.auditRec = trace.New()
		}
		r.rec = r.auditRec
	}
	if r.rec != nil {
		r.rec.SetConcurrent(r.Sim.Sharded()) // region workers emit spans in parallel
		journal(r.Net, r.rec)
	}
}

func (r *Runner) disarm(o *runOptions) {
	if o.reliable {
		r.Net.DisableReliable()
	}
	if o.lossRate > 0 {
		r.Net.SetLossRate(0, 0)
	}
	if r.rec != nil {
		r.rec = nil
		journal(r.Net, nil)
	}
}

// journal sends net's radio events to rec; nil sends them nowhere.
func journal(net *netsim.Network, rec *trace.Recorder) { net.SetTracer(rec.Radio()) }
