package core

import (
	"sensjoin/internal/netsim"
	"sensjoin/internal/trace"
)

// arm switches on what one execution's options ask of the network:
// reliable transport, the loss model, the journal (Audited alone
// journals into the runner's own recorder) and the churn injector's
// wiring — its journal hook into the execution's recorder and its
// sensjoin_churn_* instruments on the runner's registry, each only when
// the runner has one. disarm switches exactly that off again.
// This file is the only code outside package netsim that sets loss or a
// radio tracer (scripts/check.sh greps for others).
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
	if ch := o.churn; ch != nil {
		if r.reg != nil {
			ch.SetMetrics(netsim.NewChurnMetrics(r.reg))
		}
		if r.rec != nil {
			ch.OnEvent = r.journalChurn
		}
	}
}

func (r *Runner) disarm(o *runOptions) {
	if o.reliable {
		r.Net.DisableReliable()
	}
	if o.lossRate > 0 {
		r.Net.SetLossRate(0, 0)
	}
	if ch := o.churn; ch != nil {
		if r.reg != nil {
			ch.SetMetrics(netsim.ChurnMetrics{})
		}
		if r.rec != nil {
			ch.OnEvent = nil
		}
	}
	if r.rec != nil {
		r.rec = nil
		journal(r.Net, nil)
	}
}

// journal sends net's radio events to rec; nil sends them nowhere.
func journal(net *netsim.Network, rec *trace.Recorder) { net.SetTracer(rec.Radio()) }

// journalChurn records one churn tick's action in the execution's
// recorder.
func (r *Runner) journalChurn(ev netsim.ChurnEvent) {
	k := trace.KindChurnMove
	switch ev.Kind {
	case netsim.ChurnDeath:
		k = trace.KindChurnDeath
	case netsim.ChurnRejoin:
		k = trace.KindChurnRejoin
	}
	r.rec.Span(ev.At, k, ev.Node, -1, "", ev.Arg)
}
