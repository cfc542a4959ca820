package experiments

import (
	"context"
	"time"

	"suss/internal/runner"
	"suss/internal/trace"
)

// downloadTrace runs j with a delivery trace on its flow, sampled at
// most once per every of virtual time (0 = every ACK, so volume
// checkpoints such as Fig. 13's "time to deliver N MB" are exact). A
// hook already in j.Impair still runs, after the trace is attached.
func downloadTrace(j runner.Job, every time.Duration) (runner.DownloadResult, *trace.FlowTrace) {
	var tr *trace.FlowTrace
	hook := j.Impair
	j.Impair = func(env runner.ChaosEnv) {
		tr = trace.Attach(env.Flow.Sender, every)
		if hook != nil {
			hook(env)
		}
	}
	return runner.Download(j), tr
}

// runTestbeds runs testbed cells on the worker pool under opt, each on
// its worker's warm Scratch, and returns their results in job order. A
// cell that panics panics here, as a direct run would.
func runTestbeds(opt runner.Options, jobs ...runner.TestbedJob) []runner.TestbedResult {
	outs := runner.Map(context.TODO(), jobs, func(ctx context.Context, _ int, j runner.TestbedJob) (runner.TestbedResult, error) {
		return runner.ScratchFrom(ctx).RunTestbed(j), nil
	}, opt)
	res := make([]runner.TestbedResult, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			panic(o.Err)
		}
		res[i] = o.Value
	}
	return res
}
