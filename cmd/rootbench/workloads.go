package main

// workload is one BENCHMARK.json workload as the harness runs it.
type workload struct {
	run func(params) (*result, error)
	// campaign marks the workload whose work happens in cmd/campaign child
	// processes: the parent builds that binary as part of set-up, CPU and
	// peak memory include the reaped children.
	campaign bool
}

var workloads = map[string]workload{
	"replay_nov30":  {run: workloadReplayNov30},
	"replay_ckpt":   {run: workloadReplayCkpt},
	"campaign_grid": {run: workloadCampaignGrid, campaign: true},
	"flood_hot":     {run: workloadFloodHot},
	"flood_spoofed": {run: workloadFloodSpoofed},
	"flood_socket":  {run: workloadFloodSocket},
	"probe_closed":  {run: workloadProbeClosed},
}
