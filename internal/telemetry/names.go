package telemetry

// Canonical metric names reported by the closed loop. Every layer uses
// these constants so the in-process Loop and the distributed TCP
// deployment export an identical schema (documented in README.md
// §Observability).
const (
	// Workload / storage layer — labeled {device="..."}.
	MetricAccessLatency    = "geomancy_access_latency_seconds"
	MetricAccessThroughput = "geomancy_access_throughput_bytes_per_second"
	MetricAccessesTotal    = "geomancy_accesses_total"
	MetricAccessBytesTotal = "geomancy_access_bytes_total"

	// Decision loop (core.Loop).
	MetricMovementsTotal   = "geomancy_movements_total"
	MetricMovedBytesTotal  = "geomancy_moved_bytes_total"
	MetricDeferralsTotal   = "geomancy_move_deferrals_total"
	MetricExplorationTotal = "geomancy_exploration_moves_total"

	// DRL engine (core.Engine).
	MetricTrainingsTotal        = "geomancy_trainings_total"
	MetricTrainingDuration      = "geomancy_training_duration_seconds"
	MetricTrainingLoss          = "geomancy_training_loss"
	MetricTrainingSamples       = "geomancy_training_samples"
	MetricTrainingEpochs        = "geomancy_training_epochs"
	MetricTrainingErrorsTotal   = "geomancy_training_errors_total"
	MetricTrainingDurationHist  = "geomancy_training_duration_seconds_hist"
	MetricTrainingValidationMAE = "geomancy_training_validation_mare"
	MetricInferenceBatchSize    = "geomancy_inference_batch_size"
	MetricInferenceDuration     = "geomancy_inference_duration_seconds"

	// Sharded coordinator (core.Sharded) — labeled {shard="..."}.
	MetricShardDecisions   = "geomancy_shard_decisions_total"
	MetricShardEscalations = "geomancy_shard_escalations_total"
	MetricShardMigrations  = "geomancy_shard_migrations_total"

	// Interface Daemon (agents) — RPC histogram labeled {type="..."}.
	MetricDaemonConnectionsTotal = "geomancy_daemon_connections_total"
	MetricDaemonConnectionsOpen  = "geomancy_daemon_connections_open"
	MetricDaemonRPCSeconds       = "geomancy_daemon_rpc_seconds"
	MetricDaemonErrorsTotal      = "geomancy_daemon_errors_total"
	MetricDaemonLayoutPushes     = "geomancy_daemon_layout_pushes_total"
	MetricDaemonReportsTotal     = "geomancy_daemon_reports_total"
	MetricDaemonDuplicateBatches = "geomancy_daemon_duplicate_batches_total"

	// Agent-side fault tolerance (monitors, query client, control agents)
	// — retries/reconnects labeled {agent="..."}.
	MetricAgentRetriesTotal    = "geomancy_agents_retries_total"
	MetricAgentReconnectsTotal = "geomancy_agents_reconnects_total"
	MetricAgentDegradedTotal   = "geomancy_agents_degraded_decisions_total"
	MetricAgentAckSeconds      = "geomancy_agents_ack_latency_seconds"

	// ReplayDB.
	MetricReplayAccessInserts   = "geomancy_replaydb_access_inserts_total"
	MetricReplayMovementInserts = "geomancy_replaydb_movement_inserts_total"
	MetricReplayQueriesTotal    = "geomancy_replaydb_queries_total"
)

// RegisterHelp installs the HELP text of every canonical metric that has
// been created in r. Call after wiring (creation order does not matter;
// names without series are skipped).
func RegisterHelp(r *Registry) {
	if r == nil {
		return
	}
	for name, help := range map[string]string{
		MetricAccessLatency:          "Per-access open-to-close latency by storage device.",
		MetricAccessThroughput:       "Per-access throughput by storage device.",
		MetricAccessesTotal:          "Accesses observed per storage device.",
		MetricAccessBytesTotal:       "Bytes read+written per storage device.",
		MetricMovementsTotal:         "Files moved by layout applications.",
		MetricMovedBytesTotal:        "Bytes transferred by layout applications.",
		MetricDeferralsTotal:         "Moves postponed by the gap-aware scheduler.",
		MetricExplorationTotal:       "Applied moves chosen by random exploration.",
		MetricTrainingsTotal:         "Completed engine training cycles.",
		MetricTrainingDuration:       "Wall time of the most recent training cycle.",
		MetricTrainingLoss:           "Final training loss of the most recent cycle.",
		MetricTrainingSamples:        "Sample count of the most recent training cycle.",
		MetricTrainingEpochs:         "Epochs the most recent training cycle trained (a warm full fit trains a share, in proportion to the records taken since the last one).",
		MetricTrainingErrorsTotal:    "Training cycles that failed.",
		MetricTrainingDurationHist:   "Distribution of training-cycle wall times.",
		MetricTrainingValidationMAE:  "Validation mean absolute relative error of the most recent cycle.",
		MetricInferenceBatchSize:     "Distribution of candidate rows scored per decision (per cycle across all shards).",
		MetricInferenceDuration:      "Wall time of the most recent decision's scoring stage: feature gather, forward pass, score writeback and greedy picks.",
		MetricShardDecisions:         "Files decided per placement shard.",
		MetricShardEscalations:       "Shard decisions escalated to the global digest check.",
		MetricShardMigrations:        "Committed cross-shard migrations into each shard.",
		MetricDaemonConnectionsTotal: "TCP connections accepted by the Interface Daemon.",
		MetricDaemonConnectionsOpen:  "TCP connections currently open on the Interface Daemon.",
		MetricDaemonRPCSeconds:       "Interface Daemon request handling time by message type.",
		MetricDaemonErrorsTotal:      "Interface Daemon protocol/storage errors.",
		MetricDaemonLayoutPushes:     "Layouts pushed to control agents.",
		MetricDaemonReportsTotal:     "Telemetry reports ingested by the Interface Daemon.",
		MetricDaemonDuplicateBatches: "Retried telemetry batches deduplicated by (From, ID).",
		MetricAgentRetriesTotal:      "Agent RPC attempts retried after transport errors.",
		MetricAgentReconnectsTotal:   "Agent connections re-established after loss.",
		MetricAgentDegradedTotal:     "Decision cycles skipped because agents were unreachable.",
		MetricAgentAckSeconds:        "Round-trip latency of acknowledged agent RPCs.",
		MetricReplayAccessInserts:    "Access records appended to the ReplayDB.",
		MetricReplayMovementInserts:  "Movement records appended to the ReplayDB.",
		MetricReplayQueriesTotal:     "Read queries served by the ReplayDB.",
	} {
		r.Help(name, help)
	}
}
