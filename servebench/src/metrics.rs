//! The metric catalogue: every name the benchmark reports, its unit, and
//! for per-layer metrics the end-to-end metric it should move.

/// End-to-end metrics, `(name, unit)`, reported by every untraced run. Only
/// medians, and no disturb latency: on a shared two-core host the tails' and
/// the disturb medians' run-to-run spread exceeded the largest usable
/// regression bound (0.25), so they are reported per layer (`load.*`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("server_rss_mb", "MiB"),
    ("warm_rps", "1/s"),
    ("warm_p50_us", "us"),
    ("cold_gcn_p50_ms", "ms"),
    ("cold_appnp_p50_ms", "ms"),
    ("read_p50_us", "us"),
];

/// Per-layer metrics, `(name, unit, end-to-end metric it should move)`,
/// reported by every traced run.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("server.self_us", "us", "warm_p50_us"),
    ("server.admission_wait_us", "us", "warm_p50_us"),
    ("server.batch_occupancy", "count", "warm_rps"),
    ("server.cold_overhead_ms", "ms", "cold_gcn_p50_ms"),
    ("server.disturb_overhead_ms", "ms", "read_p50_us"),
    ("wire.decode_ns", "ns", "warm_p50_us"),
    ("wire.encode_ns", "ns", "warm_p50_us"),
    ("wire.response_bytes", "bytes", "warm_rps"),
    ("engine.warm_lookup_ns", "ns", "warm_p50_us"),
    ("engine.warm_hits", "count", "warm_rps"),
    ("engine.sessions_run", "count", "cold_gcn_p50_ms"),
    ("engine.disturb_ms", "ms", "read_p50_us"),
    ("engine.repairs_skipped", "count", "read_p50_us"),
    ("engine.repairs_reverified", "count", "read_p50_us"),
    ("engine.repairs_searched", "count", "read_p50_us"),
    ("engine.repairs_regenerated", "count", "read_p50_us"),
    ("engine.stored", "count", "server_rss_mb"),
    ("session.gcn_ms", "ms", "cold_gcn_p50_ms"),
    ("session.appnp_ms", "ms", "cold_appnp_p50_ms"),
    ("session.inference_calls", "count", "cold_gcn_p50_ms"),
    ("session.disturbances_verified", "count", "cold_gcn_p50_ms"),
    ("session.expand_rounds", "count", "cold_appnp_p50_ms"),
    ("parallel.rounds", "count", "cold_appnp_p50_ms"),
    ("parallel.bytes_synchronized", "bytes", "cold_appnp_p50_ms"),
    ("verify.gcn_ms", "ms", "cold_gcn_p50_ms"),
    ("verify.appnp_ms", "ms", "cold_appnp_p50_ms"),
    ("verify.disturbances_checked", "count", "read_p50_us"),
    ("candidates.pool_ms", "ms", "cold_gcn_p50_ms"),
    ("candidates.pool_size", "count", "cold_gcn_p50_ms"),
    ("candidates.pruned_share", "share", "cold_appnp_p50_ms"),
    ("pagerank.ppr_row_us", "us", "read_p50_us"),
    ("gnn.predict_us", "us", "cold_gcn_p50_ms"),
    ("gnn.margin_us_per_candidate", "us", "cold_appnp_p50_ms"),
    ("graph.ball_build_us", "us", "cold_gcn_p50_ms"),
    ("graph.flip_us", "us", "read_p50_us"),
    ("graph.footprint_nodes", "count", "read_p50_us"),
    ("graph.partition_ms", "ms", "setup_s"),
    ("graph.partition_refresh_ms", "ms", "read_p50_us"),
    ("load.disturb_late_ms", "ms", "read_p50_us"),
    ("load.disturb_gcn_p50_ms", "ms", "read_p50_us"),
    ("load.disturb_appnp_p50_ms", "ms", "read_p50_us"),
    ("load.warm_p99_us", "us", "warm_rps"),
    ("load.read_p99_us", "us", "read_p50_us"),
    ("load.cold_gcn_p90_ms", "ms", "cold_gcn_p50_ms"),
    ("load.cold_appnp_p90_ms", "ms", "cold_appnp_p50_ms"),
    ("trace.overhead_share", "share", "warm_p50_us"),
];
