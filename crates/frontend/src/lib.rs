//! Coalescing HTTP/1.1 front-end for the jury-selection service.
//!
//! The serving library ([`jury_service`]) solves decision tasks at
//! millions per second *when handed batches*; real micro-blog traffic
//! arrives as independent single-task requests. This crate closes that
//! gap with an adaptive coalescing queue ([`Frontend`]) that merges
//! concurrent arrivals into `solve_batch_shared` windows, plus a
//! std-only HTTP layer (no async runtime — a dedicated acceptor thread
//! and a small worker pool over [`std::net`], matching the workspace's
//! offline vendored-shim approach).
//!
//! # Protocol
//!
//! JSON over HTTP/1.1 with keep-alive; `Content-Length` framing only.
//! Every response body is a [`jury_core::wire::Envelope`]:
//! `{"ok": true, "result": …}` or
//! `{"ok": false, "error": {"kind": …, "message": …}}` (plus
//! `retry_after_ms` on backpressure refusals, mirrored in the HTTP
//! `Retry-After` header).
//!
//! | Route | Body | Result |
//! |---|---|---|
//! | `POST /v1/solve` | `{"tenant": "…", "task": {"pool": N, "task": {"model": "altruism"}}}` | the [`Selection`](jury_core::problem::Selection) |
//! | `POST /v1/pools` | `{"jurors": [{"id": …, "error_rate": …, "cost": …}, …]}` | `{"pool": N}` |
//! | `GET /stats` | — | the [`StatsSnapshot`](client::StatsSnapshot): `{"service": ServiceStats, "frontend": FrontendStats, "artifact_entries": N}`, read under one service lock |
//! | `GET /healthz` | — | `{"role": "writer"\|"follower", "generation": N, "lag_ms": N, "draining": bool}` — 200 while the process serves at all |
//! | `GET /readyz` | — | same body; `503` while draining |
//!
//! PayM tasks use `{"model": "pay-as-you-go", "budget": b}` — the
//! adjacently-tagged [`jury_core::model::CrowdModel`] wire form.
//!
//! Error statuses: `400` malformed request (JSON or framing), `404`
//! unknown route or pool, `413` oversized body, `429` tenant queue full
//! (with `Retry-After`; refused at admission only, since an admitted
//! task is always solved), `503` shutting down — or, on a follower
//! front-end ([`FrontendConfig::follower_watch`]), a mutating route
//! refused with kind `not-leader` and the current writer's identity in
//! the message (solves keep flowing in both roles). Protocol failures
//! never kill the acceptor and never poison a coalescing window: the
//! worker answers (or abandons a half-read connection) and moves on.
//!
//! # Coalescing window semantics & backpressure
//!
//! Windows are keyed by `(tenant, pool)` and close on max-batch /
//! max-delay / idle-service (whichever first), solo arrivals on an idle
//! service solve inline on the handler thread, and per-tenant admission
//! control refuses work beyond [`FrontendConfig::queue_capacity`]
//! *before* it queues. Graceful [`shutdown`](Frontend::shutdown) stops
//! admitting, drains every queued window (each waiter still gets its
//! answer), then hands the wrapped
//! [`JuryService`](jury_service::JuryService) back.

pub mod client;
mod coalesce;
mod http;
mod proto;

pub use coalesce::{Frontend, FrontendConfig, FrontendStats, Role, SubmitError};
pub use http::HttpServer;

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{json, Deserialize};

    #[test]
    fn frontend_stats_round_trip() {
        let stats = FrontendStats {
            requests: 101,
            inline_solves: 7,
            coalesced_windows: 5,
            coalesced_tasks: 94,
            max_window_occupancy: 40,
            queue_rejections: 3,
            queue_depth_highwater: 61,
            malformed_requests: 2,
            queue_wait_nanos: 123_456_789,
            solve_nanos: 42_000,
            worker_panics: 1,
            checkpoints: 12,
            checkpoint_failures: 4,
            promotions: 2,
            demotions: 1,
        };
        let text = json::to_string(&stats);
        let back: FrontendStats = json::from_str(&text).unwrap();
        assert_eq!(back, stats);

        let lax: FrontendStats = json::from_str(r#"{"requests": 9, "new_counter": 1}"#).unwrap();
        assert_eq!(lax, FrontendStats { requests: 9, ..Default::default() });
        assert!(json::from_str::<FrontendStats>("[]").is_err());
    }

    // Golden wire text. Key names and key order are protocol, and the
    // round trips above decode their own output, so they cannot see a
    // renamed or reordered key; these strings pin both verbatim. Every
    // field carries a distinct value so a swapped pair shows too.
    const FRONTEND_GOLDEN: &str = r#"{"requests":101,"inline_solves":102,"coalesced_windows":103,"coalesced_tasks":104,"max_window_occupancy":105,"queue_rejections":106,"queue_depth_highwater":107,"malformed_requests":108,"queue_wait_nanos":109,"solve_nanos":110,"worker_panics":112,"checkpoints":113,"checkpoint_failures":114,"promotions":115,"demotions":116}"#;
    const STATS_GOLDEN: &str = r#"{"service":{"tasks_solved":1,"cache_hits":2,"cache_builds":3,"batches":4,"cache_invalidations":5,"order_repairs":6,"insert_repairs":7,"staircase_hits":8,"pmf_repairs":9,"pmf_rebuilds":10,"full_repairs":11,"bound_pruned":13,"artifact_share_hits":14,"artifact_detaches":15,"artifact_rejoins":16,"snapshot_restores":18,"snapshot_rejections":19,"snapshot_generation":21,"snapshot_age_ms":22,"follower_generation":23,"follower_lag_ms":24,"generations_adopted":25,"adoptions_rejected":26},"frontend":{"requests":101,"inline_solves":102,"coalesced_windows":103,"coalesced_tasks":104,"max_window_occupancy":105,"queue_rejections":106,"queue_depth_highwater":107,"malformed_requests":108,"queue_wait_nanos":109,"solve_nanos":110,"worker_panics":112,"checkpoints":113,"checkpoint_failures":114,"promotions":115,"demotions":116},"artifact_entries":27}"#;
    // The `/stats` body written by servers that still reported the
    // service's `profile_repairs` counter, since dropped.
    const PROFILE_REPAIRS_STATS_GOLDEN: &str = r#"{"service":{"tasks_solved":1,"cache_hits":2,"cache_builds":3,"batches":4,"cache_invalidations":5,"order_repairs":6,"insert_repairs":7,"staircase_hits":8,"pmf_repairs":9,"pmf_rebuilds":10,"full_repairs":11,"profile_repairs":12,"bound_pruned":13,"artifact_share_hits":14,"artifact_detaches":15,"artifact_rejoins":16,"snapshot_restores":18,"snapshot_rejections":19,"snapshot_generation":21,"snapshot_age_ms":22,"follower_generation":23,"follower_lag_ms":24,"generations_adopted":25,"adoptions_rejected":26},"frontend":{"requests":101,"inline_solves":102,"coalesced_windows":103,"coalesced_tasks":104,"max_window_occupancy":105,"queue_rejections":106,"queue_depth_highwater":107,"malformed_requests":108,"queue_wait_nanos":109,"solve_nanos":110,"worker_panics":112,"checkpoints":113,"checkpoint_failures":114,"promotions":115,"demotions":116},"artifact_entries":27}"#;
    // A `/stats` body as written by servers that still reported four
    // counters since dropped (one front-end, three service). Clients must
    // keep reading it: the unknown keys are skipped and every remaining
    // field decodes to the value it carries.
    const OLDER_STATS_GOLDEN: &str = r#"{"service":{"tasks_solved":1,"cache_hits":2,"cache_builds":3,"batches":4,"cache_invalidations":5,"order_repairs":6,"insert_repairs":7,"staircase_hits":8,"pmf_repairs":9,"pmf_rebuilds":10,"full_repairs":11,"profile_repairs":12,"bound_pruned":13,"artifact_share_hits":14,"artifact_detaches":15,"artifact_rejoins":16,"store_ttl_evictions":17,"snapshot_restores":18,"snapshot_rejections":19,"stale_snapshot_skips":20,"snapshot_generation":21,"snapshot_age_ms":22,"follower_generation":23,"follower_lag_ms":24,"generations_adopted":25,"adoptions_rejected":26},"frontend":{"requests":101,"inline_solves":102,"coalesced_windows":103,"coalesced_tasks":104,"max_window_occupancy":105,"queue_rejections":106,"queue_depth_highwater":107,"malformed_requests":108,"queue_wait_nanos":109,"solve_nanos":110,"deadline_rejections":111,"worker_panics":112,"checkpoints":113,"checkpoint_failures":114,"promotions":115,"demotions":116},"artifact_entries":27}"#;

    fn distinct_frontend_stats() -> FrontendStats {
        FrontendStats {
            requests: 101,
            inline_solves: 102,
            coalesced_windows: 103,
            coalesced_tasks: 104,
            max_window_occupancy: 105,
            queue_rejections: 106,
            queue_depth_highwater: 107,
            malformed_requests: 108,
            queue_wait_nanos: 109,
            solve_nanos: 110,
            worker_panics: 112,
            checkpoints: 113,
            checkpoint_failures: 114,
            promotions: 115,
            demotions: 116,
        }
    }

    fn distinct_service_stats() -> jury_service::ServiceStats {
        jury_service::ServiceStats {
            tasks_solved: 1,
            cache_hits: 2,
            cache_builds: 3,
            batches: 4,
            cache_invalidations: 5,
            order_repairs: 6,
            insert_repairs: 7,
            staircase_hits: 8,
            pmf_repairs: 9,
            pmf_rebuilds: 10,
            full_repairs: 11,
            bound_pruned: 13,
            artifact_share_hits: 14,
            artifact_detaches: 15,
            artifact_rejoins: 16,
            snapshot_restores: 18,
            snapshot_rejections: 19,
            snapshot_generation: 21,
            snapshot_age_ms: 22,
            follower_generation: 23,
            follower_lag_ms: 24,
            generations_adopted: 25,
            adoptions_rejected: 26,
        }
    }

    #[test]
    fn frontend_stats_golden_wire() {
        let stats = distinct_frontend_stats();
        assert_eq!(json::to_string(&stats), FRONTEND_GOLDEN);
        assert_eq!(json::from_str::<FrontendStats>(FRONTEND_GOLDEN).unwrap(), stats);
    }

    #[test]
    fn stats_snapshot_golden_wire() {
        let snapshot = client::StatsSnapshot {
            service: distinct_service_stats(),
            frontend: distinct_frontend_stats(),
            artifact_entries: 27,
        };
        assert_eq!(json::to_string(&snapshot), STATS_GOLDEN);
        assert_eq!(json::from_str::<client::StatsSnapshot>(STATS_GOLDEN).unwrap(), snapshot);
    }

    #[test]
    fn older_stats_body_still_decodes() {
        let expected = client::StatsSnapshot {
            service: distinct_service_stats(),
            frontend: distinct_frontend_stats(),
            artifact_entries: 27,
        };
        for body in [OLDER_STATS_GOLDEN, PROFILE_REPAIRS_STATS_GOLDEN] {
            let value = json::from_str::<serde::Value>(body).unwrap();
            let decoded = client::StatsSnapshot::from_value(&value).unwrap();
            assert_eq!(decoded, expected);
        }
    }
}
