//! End-to-end service tests: correctness of every query kind, the
//! single-flight acceptance criterion, backpressure shedding, tenant
//! budgets, graceful degradation, and connection-level fault tolerance.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use parbounds_analyze::{certify_writes, ir_family_plan, predict_ledger};
use parbounds_ir::execute_plan;
use parbounds_serve::{
    Answer, ErrorCode, OracleConfig, PlanSource, QueryKind, Request, Response, Server, ServerConfig,
};

fn small_server() -> Server {
    Server::start(ServerConfig {
        workers: 4,
        queue_cap: 64,
        ..ServerConfig::default()
    })
}

fn family_request(id: u64, kind: QueryKind, name: &str, n: usize, seed: u64) -> Request {
    Request {
        id,
        tenant: "test".to_string(),
        kind,
        deadline_ms: None,
        trip_at_phase: None,
        plan: PlanSource::Family {
            name: name.to_string(),
            n,
            seed,
        },
        input: None,
    }
}

#[test]
fn every_query_kind_matches_the_library_answer() {
    let server = small_server();
    let (_, plan, input) = ir_family_plan("prefix-sweep", 64, 5).unwrap();
    let reference = execute_plan(&plan, &input).unwrap();
    let predicted = predict_ledger(&plan).unwrap();

    let resp = server.submit(family_request(1, QueryKind::Static, "prefix-sweep", 64, 5));
    assert_eq!(resp.id, 1);
    match resp.result.unwrap() {
        Answer::Ledger { ledger } => assert_eq!(ledger, predicted),
        other => panic!("expected ledger, got {other:?}"),
    }

    let resp = server.submit(family_request(2, QueryKind::Run, "prefix-sweep", 64, 5));
    match resp.result.unwrap() {
        Answer::Run { ledger, output } => {
            assert_eq!(ledger, reference.ledger);
            assert_eq!(output, reference.output);
        }
        other => panic!("expected run, got {other:?}"),
    }

    let resp = server.submit(family_request(3, QueryKind::Compare, "prefix-sweep", 64, 5));
    match resp.result.unwrap() {
        Answer::Compare {
            predicted: p,
            measured,
            matches,
            ..
        } => {
            assert!(matches, "static analyzer tracks the simulator");
            assert_eq!(p, predicted);
            assert_eq!(measured, reference.ledger);
        }
        other => panic!("expected compare, got {other:?}"),
    }

    let resp = server.submit(family_request(4, QueryKind::Certify, "prefix-sweep", 64, 5));
    match resp.result.unwrap() {
        Answer::Certificate { race_free, .. } => {
            assert_eq!(race_free, certify_writes(&plan).unwrap().is_race_free());
        }
        other => panic!("expected certificate, got {other:?}"),
    }

    // The racy fixture is refused a certificate and its lint report is
    // non-empty.
    let resp = server.submit(family_request(5, QueryKind::Certify, "racy-plan", 8, 0));
    match resp.result.unwrap() {
        Answer::Certificate {
            race_free,
            witnesses,
            ..
        } => {
            assert!(!race_free);
            assert!(witnesses > 0);
        }
        other => panic!("expected certificate, got {other:?}"),
    }
    let resp = server.submit(family_request(6, QueryKind::Lint, "racy-plan", 8, 0));
    match resp.result.unwrap() {
        Answer::Lint { diagnostics } => assert!(!diagnostics.is_empty()),
        other => panic!("expected lint, got {other:?}"),
    }
}

/// Acceptance criterion: N identical concurrent submissions perform
/// exactly one analysis; the rest coalesce on the single flight.
#[test]
fn identical_concurrent_submissions_single_flight() {
    const N: usize = 8;
    let server = Arc::new(small_server());
    let barrier = Arc::new(Barrier::new(N));
    let handles: Vec<_> = (0..N)
        .map(|i| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                server.submit(family_request(
                    i as u64,
                    QueryKind::Compare,
                    "scatter-gather",
                    512,
                    9,
                ))
            })
        })
        .collect();
    let responses: Vec<Response> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    assert_eq!(
        server.oracle().analyses_performed(),
        1,
        "exactly one analysis for {N} identical concurrent submissions"
    );
    let uncached = responses.iter().filter(|r| !r.cached).count();
    assert_eq!(uncached, 1, "exactly one leader");
    let first = responses[0].result.as_ref().unwrap();
    for r in &responses {
        assert_eq!(r.result.as_ref().unwrap(), first, "all answers identical");
        assert!(!r.degraded);
    }
    let stats = server.oracle().cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits as usize, N - 1);
}

/// Backpressure: with one worker pinned on a large run and a 2-deep
/// admission queue, a simultaneous burst of 8 is mostly shed with the
/// typed `overloaded` error carrying the retry hint.
#[test]
fn burst_beyond_queue_cap_is_shed_with_retry_hint() {
    const N: usize = 8;
    let server = Arc::new(Server::start(ServerConfig {
        workers: 1,
        queue_cap: 2,
        retry_after_ms: 15,
        ..ServerConfig::default()
    }));
    let barrier = Arc::new(Barrier::new(N));
    let handles: Vec<_> = (0..N)
        .map(|i| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                // Distinct seeds: no cache coalescing, every request is
                // real work.
                server.submit(family_request(
                    i as u64,
                    QueryKind::Run,
                    "prefix-sweep",
                    16_384,
                    i as u64,
                ))
            })
        })
        .collect();
    let responses: Vec<Response> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let shed: Vec<_> = responses
        .iter()
        .filter_map(|r| r.result.as_ref().err())
        .collect();
    let ok = responses.iter().filter(|r| r.result.is_ok()).count();
    // 1 in the worker + 2 queued can succeed; at worst the worker had not
    // yet popped the first job, so at least N - 3 = 5 shed, at least 2 ok.
    assert!(
        shed.len() >= N - 3,
        "expected >= {} shed, got {shed:?}",
        N - 3
    );
    assert!(ok >= 2, "admitted requests still answered, got {ok}");
    for err in shed {
        assert_eq!(err.code, ErrorCode::Overloaded);
        assert_eq!(err.retry_after_ms, Some(15), "retry hint present");
    }
}

/// Tenant budgets: measured kinds are refused once the predicted spend
/// overdraws; static kinds are never charged.
#[test]
fn budget_exhaustion_is_typed_and_scoped_to_measured_kinds() {
    let server = Server::start(ServerConfig {
        workers: 2,
        oracle: OracleConfig {
            tenant_budget: 1,
            ..OracleConfig::default()
        },
        ..ServerConfig::default()
    });
    let resp = server.submit(family_request(1, QueryKind::Run, "or-write-tree", 64, 0));
    let err = resp.result.unwrap_err();
    assert_eq!(err.code, ErrorCode::BudgetExhausted);
    assert!(err.message.contains("budget"), "message: {}", err.message);

    // The same tenant can still afford static analysis.
    let resp = server.submit(family_request(2, QueryKind::Static, "or-write-tree", 64, 0));
    assert!(resp.result.is_ok(), "statics are not budget-charged");
    assert_eq!(server.oracle().tenant_spent("test"), 0);
}

/// The cache is consulted before the plan is built, so a hit must still
/// pay: a measured-kind hit charges the prediction stored with the answer
/// and is refused once that overdraws, without charging anything. Static
/// kinds stay free, hit or miss.
#[test]
fn measured_hits_are_charged_the_stored_prediction() {
    let (_, plan, _) = ir_family_plan("or-write-tree", 64, 0).unwrap();
    let total = predict_ledger(&plan).unwrap().total_time();
    let server = Server::start(ServerConfig {
        workers: 2,
        oracle: OracleConfig {
            tenant_budget: total,
            ..OracleConfig::default()
        },
        ..ServerConfig::default()
    });
    let first = server.submit(family_request(1, QueryKind::Run, "or-write-tree", 64, 0));
    assert!(first.result.is_ok() && !first.cached);
    assert_eq!(server.oracle().tenant_spent("test"), total);

    let again = server.submit(family_request(2, QueryKind::Run, "or-write-tree", 64, 0));
    assert_eq!(again.result.unwrap_err().code, ErrorCode::BudgetExhausted);
    assert_eq!(
        server.oracle().tenant_spent("test"),
        total,
        "refusal charges nothing"
    );
    let stats = server.oracle().cache_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (1, 1),
        "the refused repeat was a hit"
    );
    assert_eq!(server.oracle().analyses_performed(), 1);

    for id in 3..5 {
        let resp = server.submit(family_request(
            id,
            QueryKind::Static,
            "or-write-tree",
            64,
            0,
        ));
        assert!(resp.result.is_ok(), "statics are not budget-charged");
        assert_eq!(resp.cached, id == 4);
    }
    assert_eq!(server.oracle().tenant_spent("test"), total);
}

/// A family request and an inline request for the same resolved plan
/// and input may sit under separate keys, but both must answer exactly
/// what the library computes, miss or hit.
#[test]
fn family_and_inline_sources_of_one_plan_agree() {
    let server = small_server();
    let (_, plan, input) = ir_family_plan("prefix-sweep", 64, 5).unwrap();
    let reference = execute_plan(&plan, &input).unwrap();
    let expected = Answer::Run {
        ledger: reference.ledger,
        output: reference.output,
    };
    let family = family_request(1, QueryKind::Run, "prefix-sweep", 64, 5);
    let mut inline = family_request(2, QueryKind::Run, "prefix-sweep", 64, 5);
    inline.plan = PlanSource::Inline(plan);
    inline.input = Some(input);
    for round in 0..2 {
        for req in [&family, &inline] {
            let resp = server.submit(req.clone());
            assert_eq!(resp.cached, round == 1, "round {round}");
            assert_eq!(resp.result.unwrap(), expected, "round {round}");
        }
    }
}

/// Requests that fail before computing — an unknown family, an invalid
/// inline plan — are refused `bad_request` on every repeat and never
/// leave an entry behind.
#[test]
fn bad_requests_are_refused_on_every_repeat_and_never_cached() {
    let server = small_server();
    let unknown = family_request(1, QueryKind::Run, "no-such-family", 64, 0);
    let (_, mut plan, _) = ir_family_plan("broadcast", 32, 0).unwrap();
    plan.procs = 0;
    let mut invalid = family_request(2, QueryKind::Static, "broadcast", 32, 0);
    invalid.plan = PlanSource::Inline(plan);
    for req in [&unknown, &invalid] {
        for _ in 0..3 {
            let resp = server.submit(req.clone());
            assert!(!resp.cached);
            assert_eq!(resp.result.unwrap_err().code, ErrorCode::BadRequest);
        }
        assert!(!server.oracle().cache_contains(&req.cache_key()));
    }
    let stats = server.oracle().cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 6, 0));
}

/// Graceful degradation: a measured run cancelled mid-flight answers with
/// the static ledger, flagged degraded, and pollutes nothing — the next
/// identical request computes the full answer from scratch.
#[test]
fn cancelled_run_degrades_to_static_and_leaves_no_state() {
    let server = small_server();
    let mut req = family_request(1, QueryKind::Run, "broadcast", 256, 3);
    req.trip_at_phase = Some(0);
    let resp = server.submit(req);
    assert!(resp.degraded, "deadline-tripped run must degrade");
    assert!(!resp.cached);
    let (_, plan, input) = ir_family_plan("broadcast", 256, 3).unwrap();
    match resp.result.unwrap() {
        Answer::Ledger { ledger } => {
            assert_eq!(
                ledger,
                predict_ledger(&plan).unwrap(),
                "degraded answer is the valid static ledger"
            );
        }
        other => panic!("degraded answer must be a ledger, got {other:?}"),
    }

    // No partial state: the cancelled run cached nothing, so the retry is
    // a fresh computation that yields the reference answer.
    let key = family_request(0, QueryKind::Run, "broadcast", 256, 3).cache_key();
    assert!(
        !server.oracle().cache_contains(&key),
        "cancelled run left an entry in the cache"
    );
    let resp = server.submit(family_request(2, QueryKind::Run, "broadcast", 256, 3));
    assert!(!resp.cached && !resp.degraded);
    let reference = execute_plan(&plan, &input).unwrap();
    match resp.result.unwrap() {
        Answer::Run { ledger, output } => {
            assert_eq!(ledger, reference.ledger);
            assert_eq!(output, reference.output);
        }
        other => panic!("expected run, got {other:?}"),
    }
}

/// A deadline so tight it trips during static prediction fails typed (no
/// degradation is possible without a static answer in hand).
#[test]
fn static_kind_deadline_is_a_typed_error() {
    let server = small_server();
    let mut req = family_request(1, QueryKind::Static, "or-write-tree", 64, 0);
    req.trip_at_phase = Some(0);
    let resp = server.submit(req);
    assert_eq!(resp.result.unwrap_err().code, ErrorCode::DeadlineExceeded);
}

/// The connection loop survives malformed frames: garbage, oversized and
/// non-JSON lines get typed `bad_request` responses and the next valid
/// frame on the same connection is answered normally.
#[test]
fn malformed_frames_do_not_kill_the_connection() {
    let server = Server::start(ServerConfig {
        workers: 2,
        max_frame_bytes: 512,
        ..ServerConfig::default()
    });
    let valid = family_request(7, QueryKind::Static, "or-write-tree", 32, 0)
        .to_json()
        .render();
    let oversized = format!("{{\"pad\":\"{}\"}}", "x".repeat(600));
    let input =
        format!("this is not json\n{oversized}\n{{\"id\":3,\"kind\":\"static\"}}\n{valid}\n");
    let mut out = Vec::new();
    server.serve_connection(input.as_bytes(), &mut out);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "one response per frame: {text}");

    let parse =
        |line: &str| Response::from_json(&parbounds_serve::json::parse(line).unwrap()).unwrap();
    assert_eq!(
        parse(lines[0]).result.unwrap_err().code,
        ErrorCode::BadRequest
    );
    assert_eq!(
        parse(lines[1]).result.unwrap_err().code,
        ErrorCode::BadRequest
    );
    let missing_plan = parse(lines[2]);
    assert_eq!(missing_plan.id, 3, "id echoed even for bad requests");
    assert_eq!(missing_plan.result.unwrap_err().code, ErrorCode::BadRequest);
    let ok = parse(lines[3]);
    assert_eq!(ok.id, 7);
    assert!(
        ok.result.is_ok(),
        "connection still serves after bad frames"
    );
}

/// Queue wait counts against the deadline: a request admitted with an
/// already-zero deadline degrades rather than running anyway.
#[test]
fn zero_deadline_run_degrades() {
    let server = small_server();
    let mut req = family_request(1, QueryKind::Run, "bsp-reduce", 128, 2);
    req.deadline_ms = Some(0);
    // Tolerate scheduling: a 0ms deadline must never produce a measured
    // answer, only a degraded static one (or, pathologically, a typed
    // deadline error if even prediction was cancelled — with_deadline(0)
    // trips immediately only for the measured phase here).
    let resp = server.submit(req);
    match &resp.result {
        Ok(Answer::Ledger { .. }) => assert!(resp.degraded),
        Ok(other) => panic!("0ms deadline produced a measured answer: {other:?}"),
        Err(e) => assert_eq!(e.code, ErrorCode::DeadlineExceeded),
    }
    thread::sleep(Duration::from_millis(1));
}

#[test]
fn symbolic_queries_answer_on_the_cached_static_path() {
    let server = small_server();

    // A clean family: Θ-equivalent to its Table 1 row, anchored at the
    // suite point against the numeric prediction.
    let resp = server.submit(family_request(
        1,
        QueryKind::Symbolic,
        "or-write-tree",
        64,
        1,
    ));
    assert!(!resp.cached);
    match resp.result.unwrap() {
        Answer::Symbolic {
            family,
            derived,
            fixture,
            equivalent,
            regression,
            matches,
            total,
        } => {
            assert_eq!(family, "or-write-tree");
            assert_eq!(derived, fixture);
            assert!(equivalent && !regression && matches);
            let (_, plan, _) = ir_family_plan("or-write-tree", 64, 1).unwrap();
            assert_eq!(total, predict_ledger(&plan).unwrap().total_time());
        }
        other => panic!("expected symbolic, got {other:?}"),
    }

    // Input-independent ⇒ the repeat is served from the cache.
    let resp = server.submit(family_request(
        2,
        QueryKind::Symbolic,
        "or-write-tree",
        64,
        1,
    ));
    assert!(resp.cached, "symbolic answers are permanently cacheable");

    // The padded fixture reports its regression rather than erroring.
    let resp = server.submit(family_request(
        3,
        QueryKind::Symbolic,
        "or-write-tree-padded",
        64,
        1,
    ));
    match resp.result.unwrap() {
        Answer::Symbolic {
            equivalent,
            regression,
            matches,
            ..
        } => {
            assert!(regression && !equivalent);
            assert!(matches, "padded ledger still evaluates exactly");
        }
        other => panic!("expected symbolic, got {other:?}"),
    }

    // Inline plans cannot name a family derivation: typed bad request.
    let (_, plan, _) = ir_family_plan("or-write-tree", 64, 1).unwrap();
    let mut req = family_request(4, QueryKind::Symbolic, "or-write-tree", 64, 1);
    req.plan = PlanSource::Inline(plan);
    let err = server.submit(req).result.unwrap_err();
    assert_eq!(err.code, ErrorCode::BadRequest);
}

#[test]
fn audit_queries_pair_bounds_and_cache_like_symbolic() {
    let server = small_server();

    let resp = server.submit(family_request(
        1,
        QueryKind::Audit,
        "parity-read-tree",
        512,
        1,
    ));
    assert!(!resp.cached);
    match resp.result.unwrap() {
        Answer::Audit {
            family,
            size,
            fan,
            steps,
            all_good,
            lower,
            upper,
            verdict,
            ..
        } => {
            assert_eq!(family, "parity-read-tree");
            assert_eq!(size, 512);
            assert_eq!(fan, 2);
            assert!(steps > 0);
            assert!(all_good, "trajectory must be t-good at n = 512");
            assert_eq!(lower, upper, "parity audit is tight against Table 1");
            assert_eq!(verdict, "tight");
        }
        other => panic!("expected audit, got {other:?}"),
    }

    // Deterministic and input-independent ⇒ served from the cache.
    let resp = server.submit(family_request(
        2,
        QueryKind::Audit,
        "parity-read-tree",
        512,
        1,
    ));
    assert!(resp.cached, "audit answers are permanently cacheable");

    // The padded fixture has no audit: typed bad request, and the swept
    // family name is surfaced for the audit-gap lint to act on.
    let err = server
        .submit(family_request(
            3,
            QueryKind::Audit,
            "or-write-tree-padded",
            64,
            1,
        ))
        .result
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::BadRequest);
    assert!(
        err.message.contains("no lower-bound audit"),
        "{}",
        err.message
    );

    // Inline plans cannot name a family audit: typed bad request.
    let (_, plan, _) = ir_family_plan("or-write-tree", 64, 1).unwrap();
    let mut req = family_request(4, QueryKind::Audit, "or-write-tree", 64, 1);
    req.plan = PlanSource::Inline(plan);
    let err = server.submit(req).result.unwrap_err();
    assert_eq!(err.code, ErrorCode::BadRequest);
}
