//! Property test for deadline cancellation (the service-level guarantee):
//! a run cancelled at a *random* phase boundary leaves no partial state
//! observable through the cache, and re-running the same plan uncancelled
//! yields the reference answer bit for bit.

use parbounds_analyze::{ir_family_plan, predict_ledger, IR_FAMILIES};
use parbounds_ir::execute_plan;
use parbounds_serve::{Answer, PlanSource, QueryKind, Request, Server, ServerConfig};
use proptest::prelude::*;

fn run_request(id: u64, family: &str, n: usize, seed: u64) -> Request {
    Request {
        id,
        tenant: "prop".to_string(),
        kind: QueryKind::Run,
        deadline_ms: None,
        trip_at_phase: None,
        plan: PlanSource::Family {
            name: family.to_string(),
            n,
            seed,
        },
        input: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cancel at a random phase, then retry uncancelled: the cancelled
    /// attempt is invisible (cache holds nothing, retry recomputes) and
    /// the retry equals the direct library execution exactly.
    #[test]
    fn cancelled_run_is_invisible_and_retry_is_bit_identical(
        family_idx in 0usize..7,
        n in 8usize..200,
        seed in any::<u64>(),
        phase in 0usize..64,
    ) {
        let family = IR_FAMILIES[family_idx];
        let (_, plan, input) = ir_family_plan(family, n, seed)?;
        let num_phases = plan.num_phases();
        let reference = execute_plan(&plan, &input)?;
        let key = run_request(0, family, n, seed).cache_key();

        let server = Server::start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });

        // 1. The cancelled attempt.
        let mut cancelled = run_request(1, family, n, seed);
        cancelled.trip_at_phase = Some(phase % num_phases.max(1));
        let resp = server.submit(cancelled);
        prop_assert!(resp.degraded, "trip inside the run must degrade");
        match resp.result {
            Ok(Answer::Ledger { ledger }) => {
                // Degraded answers are still *valid* static ledgers.
                prop_assert_eq!(ledger, predict_ledger(&plan)?);
            }
            other => prop_assert!(false, "degraded answer must be a ledger: {:?}", other),
        }
        prop_assert!(
            !server.oracle().cache_contains(&key),
            "cancelled run left partial state in the cache"
        );

        // 2. The uncancelled retry: a fresh computation, equal to the
        // reference run in ledger and output.
        let resp = server.submit(run_request(2, family, n, seed));
        prop_assert!(!resp.cached, "retry must not hit a phantom cache entry");
        prop_assert!(!resp.degraded);
        match resp.result {
            Ok(Answer::Run { ledger, output }) => {
                prop_assert_eq!(ledger, reference.ledger);
                prop_assert_eq!(output, reference.output);
            }
            other => prop_assert!(false, "retry must be a full run: {:?}", other),
        }

        // 3. And now the answer *is* cached: a third ask coalesces.
        let resp = server.submit(run_request(3, family, n, seed));
        prop_assert!(resp.cached);
    }
}
