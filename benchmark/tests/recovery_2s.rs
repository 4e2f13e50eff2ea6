//! The `recovery` workload as the issue that defined the benchmark asked
//! for it: `recovery_period = 2 s`, closed-loop clients, at least 12
//! staggered recoveries in the window. The benchmark runs it at 4 s with
//! paced clients instead (README, *Where this differs*), because at 2 s a
//! reboot starts before the view change the previous one caused has
//! settled, and then most seeds never finish their stream (2, 3, 4, 7, 8, 9,
//! 11 and 12 of the twelve tried here). That is a finding against the
//! library, tracked here until it is fixed; the test takes about 11 minutes:
//!
//! ```text
//! cargo test --release --manifest-path benchmark/Cargo.toml -- --ignored
//! ```

use base_benchmark::run::repeat_of;
use base_benchmark::workloads::kv::{KvBench, KvSpec};
use base_benchmark::workloads::Scale;
use base_simnet::SimDuration;

#[test]
#[ignore = "fails: liveness hole under back-to-back primary reboots at recovery_period = 2 s"]
fn recovery_at_the_issues_rate_completes_on_every_seed() {
    let spec = KvSpec {
        ops_per_client: 10_000,
        pace: None,
        recovery: Some((SimDuration::from_secs(2), SimDuration::from_millis(300))),
        expected_recoveries: 12,
        ..KvSpec::recovery(Scale::Full)
    };
    let mut failures = Vec::new();
    for seed in 1..=12u64 {
        // A stream that never completes panics inside the harness.
        let run = std::panic::catch_unwind(|| {
            repeat_of("recovery at 2 s", false, || {
                Box::new(KvBench::new(spec, seed, false))
            })
        });
        match run {
            Err(_) => failures.push(format!("seed {seed}: never completed")),
            Ok(r) if r.verdict.failed > 0 => {
                failures.push(format!("seed {seed}: {:?}", r.verdict.notes));
            }
            Ok(_) => {}
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}
