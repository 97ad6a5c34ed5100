//! Output checks, run after the timed window.
//!
//! * A `soar solve` report must carry the cost pinned for its instance, and
//!   that cost must equal an independent evaluation of the returned coloring
//!   with `soar_reduce::cost::phi` (closed-form accounting, not the DP).
//! * Every served `SolveOutcome` must match `solve_offline` on an offline
//!   replay of the same tenant: `build_tenant`, then `DynamicInstance::apply`
//!   of every batch the daemon acknowledged before the solve.

use rand::rngs::StdRng;
use rand::SeedableRng;
use soar_core::api::{Instance, SolveReport};
use soar_multitenant::churn::{ChurnEvent, ChurnModel, ChurnStream};
use soar_serve::protocol::SolveOutcome;
use soar_serve::server::{build_tenant, comparable, solve_offline};
use soar_topology::builders;
use soar_topology::load::LoadSpec;
use std::time::Instant;

/// Checks one `soar solve` report against `pinned` and against an
/// independent evaluation of its coloring on `instance`. Returns the cost.
pub fn check_report(report_json: &str, instance: &Instance, pinned: f64) -> Result<f64, String> {
    let report: SolveReport =
        serde_json::from_str(report_json).map_err(|e| format!("unreadable report: {e}"))?;
    let solution = &report.solution;
    if solution.cost.to_bits() != pinned.to_bits() {
        return Err(format!(
            "report cost {} differs from the pinned cost {pinned}",
            solution.cost
        ));
    }
    solution
        .coloring
        .validate(instance.tree(), instance.budget())
        .map_err(|e| format!("invalid coloring: {e:?}"))?;
    if solution.blue_used != solution.coloring.n_blue() {
        return Err(format!(
            "blue_used {} but the coloring has {} blue switches",
            solution.blue_used,
            solution.coloring.n_blue()
        ));
    }
    let recomputed = soar_reduce::cost::phi(instance.tree(), &solution.coloring);
    if (recomputed - solution.cost).abs() > 1e-9 * solution.cost.abs().max(1.0) {
        return Err(format!(
            "report cost {} but its coloring costs {recomputed}",
            solution.cost
        ));
    }
    Ok(solution.cost)
}

/// How one tenant is built and churned; shared by the load generator and the
/// offline replay so both draw the same batches.
#[derive(Debug, Clone, Copy)]
pub struct TenantPlan {
    pub tenant: u64,
    pub switches: u32,
    pub budget: u32,
    /// Seed of the `Register` request (the tenant's leaf loads).
    pub register_seed: u64,
    /// Seed of the tenant's churn stream.
    pub stream_seed: u64,
    pub events_per_batch: usize,
}

/// A tenant's deterministic stream of churn batches of about
/// `events_per_batch` events each, all leaf-rate re-draws. Every event is
/// valid whatever came before it, so a batch the daemon sheds under overload
/// leaves the later batches valid (a tenant arrival that was shed would make
/// its departure fail).
pub struct BatchStream {
    stream: ChurnStream<StdRng>,
    events_per_batch: usize,
}

impl BatchStream {
    pub fn new(plan: &TenantPlan) -> Self {
        let model = ChurnModel {
            arrivals_per_epoch: 0.0,
            rate_changes_per_epoch: plan.events_per_batch as f64,
            load: LoadSpec::paper_uniform(),
            ..ChurnModel::paper_default()
        };
        let shape = builders::complete_binary_tree_bt(plan.switches as usize);
        BatchStream {
            stream: ChurnStream::new(model, &shape, StdRng::seed_from_u64(plan.stream_seed)),
            events_per_batch: plan.events_per_batch,
        }
    }

    pub fn next_batch(&mut self) -> Vec<ChurnEvent> {
        let mut events = Vec::with_capacity(self.events_per_batch + 8);
        while events.len() < self.events_per_batch {
            events.extend(self.stream.next_epoch());
        }
        events
    }
}

/// What the daemon answered to one of a tenant's requests, in send order.
#[derive(Debug, Clone)]
pub enum Answer {
    /// A churn batch; `applied` is `None` when it was shed or failed.
    Churn { applied: Option<u32> },
    /// A solve; `None` when it was shed or failed.
    Solve(Option<SolveOutcome>),
}

/// The result of replaying one tenant offline.
#[derive(Debug, Default)]
pub struct Replay {
    /// Served outcomes compared.
    pub checked: u64,
    /// Served outcomes (or acknowledgements) that disagree with the replay.
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
    /// `build_tenant` wall time, ms.
    pub register_ms: f64,
    /// `DynamicInstance::apply` wall time per acknowledged batch, µs.
    pub apply_us: Vec<f64>,
    /// `solve_offline` wall time per checked solve, ms.
    pub solve_ms: Vec<f64>,
}

impl Replay {
    fn mismatch(&mut self, what: String) {
        self.mismatches += 1;
        self.first_mismatch.get_or_insert(what);
    }
}

/// Replays `plan`'s tenant offline through `answers` and checks every served
/// outcome with `comparable`.
pub fn replay_tenant(plan: &TenantPlan, answers: &[Answer]) -> Replay {
    let mut replay = Replay::default();
    let t0 = Instant::now();
    let mut instance = build_tenant(plan.switches, plan.budget, plan.register_seed);
    replay.register_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut batches = BatchStream::new(plan);
    for (idx, answer) in answers.iter().enumerate() {
        match answer {
            Answer::Churn { applied } => {
                let batch = batches.next_batch();
                let Some(applied) = *applied else { continue };
                let t0 = Instant::now();
                let mut failed = None;
                for event in batch.iter().take(applied as usize) {
                    if let Err(e) = instance.apply(event) {
                        failed = Some(e);
                        break;
                    }
                }
                replay.apply_us.push(t0.elapsed().as_secs_f64() * 1e6);
                if let Some(e) = failed {
                    replay.mismatch(format!(
                        "tenant {} request {idx}: offline apply failed: {e:?}",
                        plan.tenant
                    ));
                } else if applied as usize != batch.len() {
                    replay.mismatch(format!(
                        "tenant {} request {idx}: daemon applied {applied} of {} events",
                        plan.tenant,
                        batch.len()
                    ));
                }
            }
            Answer::Solve(Some(served)) => {
                let t0 = Instant::now();
                let want = solve_offline(&instance, plan.tenant);
                replay.solve_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                replay.checked += 1;
                if comparable(served) != comparable(&want) {
                    replay.mismatch(format!(
                        "tenant {} request {idx}: served {:?}, offline replay {:?}",
                        plan.tenant,
                        comparable(served),
                        comparable(&want)
                    ));
                }
            }
            Answer::Solve(None) => {}
        }
    }
    replay
}

#[cfg(test)]
mod tests {
    use super::*;
    use soar_core::api::{SoarSolver, Solver, TopologySpec};

    fn instance() -> Instance {
        Instance::builder()
            .topology(TopologySpec::CompleteKary {
                arity: 4,
                n_switches: 85,
            })
            .leaf_loads(LoadSpec::paper_power_law())
            .seed(7)
            .budget(4)
            .build()
            .expect("valid instance")
    }

    #[test]
    fn report_check_accepts_the_solver_output_and_rejects_tampering() {
        let instance = instance();
        let report = SoarSolver.solve(&instance);
        let json = serde_json::to_string_pretty(&report).expect("serializable");
        let cost = report.solution.cost;
        assert_eq!(check_report(&json, &instance, cost), Ok(cost));

        // A tampered pinned cost fails.
        assert!(check_report(&json, &instance, cost + 1.0).is_err());

        // A report whose coloring does not cost what it claims fails, even
        // when the claimed cost matches the pin.
        let mut forged = report.clone();
        let blue = forged.solution.coloring.blue_nodes();
        forged.solution.coloring.set_red(blue[0]);
        forged.solution.blue_used -= 1;
        let json = serde_json::to_string_pretty(&forged).expect("serializable");
        assert!(check_report(&json, &instance, cost).is_err());
    }

    fn plan() -> TenantPlan {
        TenantPlan {
            tenant: 3,
            switches: 64,
            budget: 4,
            register_seed: 11,
            stream_seed: 12,
            events_per_batch: 5,
        }
    }

    /// The answers an honest daemon gives: three batches, a solve after each.
    fn honest_answers(plan: &TenantPlan) -> Vec<Answer> {
        let mut instance = build_tenant(plan.switches, plan.budget, plan.register_seed);
        let mut batches = BatchStream::new(plan);
        let mut answers = Vec::new();
        for _ in 0..3 {
            let batch = batches.next_batch();
            for event in &batch {
                instance.apply(event).expect("generated events apply");
            }
            answers.push(Answer::Churn {
                applied: Some(batch.len() as u32),
            });
            answers.push(Answer::Solve(Some(solve_offline(&instance, plan.tenant))));
        }
        answers
    }

    #[test]
    fn served_outcomes_match_the_offline_replay() {
        let plan = plan();
        let replay = replay_tenant(&plan, &honest_answers(&plan));
        assert_eq!(replay.checked, 3);
        assert_eq!(replay.mismatches, 0, "{:?}", replay.first_mismatch);
    }

    #[test]
    fn a_tampered_served_outcome_fails() {
        let plan = plan();
        let mut answers = honest_answers(&plan);
        if let Answer::Solve(Some(outcome)) = &mut answers[3] {
            outcome.cost += 1.0;
        }
        let replay = replay_tenant(&plan, &answers);
        assert_eq!(replay.mismatches, 1);

        // So does a solve answered as if a shed batch had been applied.
        let mut answers = honest_answers(&plan);
        answers[2] = Answer::Churn { applied: None };
        assert!(replay_tenant(&plan, &answers).mismatches > 0);
    }
}
