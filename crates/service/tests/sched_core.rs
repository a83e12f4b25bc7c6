//! The deterministic scheduler test rig: `SchedCore` is a pure, thread-free
//! state machine, so every property of the admission discipline — weighted
//! quota accounting, queue transitions, preemption-victim choice, the park
//! pool bound, the per-tenant pending count, and the fair-vs-FIFO
//! starvation contrast — is asserted here by *scripting* arrivals and
//! completions against the core's virtual clock and reading back exact
//! `Action` lists. No threads, no sleeps, no timing assumptions: a failure
//! reproduces identically on every run.

use tb_service::{Action, AdmissionPolicy, JobId, JobPhase, SchedCore, TenantId, TenantSpec};

fn policy(max_running: usize, max_parked: usize, fifo: bool) -> AdmissionPolicy {
    AdmissionPolicy { max_running, max_parked, fifo }
}

/// Drive the core to quiescence with immediate completion of everything it
/// starts, recording the tenant of each admission in order. Panics if the
/// core ever issues a Preempt (callers submit non-preemptible jobs only).
fn drain_admission_order(core: &mut SchedCore) -> Vec<TenantId> {
    let mut order = Vec::new();
    loop {
        let acts = core.schedule();
        if acts.is_empty() {
            break;
        }
        for act in acts {
            match act {
                Action::Start(id) | Action::Resume(id) => {
                    order.push(core.tenant_of(id).expect("admitted job is live"));
                    core.complete(id);
                }
                Action::Preempt(_) => panic!("no preemptible jobs were submitted"),
            }
        }
    }
    order
}

#[test]
fn weighted_quotas_split_admissions_three_to_one() {
    // One slot, two equal-priority tenants, weights 3:1, both saturated:
    // stride accounting must hand tenant A three admissions for every one
    // of B's — interleaved, not in starving runs.
    let mut core = SchedCore::new(policy(1, 0, false));
    let a = core.add_tenant(TenantSpec::new("a", 64).weight(3));
    let b = core.add_tenant(TenantSpec::new("b", 64).weight(1));
    for _ in 0..40 {
        core.submit(a, false);
    }
    for _ in 0..40 {
        core.submit(b, false);
    }
    let order = drain_admission_order(&mut core);
    assert_eq!(order.len(), 80);
    // While BOTH tenants still have backlog (the first 40 + a bit of
    // slack), the 3:1 ratio must hold in every window. Check the first 40
    // admissions: 30 for A, 10 for B, give or take rounding at window
    // edges.
    let a_share = order[..40].iter().filter(|&&t| t == a).count();
    assert!((28..=32).contains(&a_share), "weight-3 tenant got {a_share}/40 admissions, want ~30");
    // And B was never starved for long: every consecutive run of A
    // admissions in the contended prefix is at most `weight` long.
    let mut run = 0;
    for &t in &order[..40] {
        if t == a {
            run += 1;
            assert!(run <= 3, "weight-3 tenant admitted {run} in a row against a backlogged peer");
        } else {
            run = 0;
        }
    }
    assert_eq!(core.tenant_counters(a).completed, 40);
    assert_eq!(core.tenant_counters(b).completed, 40);
}

#[test]
fn idle_tenant_is_admitted_promptly_but_banks_no_credit() {
    // A heavy tenant runs alone for a while; then a light tenant submits
    // one job. Fair admission must start the light job next (its pass is
    // clamped to current virtual time, which trails the heavy tenant's by
    // one stride) — bounded wait, not FIFO-behind-the-flood. But the clamp
    // also means idling banked it no credit: after its job, the heavy
    // tenant resumes, rather than the light tenant burning a long idle
    // surplus.
    let mut core = SchedCore::new(policy(1, 0, false));
    let heavy = core.add_tenant(TenantSpec::new("heavy", 64));
    let light = core.add_tenant(TenantSpec::new("light", 64));
    let mut heavy_jobs: Vec<_> = (0..20).map(|_| core.submit(heavy, false)).collect();
    // Let ten heavy jobs through.
    for _ in 0..10 {
        let acts = core.schedule();
        let [Action::Start(id)] = acts[..] else { panic!("expected one start, got {acts:?}") };
        assert_eq!(heavy_jobs.remove(0), id);
        core.complete(id);
    }
    // Light arrives mid-flood.
    let light_job = core.submit(light, false);
    let acts = core.schedule();
    assert_eq!(acts, vec![Action::Start(light_job)], "light tenant admitted immediately");
    core.complete(light_job);
    // Back to the heavy backlog afterwards.
    let acts = core.schedule();
    let [Action::Start(id)] = acts[..] else { panic!("expected one start, got {acts:?}") };
    assert_eq!(core.tenant_of(id), Some(heavy));
    // Wait accounting: the light job was admitted at the virtual instant
    // it arrived (zero event ticks), not after the 10-job backlog.
    assert_eq!(core.tenant_counters(light).wait_ticks, 0);
    assert_eq!(core.tenant_counters(light).admissions, 1);
}

#[test]
fn fifo_mode_reproduces_the_tenant_blind_gate() {
    // The SAME arrival script as above, under the legacy FIFO policy: the
    // light tenant's job now sits behind the entire heavy backlog. This is
    // the core-level starvation regression pair — fair passes, FIFO fails
    // (by design, as the preserved baseline).
    let mut core = SchedCore::new(policy(1, 0, true));
    let heavy = core.add_tenant(TenantSpec::new("heavy", 64));
    let light = core.add_tenant(TenantSpec::new("light", 64));
    for _ in 0..20 {
        core.submit(heavy, false);
    }
    for _ in 0..10 {
        let acts = core.schedule();
        let [Action::Start(id)] = acts[..] else { panic!("expected one start, got {acts:?}") };
        core.complete(id);
    }
    core.submit(light, false);
    let order = drain_admission_order(&mut core);
    assert_eq!(order.len(), 11, "ten heavy jobs remain plus the light one");
    assert_eq!(order[10], light, "FIFO admits the light tenant dead last");
    assert!(order[..10].iter().all(|&t| t == heavy));
}

#[test]
fn queue_transitions_follow_the_state_machine() {
    // Waiting -> Running -> Preempting -> Parked -> Running -> gone, with
    // the pool slot handed to the higher-priority job in between.
    let mut core = SchedCore::new(policy(1, 4, false));
    let batch = core.add_tenant(TenantSpec::new("batch", 8));
    let inter = core.add_tenant(TenantSpec::new("interactive", 8).priority(1));

    let b = core.submit(batch, true);
    assert_eq!(core.job_phase(b), Some(JobPhase::Waiting));
    assert_eq!(core.schedule(), vec![Action::Start(b)]);
    assert_eq!(core.job_phase(b), Some(JobPhase::Running));
    assert_eq!(core.running(), 1);

    // Higher-priority arrival with the pool saturated: preempt the batch
    // job. The slot is NOT free yet — the victim must reach a boundary.
    let i = core.submit(inter, false);
    assert_eq!(core.schedule(), vec![Action::Preempt(b)]);
    assert_eq!(core.job_phase(b), Some(JobPhase::Preempting));
    assert_eq!(core.job_phase(i), Some(JobPhase::Waiting));
    assert_eq!(core.schedule(), vec![], "nothing to do until the victim parks");

    // The victim parks its 7-task frontier: slot frees, interactive starts.
    core.parked(b, 7);
    assert_eq!(core.job_phase(b), Some(JobPhase::Parked));
    assert_eq!((core.running(), core.parked_count(), core.parked_tasks()), (0, 1, 7));
    assert_eq!(core.schedule(), vec![Action::Start(i)]);

    // Interactive completes; the parked frontier resumes.
    core.complete(i);
    assert_eq!(core.schedule(), vec![Action::Resume(b)]);
    assert_eq!(core.job_phase(b), Some(JobPhase::Running));
    assert_eq!((core.parked_count(), core.parked_tasks()), (0, 0));
    core.complete(b);
    assert_eq!(core.job_phase(b), None);
    assert_eq!(core.running(), 0);

    let c = core.tenant_counters(batch);
    assert_eq!((c.preemptions, c.resumes, c.completed), (1, 1, 1));
    assert_eq!(core.tenant_counters(inter).completed, 1);
}

#[test]
fn victim_is_lowest_priority_then_youngest() {
    // Three running preemptible jobs at priorities 0, 0, 1; a priority-2
    // arrival must preempt exactly one job: priority 0 before priority 1,
    // and among the two priority-0 jobs the YOUNGEST (highest id), so the
    // job with the most sunk progress keeps its slot.
    let mut core = SchedCore::new(policy(3, 4, false));
    let p0 = core.add_tenant(TenantSpec::new("p0", 8));
    let p1 = core.add_tenant(TenantSpec::new("p1", 8).priority(1));
    let p2 = core.add_tenant(TenantSpec::new("p2", 8).priority(2));

    let old0 = core.submit(p0, true);
    let young0 = core.submit(p0, true);
    let mid1 = core.submit(p1, true);
    let mut started = core.schedule();
    started.sort_by_key(|a| match *a {
        Action::Start(id) => id,
        _ => panic!("expected starts only"),
    });
    assert_eq!(started, vec![Action::Start(old0), Action::Start(young0), Action::Start(mid1)]);

    core.submit(p2, false);
    assert_eq!(core.schedule(), vec![Action::Preempt(young0)], "lowest priority, youngest job");
    assert_eq!(core.job_phase(old0), Some(JobPhase::Running), "older sibling keeps its slot");
    assert_eq!(core.job_phase(mid1), Some(JobPhase::Running), "higher-priority job keeps its slot");
}

#[test]
fn same_priority_never_preempts() {
    // Preemption is strictly cross-priority: an equal-priority arrival
    // waits for a natural completion, it does not churn running jobs.
    let mut core = SchedCore::new(policy(1, 4, false));
    let t = core.add_tenant(TenantSpec::new("only", 8));
    let a = core.submit(t, true);
    assert_eq!(core.schedule(), vec![Action::Start(a)]);
    core.submit(t, true);
    assert_eq!(core.schedule(), vec![], "no preemption among equals");
    assert_eq!(core.job_phase(a), Some(JobPhase::Running));
}

#[test]
fn park_pool_bound_limits_outstanding_preemptions() {
    // max_parked = 1: with two low-priority preemptible jobs running and
    // two high-priority jobs waiting, only ONE victim may be preempted
    // until its frontier leaves the park pool. The second high-priority
    // job waits for a natural completion — memory for swapped-out
    // frontiers is bounded, whatever the demand.
    let mut core = SchedCore::new(policy(2, 1, false));
    let low = core.add_tenant(TenantSpec::new("low", 8));
    let high = core.add_tenant(TenantSpec::new("high", 8).priority(1));
    let a = core.submit(low, true);
    let b = core.submit(low, true);
    assert_eq!(core.schedule(), vec![Action::Start(a), Action::Start(b)]);
    core.submit(high, false);
    core.submit(high, false);
    // One Preempt only: the pool has room for one frontier.
    assert_eq!(core.schedule(), vec![Action::Preempt(b)]);
    assert_eq!(core.schedule(), vec![], "bound holds while the preemption is in flight");
    core.parked(b, 3);
    let acts = core.schedule();
    assert_eq!(acts.len(), 1, "slot goes to one high-priority job; no second preempt: {acts:?}");
    assert!(matches!(acts[0], Action::Start(_)));
    assert_eq!(core.parked_count(), 1, "park pool is full");
    // Even with high-priority demand still waiting, the remaining low job
    // keeps running.
    assert_eq!(core.job_phase(a), Some(JobPhase::Running));
}

#[test]
fn parked_high_priority_job_resumes_before_lower_waiting_work() {
    // A parked job re-enters admission at its tenant's priority: when a
    // slot frees, a parked priority-1 frontier beats waiting priority-0
    // work even though the waiting job arrived first.
    let mut core = SchedCore::new(policy(1, 4, false));
    let low = core.add_tenant(TenantSpec::new("low", 8));
    let mid = core.add_tenant(TenantSpec::new("mid", 8).priority(1));
    let top = core.add_tenant(TenantSpec::new("top", 8).priority(2));

    let m = core.submit(mid, true);
    assert_eq!(core.schedule(), vec![Action::Start(m)]);
    core.submit(low, false);
    let t = core.submit(top, false);
    assert_eq!(core.schedule(), vec![Action::Preempt(m)]);
    core.parked(m, 2);
    assert_eq!(core.schedule(), vec![Action::Start(t)]);
    core.complete(t);
    // Slot frees: the parked mid-priority frontier resumes; the waiting
    // low-priority job keeps waiting.
    assert_eq!(core.schedule(), vec![Action::Resume(m)]);
    core.complete(m);
    let acts = core.schedule();
    assert_eq!(acts.len(), 1);
    assert!(matches!(acts[0], Action::Start(_)), "low-priority job admitted last: {acts:?}");
}

#[test]
fn completion_of_a_preempting_job_cancels_the_park() {
    // A job asked to park may instead finish (it was one superstep from
    // done). The core must free its slot exactly once and not wait for a
    // `parked()` that will never come.
    let mut core = SchedCore::new(policy(1, 4, false));
    let low = core.add_tenant(TenantSpec::new("low", 8));
    let high = core.add_tenant(TenantSpec::new("high", 8).priority(1));
    let b = core.submit(low, true);
    assert_eq!(core.schedule(), vec![Action::Start(b)]);
    let h = core.submit(high, false);
    assert_eq!(core.schedule(), vec![Action::Preempt(b)]);
    core.complete(b); // finished under the preempt request
    assert_eq!(core.schedule(), vec![Action::Start(h)]);
    assert_eq!(core.running(), 1);
    assert_eq!(core.parked_count(), 0);
    assert_eq!(core.tenant_counters(low).preemptions, 0, "no swap-out actually happened");
}

#[test]
fn zero_max_parked_disables_preemption() {
    let mut core = SchedCore::new(policy(1, 0, false));
    let low = core.add_tenant(TenantSpec::new("low", 8));
    let high = core.add_tenant(TenantSpec::new("high", 8).priority(1));
    let b = core.submit(low, true);
    assert_eq!(core.schedule(), vec![Action::Start(b)]);
    core.submit(high, false);
    assert_eq!(core.schedule(), vec![], "preemption disabled: high waits for completion");
    core.complete(b);
    let acts = core.schedule();
    assert_eq!(acts.len(), 1);
    assert!(matches!(acts[0], Action::Start(_)));
}

#[test]
fn strict_priority_orders_admissions_across_classes() {
    // With a free pool and mixed waiting classes, every priority-1 job is
    // admitted before any priority-0 job, regardless of arrival order or
    // weights.
    let mut core = SchedCore::new(policy(1, 0, false));
    let low = core.add_tenant(TenantSpec::new("low", 64).weight(8));
    let high = core.add_tenant(TenantSpec::new("high", 64).priority(1));
    for _ in 0..5 {
        core.submit(low, false);
    }
    for _ in 0..5 {
        core.submit(high, false);
    }
    let order = drain_admission_order(&mut core);
    assert_eq!(order, vec![high, high, high, high, high, low, low, low, low, low]);
}

#[test]
fn virtual_clock_ticks_once_per_event() {
    let mut core = SchedCore::new(policy(4, 0, false));
    let t = core.add_tenant(TenantSpec::new("t", 8));
    assert_eq!(core.now(), 0);
    let a = core.submit(t, false);
    let b = core.submit(t, false);
    assert_eq!(core.now(), 2, "two submit events");
    core.schedule();
    assert_eq!(core.now(), 2, "schedule() decides, it is not an event");
    core.complete(a);
    core.complete(b);
    assert_eq!(core.now(), 4, "two completion events");
}

#[test]
fn seeded_event_storm_keeps_the_per_tenant_count_exact_and_bounded() {
    // The per-tenant live count is what `max_pending` bounds, so it has to
    // equal waiting + running + parked after EVERY event, whatever the
    // interleaving — checked here against a model the test keeps itself
    // (the list of live ids and the phase the core reports for each), over
    // a few thousand pseudo-random events on three seeds. Submits are
    // gated by `has_room`, as the shell gates them, so the count must also
    // never exceed the bound.
    const BOUNDS: [usize; 3] = [3, 5, 9];
    for seed in [1u64, 0xDEAD_BEEF, 0x5EED_0014] {
        let mut rng = seed;
        let mut next = move |n: u64| {
            // splitmix64
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        let mut core = SchedCore::new(policy(2, 2, false));
        let tenants: Vec<TenantId> = BOUNDS
            .iter()
            .enumerate()
            .map(|(i, &max)| core.add_tenant(TenantSpec::new(format!("t{i}"), max).priority(i as u8)))
            .collect();
        let mut live = Vec::new();
        let (mut refused, mut parks) = (0u32, 0u32);
        for step in 0..4000 {
            match next(3) {
                0 | 1 => {
                    let t = tenants[next(3) as usize];
                    if core.has_room(t) {
                        live.push(core.submit(t, next(2) == 0));
                    } else {
                        refused += 1;
                    }
                }
                _ if !live.is_empty() => {
                    // Mostly a job on the pool moves on (parks if asked to,
                    // else finishes); now and then any live job — waiting
                    // and parked ones included — is retired instead (the
                    // core allows it; the count must follow).
                    let on_pool = |id: &JobId| {
                        matches!(core.job_phase(*id), Some(JobPhase::Running | JobPhase::Preempting))
                    };
                    let at = match live.iter().position(on_pool) {
                        Some(at) if next(8) != 0 => at,
                        _ => next(live.len() as u64) as usize,
                    };
                    if core.job_phase(live[at]) == Some(JobPhase::Preempting) && next(4) != 0 {
                        core.parked(live[at], next(50) as usize);
                        parks += 1;
                    } else {
                        core.complete(live.swap_remove(at));
                    }
                }
                _ => {}
            }
            core.schedule();

            let snaps = core.snapshot();
            for (&t, &max) in tenants.iter().zip(&BOUNDS) {
                let phases =
                    || live.iter().filter(|&&id| core.tenant_of(id) == Some(t)).map(|&id| core.job_phase(id));
                let waiting = phases().filter(|&p| p == Some(JobPhase::Waiting)).count();
                let parked = phases().filter(|&p| p == Some(JobPhase::Parked)).count();
                let running = phases().count() - waiting - parked;
                let ctx = format!("seed {seed:#x} step {step} tenant {t}");
                assert_eq!(core.tenant_pending(t), waiting + running + parked, "{ctx}");
                assert!(core.tenant_pending(t) <= max, "{ctx}: over its bound of {max}");
                let s = &snaps[t as usize];
                assert_eq!((s.waiting, s.running, s.parked), (waiting, running, parked), "{ctx}");
                assert_eq!((s.pending, s.max_pending), (core.tenant_pending(t), max), "{ctx}");
            }
            assert_eq!(snaps.iter().map(|s| s.parked).sum::<usize>(), core.parked_count());
            assert_eq!(snaps.iter().map(|s| s.running).sum::<usize>(), core.running());
        }
        assert!(
            refused > 0 && parks > 0,
            "seed {seed:#x}: the storm must reach the bound ({refused} refusals) and the park path ({parks} parks)"
        );
    }
}
