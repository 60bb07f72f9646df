//! The runtime's change generation: every change a guard could see
//! bumps it, and every read-only scan leaves it alone.

use estelle::sched::{run_sequential, SeqOptions};
use estelle::{
    downcast, impl_interaction, ip, Ctx, Dispatch, IpIndex, ModuleKind, ModuleLabels, Runtime,
    StateId, StateMachine, Transition,
};
use netsim::SimDuration;

const IO: IpIndex = IpIndex(0);

#[derive(Debug)]
struct Ping;
impl_interaction!(Ping);

/// Counts pings; fires spontaneously while `armed`.
#[derive(Debug, Default)]
struct Counter {
    pings: u32,
    armed: bool,
}

impl StateMachine for Counter {
    fn num_ips(&self) -> usize {
        1
    }
    fn initial_state(&self) -> StateId {
        StateId(0)
    }
    fn on_init(&mut self, _ctx: &mut Ctx<'_>) {}
    fn transitions() -> Vec<Transition<Self>> {
        vec![
            Transition::on("ping", StateId(0), IO, |m: &mut Self, _ctx, msg| {
                downcast::<Ping>(msg.unwrap()).unwrap();
                m.pings += 1;
            }),
            Transition::spontaneous("disarm", StateId(0), |m: &mut Self, _ctx, _| {
                m.armed = false;
            })
            .provided(|m, _| m.armed),
            Transition::spontaneous("late", StateId(0), |_m: &mut Self, _ctx, _| {})
                .delay(SimDuration::from_secs(3600))
                .to(StateId(1)),
        ]
    }
}

/// Sequential runs that leave the clock alone (the `late` delay would
/// otherwise pull it an hour ahead).
fn no_time() -> SeqOptions {
    SeqOptions {
        advance_time: false,
        ..SeqOptions::default()
    }
}

fn add(rt: &Runtime, name: &str) -> estelle::ModuleId {
    rt.add_module(
        None,
        name,
        ModuleKind::SystemProcess,
        ModuleLabels::default(),
        Counter::default(),
    )
    .unwrap()
}

#[test]
fn every_change_a_guard_could_see_bumps_the_generation() {
    let (rt, _clock) = Runtime::sim();
    let mut last = rt.generation();
    let mut bumped = |what: &str, rt: &Runtime| {
        let now = rt.generation();
        assert!(now > last, "{what} must bump the generation");
        last = now;
    };
    let a = add(&rt, "a");
    bumped("module creation", &rt);
    let b = add(&rt, "b");
    bumped("module creation", &rt);
    rt.connect(ip(a, IO), ip(b, IO)).unwrap();
    bumped("connect", &rt);
    rt.start().unwrap();
    bumped("initialize", &rt);
    rt.inject(ip(a, IO), Box::new(Ping)).unwrap();
    bumped("inject", &rt);
    run_sequential(&rt, &no_time());
    bumped("firing", &rt);
    rt.with_machine_mut::<Counter, _>(b, |m| m.armed = true);
    bumped("with_machine_mut", &rt);
    assert_eq!(rt.first_enabled(Dispatch::TableDriven), Some(b));
}

#[test]
fn scans_leave_the_generation_and_counters_alone() {
    let (rt, _clock) = Runtime::sim();
    let a = add(&rt, "a");
    rt.start().unwrap();
    run_sequential(&rt, &no_time());
    let generation = rt.generation();
    let counters = rt.counters();
    assert_eq!(rt.first_enabled(Dispatch::TableDriven), None);
    assert_eq!(rt.counters(), counters, "first_enabled is not a pass");
    assert!(!rt.any_enabled(Dispatch::TableDriven));
    assert!(rt.next_deadline().is_some());
    assert_eq!(rt.pending_messages(), 0);
    assert_eq!(rt.with_machine::<Counter, _>(a, |m| m.pings), Some(0));
    assert_eq!(rt.generation(), generation, "nothing changed");
}
