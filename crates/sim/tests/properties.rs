//! Property-based tests of the simulation engine.

use proptest::prelude::*;
use schemble_sim::{EventQueue, FaultPlan, FaultState, SimDuration, SimTime};

/// Directive words a fault-plan line may start with, malformed ones included.
const KINDS: [&str; 6] = ["crash", "straggle", "transient", "timeout-q", "flarp", ""];

/// Field spellings around the edges of the accepted ranges.
const TOKENS: [&str; 18] = [
    "0",
    "1",
    "2",
    "-1",
    "-0",
    "0.5",
    "3.0",
    "1000",
    "1000.5",
    "1e9",
    "1000000001",
    "1e300",
    "1e-300",
    "nan",
    "inf",
    "-inf",
    "x",
    "#",
];

/// One field of a fault-plan line: an edge spelling, or any `f64` bit
/// pattern printed plainly or in exponent form.
fn token() -> impl Strategy<Value = String> {
    (0..TOKENS.len() + 2, any::<u64>()).prop_map(|(i, bits)| match TOKENS.get(i) {
        Some(t) => t.to_string(),
        None if i == TOKENS.len() => f64::from_bits(bits).to_string(),
        None => format!("{:e}", f64::from_bits(bits)),
    })
}

proptest! {
    /// Events always pop in (time, insertion) order regardless of push order.
    #[test]
    fn event_queue_is_a_stable_priority_queue(
        times in proptest::collection::vec(0u64..1000, 1..50)
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_millis(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "insertion order violated on tie");
            }
        }
    }

    /// `FaultPlan::parse` answers `Ok` or `Err` for any directive lines and
    /// never panics, and an accepted plan is safe to run: its straggled
    /// fates keep simulated time in range.
    #[test]
    fn fault_plan_parse_never_panics(
        lines in collection::vec((0..KINDS.len(), collection::vec(token(), 0..6)), 1..6)
    ) {
        let text: Vec<String> =
            lines.iter().map(|(k, fields)| format!("{} {}", KINDS[*k], fields.join(" "))).collect();
        if let Ok(plan) = FaultPlan::parse(&text.join("\n")) {
            for tr in plan.transitions() {
                prop_assert!(tr.at.as_secs_f64() <= schemble_sim::fault::MAX_SECS);
            }
            let mut state = FaultState::new(plan.clone(), 1);
            for ep in &plan.stragglers {
                let fate = state.task_fate(ep.executor, ep.from, SimDuration::from_millis(500), None);
                prop_assert!(ep.from + fate.duration >= ep.from);
            }
        }
    }

    /// Time arithmetic round-trips through milliseconds and seconds.
    #[test]
    fn time_conversions_roundtrip(us in 0u64..10_000_000_000) {
        let t = SimTime::from_micros(us);
        prop_assert_eq!(SimTime::from_secs_f64(t.as_secs_f64()).as_micros() as i64 - us as i64, 0);
        let d = SimDuration::from_micros(us);
        prop_assert!((d.as_millis_f64() - us as f64 / 1000.0).abs() < 1e-6);
    }
}
