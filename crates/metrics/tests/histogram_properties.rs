//! Property-based tests of the one histogram behind every latency and size
//! distribution: quantiles bracket the exact nearest-rank value within one
//! bucket, the sum is exact, and merging is order-insensitive and
//! saturating.

use proptest::prelude::*;
use schemble_metrics::Histogram;

/// Width of the bucket holding `v`: 1 below 16, then 1/8 of the octave.
fn bucket_width(v: u64) -> u64 {
    if v < 16 {
        1
    } else {
        1 << (63 - v.leading_zeros() - 3)
    }
}

/// Nearest-rank `q`-quantile of `values`, the rank rule the histogram uses.
fn nearest_rank(values: &[u64], q: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Log-uniform values: any magnitude from 0 up to 2^52 is equally likely,
/// so exact buckets, mid-range octaves and huge values all get exercised
/// (2^52 keeps the sum of three sets of 300 below `u64::MAX`).
fn values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec((any::<u64>(), 12u32..64), 1..300)
        .prop_map(|v| v.into_iter().map(|(bits, shift)| bits >> shift).collect())
}

/// `x` doubled `d` times with saturating adds.
fn doubled(x: u64, d: usize) -> u64 {
    match x {
        0 => 0,
        _ if d > x.leading_zeros() as usize => u64::MAX,
        _ => x << d,
    }
}

fn recorded(values: &[u64]) -> Histogram {
    let h = Histogram::nanos();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #[test]
    fn quantiles_bracket_the_exact_value_within_one_bucket(
        values in values(),
        permille in 0u32..=1000,
    ) {
        let h = recorded(&values);
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>(), "the sum is exact");
        for q in [permille as f64 / 1000.0, 0.0, 0.5, 0.95, 0.99, 1.0] {
            let exact = nearest_rank(&values, q);
            let got = h.quantile(q).expect("non-empty");
            prop_assert!(got >= exact, "q{q}: {got} below exact {exact}");
            prop_assert!(
                got - exact < bucket_width(exact),
                "q{q}: {got} more than one bucket above {exact}"
            );
        }
        let cum = h.cumulative_buckets();
        prop_assert_eq!(cum.last().map(|&(_, n)| n), Some(h.count()));
        prop_assert!(cum.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
    }

    #[test]
    fn merge_is_order_insensitive_and_saturating(
        a in values(),
        b in values(),
        c in values(),
        doublings in 0usize..80,
    ) {
        let parts = [recorded(&a), recorded(&b), recorded(&c)];
        let forward = Histogram::nanos();
        for p in &parts {
            forward.merge(p);
        }
        let backward = Histogram::nanos();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        prop_assert_eq!(&forward, &backward);
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&forward, &recorded(&all), "merging equals recording everything");

        // Doubling by self-merge: counts and the sum clamp at u64::MAX
        // instead of wrapping, and quantiles stay defined.
        let sum = forward.sum();
        for _ in 0..doublings {
            let copy = forward.clone();
            forward.merge(&copy);
        }
        prop_assert_eq!(forward.count(), doubled(all.len() as u64, doublings));
        prop_assert_eq!(forward.sum(), doubled(sum, doublings));
        prop_assert!(forward.quantile(0.0) <= forward.quantile(1.0));
        let other = Histogram::nanos();
        other.merge(&forward);
        other.merge(&parts[0]);
        let swapped = Histogram::nanos();
        swapped.merge(&parts[0]);
        swapped.merge(&forward);
        prop_assert_eq!(other, swapped, "saturated merges still commute");
    }
}

/// The fixtures of the two histograms this one replaced, at their old
/// magnitudes: a 10 ms body with a 1 s tail, and one-bucket merges.
#[test]
fn replaced_fixtures_resolve_body_and_tail() {
    let ms = 1_000_000u64;
    let mut values = vec![10 * ms; 99];
    values.push(1_000 * ms);
    let h = recorded(&values);
    for q in [0.5, 0.99] {
        let got = h.quantile(q).unwrap();
        assert!((10 * ms..10 * ms + bucket_width(10 * ms)).contains(&got), "q{q} {got}");
    }
    let tail = h.quantile(1.0).unwrap();
    assert!((1_000 * ms..1_000 * ms + bucket_width(1_000 * ms)).contains(&tail));

    let a = recorded(&[10 * ms; 3]);
    let m = Histogram::nanos();
    m.merge(&a);
    m.merge(&a);
    assert_eq!(m.count(), 6);
    assert_eq!(m.cumulative_buckets().len(), 1);
    assert_eq!(m.quantile(0.0), m.quantile(1.0), "all mass in one bucket");
    assert_eq!(m.quantile(0.5), a.quantile(0.5));
}
