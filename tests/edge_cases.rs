//! Integration: edge-case and failure-injection sweep across every
//! public structure — empty structures, q larger than the stream,
//! degenerate value distributions, and extreme parameters.

use qmax_core::{
    AdaptiveBackend, AdaptiveBasicSlackQMax, AmortizedQMax, BasicSlackQMax, DeamortizedQMax,
    DedupQMax, HeapQMax, HierSlackQMax, IndexedHeapQMax, KeyedSkipListQMax, LazySlackQMax, QMax,
    QMaxError, SkipListQMax, SoaAmortizedQMax, SoaDeamortizedQMax, SortedVecQMax, TimeSlackQMax,
};
use qmax_engine::ShardedQMax;
use qmax_lrfu::{Cache, DeamortizedLrfu, HeapLrfu, QMaxLrfu, ScanLrfu};

fn all_backends(q: usize) -> Vec<Box<dyn QMax<u32, u64>>> {
    vec![
        Box::new(AmortizedQMax::new(q, 0.5)),
        Box::new(DeamortizedQMax::new(q, 0.5)),
        Box::new(DedupQMax::new(q, 0.5)),
        Box::new(HeapQMax::new(q)),
        Box::new(SkipListQMax::new(q)),
        Box::new(SortedVecQMax::new(q)),
        Box::new(IndexedHeapQMax::new(q)),
        Box::new(KeyedSkipListQMax::new(q)),
        Box::new(BasicSlackQMax::new(q, 0.5, 1000, 0.25)),
        Box::new(HierSlackQMax::new(q, 0.5, 1000, 0.25, 2)),
        Box::new(LazySlackQMax::new(q, 0.5, 1000, 0.25, 2)),
        Box::new(ShardedQMax::<u32, u64>::new(q, 0.5, 1)),
        Box::new(ShardedQMax::<u32, u64>::new(q, 0.5, 4)),
    ]
}

#[test]
fn empty_structures_answer_queries() {
    for mut qm in all_backends(4) {
        assert!(qm.query().is_empty(), "{} non-empty when fresh", qm.name());
        assert!(qm.is_empty(), "{}", qm.name());
        assert_eq!(qm.threshold(), None, "{}", qm.name());
        qm.reset(); // reset on empty must be harmless
        assert!(qm.query().is_empty());
    }
}

#[test]
fn q_larger_than_stream_returns_everything() {
    for mut qm in all_backends(1000) {
        for v in 0u64..5 {
            qm.insert(v as u32, v * 10);
        }
        let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 10, 20, 30, 40], "{} dropped items", qm.name());
    }
}

#[test]
fn q_of_one_tracks_the_maximum() {
    for mut qm in all_backends(1) {
        // Keep the stream shorter than the window structures' W so the
        // maximum cannot legitimately expire.
        let mut max = 0;
        let mut state = 7u64;
        for i in 0..700u32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = state >> 33;
            max = max.max(v);
            qm.insert(i, v);
        }
        let got = qm.query();
        assert_eq!(got.len(), 1, "{}", qm.name());
        assert_eq!(got[0].1, max, "{} lost the maximum", qm.name());
    }
}

#[test]
fn all_equal_values_fill_to_q() {
    // Heavy-tie workload: q slots must fill and stay at q; keyed
    // structures deduplicate, so feed distinct keys.
    for mut qm in all_backends(7) {
        for i in 0..500u32 {
            qm.insert(i, 42u64);
        }
        let got = qm.query();
        assert_eq!(got.len(), 7, "{} returned {} items", qm.name(), got.len());
        assert!(got.iter().all(|&(_, v)| v == 42));
    }
}

#[test]
fn monotone_increasing_values_keep_the_tail() {
    for mut qm in all_backends(3) {
        for v in 0u64..2000 {
            qm.insert(v as u32, v);
        }
        let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1997, 1998, 1999], "{} wrong tail", qm.name());
    }
}

#[test]
fn monotone_decreasing_values_keep_the_head() {
    // Window structures are excluded: for them old items legitimately
    // expire, so the head is forgotten by design.
    let backends: Vec<Box<dyn QMax<u32, u64>>> = vec![
        Box::new(AmortizedQMax::new(3, 0.5)),
        Box::new(DeamortizedQMax::new(3, 0.5)),
        Box::new(DedupQMax::new(3, 0.5)),
        Box::new(HeapQMax::new(3)),
        Box::new(SkipListQMax::new(3)),
        Box::new(SortedVecQMax::new(3)),
        Box::new(IndexedHeapQMax::new(3)),
        Box::new(KeyedSkipListQMax::new(3)),
        Box::new(ShardedQMax::<u32, u64>::new(3, 0.5, 2)),
    ];
    for mut qm in backends {
        for (i, v) in (0u64..2000).rev().enumerate() {
            qm.insert(i as u32, v);
        }
        let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1997, 1998, 1999], "{} wrong head", qm.name());
    }
}

#[test]
fn extreme_values_do_not_wrap() {
    for mut qm in all_backends(2) {
        qm.insert(0, u64::MAX);
        qm.insert(1, 0);
        qm.insert(2, u64::MAX - 1);
        qm.insert(3, 1);
        let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, vec![u64::MAX - 1, u64::MAX], "{}", qm.name());
    }
}

#[test]
fn threshold_is_monotone_on_ascending_streams() {
    // On an ascending stream every item is admitted, so the admission
    // threshold Ψ must rise monotonically once q items have arrived.
    // Window structures are excluded: expiry legitimately lowers Ψ.
    let backends: Vec<Box<dyn QMax<u32, u64>>> = vec![
        Box::new(AmortizedQMax::new(8, 0.5)),
        Box::new(DeamortizedQMax::new(8, 0.5)),
        Box::new(DedupQMax::new(8, 0.5)),
        Box::new(HeapQMax::new(8)),
        Box::new(SkipListQMax::new(8)),
        Box::new(SortedVecQMax::new(8)),
        Box::new(IndexedHeapQMax::new(8)),
        Box::new(KeyedSkipListQMax::new(8)),
        Box::new(ShardedQMax::<u32, u64>::new(8, 0.5, 1)),
        Box::new(ShardedQMax::<u32, u64>::new(8, 0.5, 4)),
    ];
    for mut qm in backends {
        let mut last: Option<u64> = None;
        for v in 0u64..3000 {
            qm.insert(v as u32, v);
            let t = qm.threshold();
            if let (Some(prev), Some(now)) = (last, t) {
                assert!(
                    now >= prev,
                    "{}: Ψ fell from {prev} to {now} at v={v}",
                    qm.name()
                );
            }
            if t.is_some() {
                last = t;
            }
        }
        assert!(last.is_some(), "{} never reported a threshold", qm.name());
    }
}

#[test]
fn finite_gamma_with_overflowing_geometry_is_rejected() {
    // Finite, positive, and far too large: the buffer `q(1+γ)` slots
    // would need cannot be sized, so construction must fail cleanly
    // instead of wrapping into a too-small buffer or panicking.
    // 1e18 fits `usize` but not a `Vec` of 16-byte entries.
    for gamma in [1e300, 1e30, 1e18, f64::MAX] {
        let bad = Some(QMaxError::BadGamma(gamma));
        assert_eq!(AmortizedQMax::<u64, u64>::try_new(4, gamma).err(), bad);
        assert_eq!(SoaAmortizedQMax::<u64, u64>::try_new(4, gamma).err(), bad);
        assert_eq!(DeamortizedQMax::<u64, u64>::try_new(4, gamma).err(), bad);
        assert_eq!(SoaDeamortizedQMax::<u64, u64>::try_new(4, gamma).err(), bad);
        assert_eq!(AdaptiveBackend::<u64, u64>::try_new(4, gamma).err(), bad);
        assert_eq!(ShardedQMax::<u64, u64>::try_new(4, gamma, 2).err(), bad);
    }
    // A large but sizable γ still builds, with capacity at least q.
    let big = DeamortizedQMax::<u64, u64>::try_new(4, 1e3).expect("sizable gamma");
    assert!(big.capacity() >= 4);
}

#[test]
fn window_geometry_overflow_is_rejected() {
    // A τ so small that its `⌈1/τ⌉` blocks cannot be allocated.
    let tiny = 1e-300;
    let bad_tau = Some(QMaxError::BadTau(tiny));
    assert_eq!(
        BasicSlackQMax::<u64, u64>::try_new(2, 0.5, 100, tiny).err(),
        bad_tau
    );
    assert_eq!(
        AdaptiveBasicSlackQMax::<u64, u64>::try_new_adaptive(2, 0.5, 100, tiny).err(),
        bad_tau
    );
    assert_eq!(
        TimeSlackQMax::<u64, u64>::try_new(2, 0.5, 100, tiny).err(),
        bad_tau
    );
    for c in [1, 2, 3] {
        assert_eq!(
            HierSlackQMax::<u64, u64>::try_new(2, 0.5, 100, tiny, c).err(),
            bad_tau
        );
        assert_eq!(
            LazySlackQMax::<u64, u64>::try_new(2, 0.5, 100, tiny, c).err(),
            bad_tau
        );
    }
    // A layer count whose `b^c` finest blocks overflow.
    let bad_c = Some(QMaxError::WindowOverflow("c"));
    for c in [64, 200, usize::MAX] {
        assert_eq!(
            HierSlackQMax::<u64, u64>::try_new(2, 0.5, 100, 1.0, c).err(),
            bad_c
        );
        assert_eq!(
            LazySlackQMax::<u64, u64>::try_new(2, 0.5, 100, 1.0, c).err(),
            bad_c
        );
    }
    // A window whose effective span `block · n_blocks` wraps the clock.
    assert_eq!(
        TimeSlackQMax::<u64, u64>::try_new(2, 0.5, u64::MAX, 0.3).err(),
        Some(QMaxError::WindowOverflow("window_ns"))
    );
    assert_eq!(
        BasicSlackQMax::<u64, u64>::try_new(2, 0.5, usize::MAX, 0.3).err(),
        Some(QMaxError::WindowOverflow("w"))
    );
    // The largest spans that do fit still build, and report them.
    let t = TimeSlackQMax::<u64, u64>::try_new(2, 0.5, u64::MAX, 1.0).expect("one block");
    assert_eq!(t.effective_window_ns(), u64::MAX);
    let t = TimeSlackQMax::<u64, u64>::try_new(2, 0.5, u64::MAX / 2, 0.3).expect("fits");
    assert!(t.effective_window_ns() >= u64::MAX / 2);
}

#[test]
fn caches_with_q_one() {
    let caches: Vec<Box<dyn Cache<u64>>> = vec![
        Box::new(HeapLrfu::new(1, 0.75)),
        Box::new(ScanLrfu::new(1, 0.75)),
        Box::new(QMaxLrfu::new(1, 0.5, 0.75)),
        Box::new(DeamortizedLrfu::new(1, 0.5, 0.75)),
    ];
    for mut c in caches {
        assert!(!c.request(1));
        assert!(c.request(1), "{} lost the only key", c.name());
        // Make key 2 clearly the highest-score key (LRFU may keep a
        // frequent old key over a single recent access, so one request
        // is not enough to displace key 1).
        c.request(2);
        c.request(2);
        c.request(2);
        assert!(c.request(2), "{} lost the dominant key", c.name());
    }
}

/// Compile-time check that `Cache` and `QMax` stay object-safe (the
/// harnesses rely on boxed policies and reservoirs).
#[allow(dead_code)]
fn object_safety() {
    fn _cache(_: &dyn Cache<u64>) {}
    fn _qmax(_: &dyn QMax<u32, u64>) {}
}
