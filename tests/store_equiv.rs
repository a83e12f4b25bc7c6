//! The store-contract property test for the spec task store: the
//! column-major `ArgBlock` must behave, operation for operation, like the
//! obvious model of a task store — a `Vec` of argument tuples in insertion
//! order (`Model`, below). Both are driven through one random sequence of
//! the full store vocabulary — `push_tuple`, `push_lane_tuples` (masked
//! lane compaction at widths 2/4/8), `append`, `split_off`, `clear`,
//! `take`, `reserve` — and must agree after every step on length, stride
//! and task order (tuple for tuple), and at the end on `param_lanes`
//! vector loads at every in-bounds base.
//!
//! This is the containment test for the columnar layout's riskiest claim:
//! that storing tasks transposed changes *nothing* observable about task
//! order, so every scheduler invariant built on "a block is a sequence of
//! tuples" carries over.

use proptest::prelude::*;
use taskblocks::core::TaskStore;
use taskblocks::simd::{Lanes, Mask};
use taskblocks::spec::compile::ArgBlock;

/// A splitmix64 stream: all structural choices derive from one drawn seed,
/// so failing cases reproduce from the printed seed alone.
struct G(u64);

impl G {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn val(&mut self) -> i64 {
        self.below(41) as i64 - 20
    }
}

/// The reference semantics: one row per task, in insertion order. `stride`
/// follows the store contract — parameter count floored at 1 (a
/// zero-parameter task is one padding slot holding 0), and 0 while a
/// default-built store has not yet learned its width.
#[derive(Default)]
struct Model {
    stride: usize,
    rows: Vec<Vec<i64>>,
}

impl Model {
    fn with_params(params: usize) -> Self {
        Model { stride: params.max(1), rows: Vec::new() }
    }

    fn from_tuples(params: usize, calls: &[Vec<i64>]) -> Self {
        let mut m = Model::with_params(params);
        for c in calls {
            m.push_tuple(c);
        }
        m
    }

    fn push_tuple(&mut self, args: &[i64]) {
        if self.stride == 0 {
            self.stride = args.len().max(1);
        }
        self.rows.push(if args.is_empty() { vec![0] } else { args.to_vec() });
    }

    fn push_lane_tuples<const Q: usize>(&mut self, cols: &[Lanes<i64, Q>], mask: &Mask<Q>) {
        for l in 0..Q {
            if mask.0[l] {
                let tuple: Vec<i64> = cols.iter().map(|c| c.lane(l)).collect();
                self.push_tuple(&tuple);
            }
        }
    }

    fn append(&mut self, other: &mut Model) {
        if other.rows.is_empty() {
            return;
        }
        if self.stride == 0 {
            self.stride = other.stride;
        }
        self.rows.append(&mut other.rows);
    }

    fn split_off(&mut self, at: usize) -> Model {
        Model { stride: self.stride, rows: self.rows.split_off(at) }
    }
}

/// The store must agree with the model on everything observable.
fn assert_same(col: &ArgBlock, model: &Model, ctx: &str) {
    assert_eq!(col.len(), model.rows.len(), "{ctx}: lengths diverged");
    assert_eq!(col.stride(), model.stride, "{ctx}: strides diverged");
    assert_eq!(col.tuples().collect::<Vec<_>>(), model.rows, "{ctx}: task order diverged");
}

/// `param_lanes` must read, at every in-bounds base, the Q consecutive
/// tasks' parameter `idx` — this is exactly the load `run_tasks_q` issues
/// (it only ever asks at multiples of Q; every base is checked here).
fn assert_same_lanes<const Q: usize>(col: &ArgBlock, model: &Model) {
    for base in 0..(col.len() + 1).saturating_sub(Q) {
        for idx in 0..col.stride() {
            let want: [i64; Q] = std::array::from_fn(|l| model.rows[base + l][idx]);
            assert_eq!(
                col.param_lanes::<Q>(idx, base).0,
                want,
                "param_lanes diverged at idx={idx} base={base} Q={Q}"
            );
        }
    }
}

/// One width-`Q` masked spawn write (random lane columns and mask) into
/// both the store and the model.
fn push_random_lanes<const Q: usize>(g: &mut G, params: usize, col: &mut ArgBlock, model: &mut Model) {
    let lanes: Vec<Lanes<i64, Q>> = (0..params).map(|_| Lanes(std::array::from_fn(|_| g.val()))).collect();
    let mask = Mask(std::array::from_fn(|_| g.below(2) == 1));
    col.push_lane_tuples(&lanes, &mask);
    model.push_lane_tuples(&lanes, &mask);
}

fn drive(seed: u64) {
    let mut g = G(seed);
    // Arity 0 included deliberately: it exercises the zero-param padding
    // column (stride 1 of zeros) the store must fabricate.
    let params = g.below(4) as usize;
    let mut col = ArgBlock::with_params(params);
    let mut model = Model::with_params(params);
    for step in 0..48 {
        let ctx = format!("seed={seed} step={step} params={params}");
        match g.below(8) {
            0 | 1 => {
                let args: Vec<i64> = (0..params).map(|_| g.val()).collect();
                col.push_tuple(&args);
                model.push_tuple(&args);
            }
            // Masked lane compaction at a random width — the spawn write
            // path of the vector tier.
            2 => match g.below(3) {
                0 => push_random_lanes::<2>(&mut g, params, &mut col, &mut model),
                1 => push_random_lanes::<4>(&mut g, params, &mut col, &mut model),
                _ => push_random_lanes::<8>(&mut g, params, &mut col, &mut model),
            },
            3 => {
                // Append a freshly built batch; the source must drain.
                let batch: Vec<Vec<i64>> =
                    (0..g.below(6)).map(|_| (0..params).map(|_| g.val()).collect()).collect();
                let mut cb = ArgBlock::from_tuples(params, &batch);
                col.append(&mut cb);
                model.append(&mut Model::from_tuples(params, &batch));
                assert!(cb.is_empty(), "{ctx}: append must drain the source");
            }
            4 => {
                // Split at a random task index, verify the tail, then
                // reattach so content keeps accumulating.
                let at = g.below(col.len() as u64 + 1) as usize;
                let mut ct = col.split_off(at);
                let mut mt = model.split_off(at);
                assert_same(&ct, &mt, &format!("{ctx}: split_off({at}) tail"));
                assert_eq!(col.len(), at, "{ctx}: split_off head length");
                col.append(&mut ct);
                model.append(&mut mt);
            }
            5 => col.reserve(g.below(64) as usize),
            6 => {
                // `take` is the expand-loop's ownership handoff.
                let ct = col.take();
                assert!(col.is_empty(), "{ctx}: take must leave an empty store");
                col = ct;
            }
            _ => {
                if g.below(4) == 0 {
                    col.clear();
                    model.rows.clear();
                }
            }
        }
        assert_same(&col, &model, &ctx);
    }
    assert_same_lanes::<2>(&col, &model);
    assert_same_lanes::<4>(&col, &model);
    assert_same_lanes::<8>(&col, &model);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Column-major store == row-per-task model over a random operation
    /// sequence spanning the entire store vocabulary.
    #[test]
    fn column_store_matches_row_model(seed in any::<u64>()) {
        drive(seed);
    }
}

/// The stride-0 adopt-on-first-append dance (a `Default`-built store
/// learning its width from the first block merged into it) — it is how
/// `BucketSet` buckets come alive.
#[test]
fn default_built_stores_adopt_the_first_appended_width() {
    for params in 0..3usize {
        let batch: Vec<Vec<i64>> =
            (0..5).map(|t| (0..params).map(|p| (t * 7 + p) as i64).collect()).collect();
        let mut col = ArgBlock::default();
        let mut model = Model::default();
        assert_same(&col, &model, "unset");
        col.append(&mut ArgBlock::from_tuples(params, &batch));
        model.append(&mut Model::from_tuples(params, &batch));
        assert_same(&col, &model, &format!("adopt params={params}"));
        assert_eq!(col.len(), 5);
    }
}
