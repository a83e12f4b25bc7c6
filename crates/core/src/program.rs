//! The contract between a recursive task-parallel program and the scheduler.
//!
//! A program is presented to the framework in *blocked* form (the output of
//! the Fig. 1(a)→1(b,c) transformation of the paper): instead of a function
//! that processes one task and spawns children, it provides [`BlockProgram::expand`],
//! which processes a whole dense block of tasks and routes each spawned child
//! into a per-spawn-site bucket. The scheduler decides what to do with the
//! buckets — concatenate them (BFE), descend into them one by one (DFE),
//! park them (Restart) — and the program never needs to know.

use crate::block::TaskStore;
use crate::stats::ExecStats;

/// Per-spawn-site output buckets for one `expand` call.
///
/// Bucket `i` collects every task created by the `i`-th spawn site across
/// the whole input block — i.e. bucket `i` is the block `bᶦ` of §3.1's DFE
/// description. All buckets conceptually sit one level below the input
/// block.
#[derive(Debug)]
pub struct BucketSet<S> {
    buckets: Vec<S>,
}

impl<S: TaskStore> BucketSet<S> {
    /// A bucket set with `arity` empty buckets.
    pub fn new(arity: usize) -> Self {
        assert!(arity >= 1, "a recursive program needs at least one spawn site");
        BucketSet { buckets: (0..arity).map(|_| S::default()).collect() }
    }

    /// Number of spawn sites.
    #[inline]
    pub fn arity(&self) -> usize {
        self.buckets.len()
    }

    /// The bucket for spawn site `i`.
    #[inline]
    pub fn bucket(&mut self, i: usize) -> &mut S {
        &mut self.buckets[i]
    }

    /// All buckets, for programs that want to fill them in one pass.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.buckets
    }

    /// Total number of tasks across all buckets.
    pub fn total_len(&self) -> usize {
        self.buckets.iter().map(TaskStore::len).sum()
    }

    /// True when every bucket is empty.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(TaskStore::is_empty)
    }

    /// Drain every bucket into a single store, in spawn-site order.
    ///
    /// This is the BFE gather: "any new tasks that are generated are placed
    /// in a block b′" (§3.1).
    pub fn drain_merged(&mut self) -> S {
        let mut first = S::default();
        for b in &mut self.buckets {
            if first.is_empty() {
                first = b.take();
            } else {
                first.append(b);
            }
        }
        first
    }

    /// Drain every bucket into `dst`, in spawn-site order.
    pub fn drain_merged_into(&mut self, dst: &mut S) {
        for b in &mut self.buckets {
            dst.append(b);
        }
    }

    /// Take bucket `i`, leaving it empty for reuse.
    pub fn take_bucket(&mut self, i: usize) -> S {
        self.buckets[i].take()
    }
}

/// A recursive, data- and task-parallel program in blocked form.
///
/// Implementors describe the computation tree implicitly: [`Self::make_root`]
/// yields the level-0 tasks (a single task for a plain recursive program;
/// one task per iteration for a data-parallel outer loop, §5.3), and
/// [`Self::expand`] advances a dense block of tasks one level.
///
/// The `expand` contract:
///
/// * every task in `block` must be consumed (the store is drained);
/// * a task that takes its base case folds its result into `red`;
/// * a task that takes its inductive case pushes each spawned child into
///   `out.bucket(i)` where `i` is the spawn site (0-based, in program
///   order); the buckets conceptually live at `block.level + 1`;
/// * tasks must be mutually independent (the Cilk condition): `expand` may
///   process them in any order, and the scheduler may run disjoint blocks
///   concurrently.
///
/// The dense loop inside `expand` is the vectorization surface. Scalar
/// programs iterate; SIMD programs operate on struct-of-arrays columns.
pub trait BlockProgram: Sync {
    /// Storage for a block of this program's tasks.
    type Store: TaskStore;

    /// Per-worker reduction state (folded base-case results).
    type Reducer: Send;

    /// Number of spawn sites in the inductive case (the maximum out-degree
    /// of the computation tree). 2 for binary recursion like `fib`; 15 for
    /// 15-queens' column loop; 8 for an octree traversal.
    fn arity(&self) -> usize;

    /// The level-0 tasks. One task for a single recursive call; many for a
    /// data-parallel outer loop (the scheduler strip-mines oversized roots).
    fn make_root(&self) -> Self::Store;

    /// A fresh identity reducer.
    fn make_reducer(&self) -> Self::Reducer;

    /// Fold `b` into `a`. Must be associative; commutative if the program is
    /// run under a parallel scheduler.
    fn merge_reducers(&self, a: &mut Self::Reducer, b: Self::Reducer);

    /// Advance every task of `block` one step. See the trait docs for the
    /// full contract.
    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut Self::Reducer);
}

/// Blanket implementation so `&P` can be passed wherever a program is expected.
impl<P: BlockProgram + ?Sized> BlockProgram for &P {
    type Store = P::Store;
    type Reducer = P::Reducer;

    fn arity(&self) -> usize {
        (**self).arity()
    }

    fn make_root(&self) -> Self::Store {
        (**self).make_root()
    }

    fn make_reducer(&self) -> Self::Reducer {
        (**self).make_reducer()
    }

    fn merge_reducers(&self, a: &mut Self::Reducer, b: Self::Reducer) {
        (**self).merge_reducers(a, b);
    }

    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut Self::Reducer) {
        (**self).expand(block, out, red);
    }
}

/// The shared "front matter" of a [`BlockProgram`]: spawn-site arity plus
/// the level-0 seed block.
///
/// Every program derived from a *description* of a computation — rather
/// than hand-written against the trait — ends up with the same three
/// members: a static spawn-site count, a stash of root tasks (one for a
/// plain recursive call, many for a §5.2 data-parallel `foreach`, which
/// the engines strip-mine), and a `make_root` that clones the stash per
/// run. `tb-spec`'s two compiled tiers (the scalar `CompiledSpec` and the
/// vector `VectorSpec`) both embed a `ProgramShape` instead of
/// re-implementing that plumbing; anything else that compiles programs
/// at runtime can do the same.
#[derive(Debug, Clone)]
pub struct ProgramShape<S> {
    arity: usize,
    roots: S,
}

impl<S: TaskStore + Clone> ProgramShape<S> {
    /// A shape with `arity` spawn sites seeding `roots` at level 0.
    ///
    /// # Panics
    /// If `arity` is zero — a recursive program needs at least one spawn
    /// site (the same invariant [`BucketSet::new`] enforces).
    pub fn new(arity: usize, roots: S) -> Self {
        assert!(arity >= 1, "a recursive program needs at least one spawn site");
        ProgramShape { arity, roots }
    }

    /// The static spawn-site count ([`BlockProgram::arity`]).
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of level-0 tasks (1 for a plain call, the iteration count
    /// for a data-parallel outer loop).
    pub fn root_len(&self) -> usize {
        self.roots.len()
    }

    /// A fresh copy of the seed block ([`BlockProgram::make_root`]).
    pub fn make_root(&self) -> S {
        self.roots.clone()
    }
}

/// The commutative-sum reducer fold shared by counting/summing programs
/// ([`BlockProgram::merge_reducers`] for any wrapping-additive reducer).
#[inline]
pub fn merge_sum(a: &mut i64, b: i64) {
    *a = a.wrapping_add(b);
}

/// Result of running a program under any scheduler in this crate.
#[derive(Debug, Clone)]
pub struct RunOutput<R> {
    /// The merged reduction value.
    pub reducer: R,
    /// Execution statistics (SIMD steps, supersteps, actions, steals…).
    pub stats: ExecStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_set_routes_and_merges() {
        let mut b: BucketSet<Vec<u32>> = BucketSet::new(3);
        b.bucket(0).push(1);
        b.bucket(2).push(3);
        b.bucket(0).push(10);
        assert_eq!(b.total_len(), 3);
        let merged = b.drain_merged();
        assert_eq!(merged, vec![1, 10, 3]);
        assert!(b.is_empty());
    }

    #[test]
    fn bucket_take_leaves_reusable_bucket() {
        let mut b: BucketSet<Vec<u8>> = BucketSet::new(2);
        b.bucket(1).push(7);
        let taken = b.take_bucket(1);
        assert_eq!(taken, vec![7]);
        assert!(b.is_empty());
        b.bucket(1).push(8);
        assert_eq!(b.total_len(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_arity_rejected() {
        let _b: BucketSet<Vec<u8>> = BucketSet::new(0);
    }

    #[test]
    fn program_shape_seeds_fresh_roots() {
        let shape: ProgramShape<Vec<u32>> = ProgramShape::new(3, vec![7, 8]);
        assert_eq!(shape.arity(), 3);
        assert_eq!(shape.root_len(), 2);
        let mut a = shape.make_root();
        a.push(9);
        assert_eq!(shape.make_root(), vec![7, 8], "make_root clones, never drains");
    }

    #[test]
    #[should_panic]
    fn program_shape_rejects_zero_arity() {
        let _s: ProgramShape<Vec<u8>> = ProgramShape::new(0, vec![1]);
    }

    #[test]
    fn merge_sum_wraps() {
        let mut a = i64::MAX;
        merge_sum(&mut a, 1);
        assert_eq!(a, i64::MIN);
    }
}
